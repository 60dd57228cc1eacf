import random
from fractions import Fraction

import pytest
from oracles import dense_forward_substitution

from lttkit.opcount import OpCounter
from lttkit.series import (
    SingularMatrixError,
    _kronecker,
    _kronecker_digit_bits,
    ltt_matvec_kronecker,
    ltt_matvec_naive,
    ltt_solve_forward,
    read_vector,
    write_vector,
)
from lttkit.solver import ltt_solve_fast


def _rand_column(rng, n, unit_head=False):
    head = [Fraction(1)] if unit_head else [Fraction(rng.randint(1, 9))]
    return head + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 1)]


def test_matvec_examples():
    assert ltt_matvec_naive([1, 0, 0], [3, 4, 5]) == [3, 4, 5]
    assert ltt_matvec_naive([1, 1, 1], [1, 1, 1]) == [1, 2, 3]
    assert ltt_matvec_naive([1, 2, 3, 4], [1, -2, 1, 0]) == [1, 0, 0, 0]
    assert ltt_matvec_naive([1, 1, 0, 0], [1, -1, 0, 0]) == [1, 0, -1, 0]


def test_matvec_shape_error():
    with pytest.raises(ValueError):
        ltt_matvec_naive([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        ltt_matvec_naive([], [])


def test_matvec_counts_multiplications():
    ops = OpCounter()
    ltt_matvec_naive([1, 2, 3, 4], [5, 6, 7, 8], ops)
    assert ops.mults == 10


def _same(got, want):
    # equal values and the same type entry by entry (int == Fraction compares equal)
    return got == want and [type(v) for v in got] == [type(v) for v in want]


def _signed_entry(rng, den_bits=4):
    r = rng.random()
    if r < 0.2:
        return 0
    if r < 0.4:
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-99, 99), rng.randint(1, 2**den_bits))


def test_kronecker_matches_naive_at_every_size():
    rng = random.Random(23)
    for n in list(range(1, 41)) + [128]:
        ints = ([rng.randint(-9, 9) for _ in range(n)], [rng.randint(-9, 9) for _ in range(n)])
        fracs = (_rand_column(rng, n), [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)])
        mixed = ([_signed_entry(rng) for _ in range(n)], [_signed_entry(rng) for _ in range(n)])
        for a, v in (ints, fracs, mixed, (mixed[0], ints[1]), (ints[0], fracs[1])):
            assert _same(ltt_matvec_kronecker(a, v), ltt_matvec_naive(a, v)), n


def test_kronecker_zero_operands():
    for n in (1, 2, 7, 32):
        for zero in (0, Fraction(0)):
            z = [zero] * n
            v = [Fraction(-3, 7)] + list(range(1, n))
            for a, b in ((z, z), (z, v), (v, z)):
                assert _same(ltt_matvec_kronecker(a, b), ltt_matvec_naive(a, b)), (n, zero)
    # zeros inside signed entries
    a = [1, 0, -4, 0, 0, 7]
    b = [Fraction(0), Fraction(-1, 2), 0, Fraction(5, 3), 0, -1]
    assert _same(ltt_matvec_kronecker(a, b), ltt_matvec_naive(a, b))


def test_kronecker_large_denominators():
    rng = random.Random(29)
    for n in (1, 3, 16, 40):
        a = [_signed_entry(rng, den_bits=200) for _ in range(n)]
        v = [_signed_entry(rng, den_bits=200) for _ in range(n)]
        assert _same(ltt_matvec_kronecker(a, v), ltt_matvec_naive(a, v)), n


def test_kronecker_slot_bound():
    # every product at its largest and of one sign: the last coefficient is
    # about 128 * 2**121, which a slot of bits(a) + bits(v) + 1 rounded to
    # whole bytes (128 bits, signed) cannot hold
    for sa, sv in ((1, 1), (1, -1), (-1, -1)):
        a = [sa * (2**61 - 1)] * 128
        v = [sv * (2**60 - 1)] * 128
        assert _same(ltt_matvec_kronecker(a, v), ltt_matvec_naive(a, v)), (sa, sv)
    # one entry of 2**5000 sets the slot width; the small products beside it
    # and every sign combination must survive the unpacking
    rng = random.Random(31)
    for n in (1, 2, 9, 33):
        for sign in (1, -1):
            a = [rng.randint(-9, 9) for _ in range(n)]
            a[n // 2] = sign * 2**5000
            v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            assert _same(ltt_matvec_kronecker(a, v), ltt_matvec_naive(a, v)), (n, sign)
            assert _same(ltt_matvec_kronecker(v, a), ltt_matvec_naive(v, a)), (n, sign)


def test_kronecker_squaring_matches_naive():
    # one list passed as both operands is packed once and squared
    rng = random.Random(37)
    for n in (1, 2, 9, 33, 128):
        negative = [rng.randint(-9, -1) for _ in range(n)]
        signed = [rng.randint(-9, 9) for _ in range(n)]
        huge = list(signed)
        huge[n // 2] = -(2**5000)
        for a in (negative, signed, [0] * n, huge):
            assert _same(_kronecker([a], a)[0], ltt_matvec_naive(a, a)), (n, a[0])


def _truncated_naive(p, v):
    # p(z) v(z) mod z**len(p) by the naive product, v cut or zero-padded to len(p)
    n = len(p)
    return ltt_matvec_naive(p, (list(v) + [0] * n)[:n])


def test_kronecker_two_point_every_length():
    # the even coefficients come from h(X) + h(-X) and the odd ones from
    # h(X) - h(-X): odd and even lengths, for products and squarings
    rng = random.Random(41)
    for n in list(range(1, 41)) + [127, 128]:
        p = [rng.randint(-99, 99) for _ in range(n)]
        v = [rng.randint(-99, 99) for _ in range(n)]
        assert _kronecker([p], v) == [ltt_matvec_naive(p, v)], n
        assert _kronecker([v], v) == [ltt_matvec_naive(v, v)], n


def test_kronecker_unequal_lengths():
    # _apply_hat passes parts no longer than v, the base-3 level either way round
    rng = random.Random(43)
    for n in (1, 2, 3, 8, 13, 40):
        for m in sorted({1, max(n - 1, 1), n + 1, 2 * n + 3}):
            p = [rng.randint(-9, 9) for _ in range(n)]
            v = [rng.randint(-9, 9) for _ in range(m)]
            assert _kronecker([p], v) == [_truncated_naive(p, v)], (n, m)


def test_kronecker_parts_share_one_v():
    # residue classes of a column against one vector, as _apply_hat at base 3,
    # with v itself among the parts (the squaring path)
    rng = random.Random(47)
    for m in (1, 2, 3, 7, 20, 64):
        hat = [rng.randint(-50, 50) for _ in range(m)]
        v = [rng.randint(-50, 50) for _ in range(-(-m // 3))]
        parts = [hat[r::3] for r in range(min(3, m))] + [v]
        assert _kronecker(parts, v) == [_truncated_naive(p, v) for p in parts], m


def test_kronecker_slot_bound_at_odd_and_even_index():
    # all-maximal entries of one sign put the largest coefficient last, at an
    # odd index for even n and an even one for odd n; at n = 2**k - 1 or
    # 2**k - 2 it nearly reaches 2**(bits(p) + bits(v) + bits(n)). Eight
    # consecutive bits(v) give every rounding of the slot to whole bytes
    for n in (2, 3, 126, 127):
        for bv in range(56, 64):
            for sp, sv in ((1, 1), (1, -1), (-1, -1)):
                p = [sp * (2**64 - 1)] * n
                v = [sv * (2**bv - 1)] * n
                assert _kronecker([p, v], v) == [ltt_matvec_naive(p, v), ltt_matvec_naive(v, v)], (n, bv, sp, sv)


def test_kronecker_slot_bound_without_spare_bit():
    # bits(p) + bits(v) + bits(n) = 64 + 56 + 7 is 7 mod 8, where the slot is
    # exactly that plus one sign bit (16 bytes; a spare bit would cost a 17th).
    # The largest coefficient, last at an even (n = 127) or odd (n = 126)
    # index, needs all 127 bits of magnitude.
    for n in (126, 127):
        for sp, sv in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            p = [sp * (2**64 - 1)] * n
            v = [sv * (2**56 - 1)] * n
            want = ltt_matvec_naive(p, v)
            assert abs(want[-1]).bit_length() == 64 + 56 + 7
            assert _kronecker([p], v) == [want], (n, sp, sv)


def test_kronecker_huge_entry_at_odd_index():
    rng = random.Random(53)
    for n in (2, 3, 10, 33):
        for sign in (1, -1):
            p = [rng.randint(-9, 9) for _ in range(n)]
            p[(n // 2) | 1] = sign * 2**5000  # an odd index below n
            v = [rng.randint(-9, 9) for _ in range(n)]
            for a, b in ((p, v), (v, p), (p, p)):
                assert _kronecker([a], b) == [ltt_matvec_naive(a, b)], (n, sign)


def test_kronecker_digit_width():
    # the digit is t ~ B/2 bits, B = bits(max|p|) + bits(max|v|) + bits(len v),
    # the smallest multiple of 16 with 2t >= B + 2; a digit as wide as B, or
    # as the widest entry, gives the same products at about twice the cost
    balanced = ([2**64 - 1] * 127, [2**56 - 1] * 127)  # B = 64 + 56 + 7 = 127
    unbalanced = ([-(2**1700) + 1] * 128, [255] * 128)  # B = 1700 + 8 + 8 = 1716
    for (p, v), t in ((balanced, 80), (unbalanced, 864)):
        assert _kronecker_digit_bits([p], v) == t
    assert _kronecker_digit_bits([[1]], [1]) == 16


def test_kronecker_at_the_digit_bound():
    # 2t = B + 2 exactly, at B = 62 (t = 32) and B = 126 (t = 64): all-maximal
    # entries of every sign pair make the last coefficient need all B bits.
    # len(v) = n and n - 1 give the degree D both parities, so the reversed
    # product's evens are h's evens and its odds in turn
    for bits_p, bits_v, lengths in ((28, 28, (62, 63)), (64, 55, (126, 127))):
        for n in lengths:
            for m in (n, n - 1):
                for sp, sv in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    p, v = [sp * (2**bits_p - 1)] * n, [sv * (2**bits_v - 1)] * m
                    bound = bits_p + bits_v + m.bit_length()
                    assert 2 * _kronecker_digit_bits([p], v) == bound + 2
                    want = _truncated_naive(p, v)
                    assert abs(want[-1]).bit_length() == bound
                    assert _kronecker([p], v) == [want], (n, m, sp, sv)
                    assert _kronecker([v], v) == [ltt_matvec_naive(v, v)], (m, sv)
    # a squaring at B = 126: 63 * (2**60 - 1)**2 needs all 126 bits
    edge = [-(2**60 - 1)] * 63
    assert 2 * _kronecker_digit_bits([edge], edge) == 126 + 2
    assert abs(ltt_matvec_naive(edge, edge)[-1]).bit_length() == 126
    assert _kronecker([edge], edge) == [ltt_matvec_naive(edge, edge)]


def test_kronecker_two_planes():
    # entries of t bits or more are packed as two planes: 1700 x 8 and
    # 5000 x 1 bits, either operand wide, with negative entries that are exact
    # multiples of 2**t (their chunk's low digit is 0) and of the largest magnitude
    rng = random.Random(59)
    for bits_w, bits_n in ((1700, 8), (5000, 1)):
        for n in (1, 2, 3, 4, 5, 8, 9, 17, 40):
            wide = [rng.randint(-(2**bits_w) + 1, 2**bits_w - 1) for _ in range(n)]
            narrow = [rng.randint(-(2**bits_n) + 1, 2**bits_n - 1) for _ in range(n)]
            t = _kronecker_digit_bits([wide], narrow)
            assert t < bits_w
            wide[n // 2] = -(2**t) * rng.randint(1, 2 ** (bits_w - t - 1))
            wide[-1] = -(2**t)
            wide[0] = rng.choice((-1, 1)) * (2**bits_w - 1)
            for a, b in ((wide, narrow), (narrow, wide), (wide, wide)):
                assert _kronecker([a], b) == [ltt_matvec_naive(a, b)], (bits_w, bits_n, n)
    # the widest entry has exactly t bits: an offset chunk of t bits cannot hold it
    for n in (9, 10, 15):
        wide = [-(2**32) + 1, 2**31] + [rng.randint(-(2**32) + 1, 2**32 - 1) for _ in range(n - 2)]
        narrow = [rng.randint(-(2**20) + 1, 2**20 - 1) for _ in range(n - 1)] + [2**20 - 1]
        assert _kronecker_digit_bits([wide], narrow) == 32
        for a, b in ((wide, narrow), (narrow, wide)):
            assert _kronecker([a], b) == [ltt_matvec_naive(a, b)], n


def test_kronecker_short_and_long_v():
    # len(v) = 1 leaves the reversed product exactly count - 1 digits below
    # its top, the fewest the recovery can read; a longer v runs the product
    # far past the len(p) coefficients recovered. All-maximal entries of one
    # sign keep every coefficient near the digit bound
    rng = random.Random(61)
    for n in (1, 2, 3, 7, 16, 33):
        for m in sorted({1, 2, max(n // 2, 1), n + 1, 3 * n + 5}):
            for p, v in (
                ([2**40 - 1] * n, [-(2**21 - 1)] * m),
                ([rng.randint(-(2**40), 2**40) for _ in range(n)], [rng.randint(-(2**21), 2**21) for _ in range(m)]),
            ):
                assert _kronecker([p, v], v) == [_truncated_naive(p, v), ltt_matvec_naive(v, v)], (n, m)


def test_kronecker_shape_error():
    with pytest.raises(ValueError):
        ltt_matvec_kronecker([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        ltt_matvec_kronecker([], [])


def test_kronecker_counts_the_naive_products():
    for n in (1, 2, 5, 64):
        ops = OpCounter()
        ltt_matvec_kronecker([Fraction(1, 3)] * n, list(range(n)), ops)
        assert ops.mults == n * (n + 1) // 2


def test_solve_forward_examples():
    e1 = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    assert ltt_solve_forward([1, 2, 3, 4], e1) == [1, -2, 1, 0]
    assert ltt_solve_forward([1, 1, 1, 1], e1) == [1, -1, 0, 0]
    assert ltt_solve_forward([1, 0, 0], [7, 8, 9]) == [7, 8, 9]


def test_solve_forward_singular():
    with pytest.raises(SingularMatrixError):
        ltt_solve_forward([0, 1], [1, 2])


def test_solve_forward_scales_by_head():
    assert ltt_solve_forward([Fraction(2), Fraction(4)], [Fraction(2), Fraction(0)]) == [
        Fraction(1),
        Fraction(-2),
    ]
    # an int head divides exactly; floats would compare equal, so check types
    x = ltt_solve_forward([2, 1, 0], [1, 0, 0])
    assert x == [Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8)]
    assert all(isinstance(v, Fraction) for v in x)


def test_product_column_matches_composed_action():
    # multiplying by the composed column equals applying both factors in turn
    rng = random.Random(11)
    for n in (4, 16, 64):
        a = _rand_column(rng, n)
        u = _rand_column(rng, n)
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        left = ltt_matvec_naive(ltt_matvec_naive(a, u), v)
        right = ltt_matvec_naive(a, ltt_matvec_naive(u, v))
        assert left == right


def test_spreading_commutes_with_products():
    # L(Eu) Ev == E L(u) v on matching truncations, unit leading coefficients;
    # E puts v[j] at index j * base**power
    rng = random.Random(13)
    for base in (2, 3):
        for power in (1, 2):
            step = base**power
            n = 81 // step
            u = _rand_column(rng, n, unit_head=True)
            v = _rand_column(rng, n, unit_head=True)
            full = n * step
            eu, ev, right = [0] * full, [0] * full, [0] * full
            eu[::step], ev[::step], right[::step] = u, v, ltt_matvec_naive(u, v)
            assert ltt_matvec_naive(eu, ev) == right


def test_solve_forward_inverts_matvec():
    rng = random.Random(17)
    for n in (3, 8, 33):
        a = _rand_column(rng, n)
        f = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        assert ltt_matvec_naive(a, ltt_solve_forward(a, f)) == f


def _typed(values):
    return [(type(v), v) for v in values]


def _forward_columns(rng, n):
    """Column kinds, each of length n, that the integer kernel treats differently."""
    digits = [rng.randint(-9, 9) for _ in range(n - 1)]
    return {
        "int head 1": [1] + digits,
        "int head 3": [3] + digits,
        "int head -2": [-2] + digits,
        "Fraction head 1": [Fraction(1)] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 1)],
        "Fraction(1) head, int tail": [Fraction(1)] + digits,
        "mixed": [1] + [v if v % 3 else Fraction(v, 7) for v in digits],
        "zero heavy": [1] + [v if v % 5 == 0 else 0 for v in digits],
        "negative": [-1] + [-abs(v) for v in digits],
        "2**200 denominators": [Fraction(3, 2**200)] + [Fraction(v, 2 ** rng.randint(0, 200)) for v in digits],
    }


def _forward_rhs(rng, n):
    return {
        "e1": [1] + [0] * (n - 1),
        "int": [rng.randint(-9, 9) for _ in range(n)],
        "Fraction": [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)],
        "mixed": [rng.randint(-9, 9) if i % 3 else Fraction(rng.randint(-9, 9), 5) for i in range(n)],
        "2**200 denominators": [Fraction(rng.randint(-9, 9), 2**200) for _ in range(n)],
    }


def test_solve_forward_matches_dense_oracle_values_and_types():
    rng = random.Random(71)
    for n in range(1, 41):
        for col_kind, a in _forward_columns(rng, n).items():
            for rhs_kind, f in _forward_rhs(rng, n).items():
                want = dense_forward_substitution(a, f)
                assert _typed(ltt_solve_forward(a, f)) == _typed(want), (n, col_kind, rhs_kind)


@pytest.mark.parametrize("operand", ["column", "rhs"])
@pytest.mark.parametrize(
    "bad",
    [float("nan"), complex(0.0, float("inf")), 10**400, Fraction(-(10**400), 3)],
    ids=["nan", "inf", "huge int", "huge Fraction"],
)
def test_complex_solves_name_non_finite_entries(operand, bad):
    # both solvers refuse the same entry with the same message, instead of
    # returning NaNs (forward) or overflowing inside a conversion
    a = [1 + 0j, 0.5, 0.25, 0.125]
    f = [1, 0j, 0, 0]
    (a if operand == "column" else f)[2] = bad
    messages = []
    for solve in (ltt_solve_forward, lambda a, f: ltt_solve_fast(a, f, 2)):
        with pytest.raises(ValueError, match=f"{operand} entry at index 2") as exc:
            solve(a, f)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("head", [1e-300, 1e-160, 5e-324])
def test_complex_forward_solve_refuses_out_of_range_solutions(head):
    # x = [1/h, -1/h**2, ...] leaves the double range: the loop would return
    # [1e300, -inf, nan, nan] at h = 1e-300
    with pytest.raises(OverflowError, match="^the solution leaves the double range$"):
        ltt_solve_forward([head, 1, 0, 0], [1, 0, 0, 0])


def test_vector_file_round_trip(tmp_path):
    path = tmp_path / "vec.txt"
    values = [Fraction(-3, 2), Fraction(0), Fraction(7)]
    write_vector(path, values)
    got = read_vector(path)
    assert got == values and all(type(v) is Fraction for v in got)

    zvals = [complex(1.5, -2.25), complex(0, 1)]
    write_vector(path, zvals)
    got = read_vector(path)
    assert got == zvals and all(type(v) is complex for v in got)


def test_write_vector_writes_only_what_read_vector_reads(tmp_path):
    # a rational or all-complex vector reads back as written, a mixed one as its
    # values converted with complex(); what no file can hold raises, and no file is left
    path = tmp_path / "vec.txt"
    huge = Fraction(10**400, 3)
    mixed = [1, Fraction(1, 3), -0.5, 2 - 1j, Fraction(-7, 2)]
    for values, want, kind in (
        ([Fraction(-3, 2), 0, 7, huge, -(10**400)], None, Fraction),
        ([1.5 - 2.25j, 1j, 5e-324 + 1e308j, complex(-1e-300, 3)], None, complex),
        (mixed, [complex(x) for x in mixed], complex),
        ([0.5, Fraction(1, 3)], [0.5 + 0j, complex(Fraction(1, 3))], complex),
    ):
        write_vector(path, values)
        got = read_vector(path)
        assert got == (values if want is None else want) and all(type(v) is kind for v in got), values
    for values, error, match in (
        ([1j, float("nan")], OverflowError, "^the vector leaves the double range$"),
        ([float("inf")], OverflowError, "^the vector leaves the double range$"),
        ([1, complex(0, float("-inf"))], OverflowError, "^the vector leaves the double range$"),
        ([1j, 10**400], OverflowError, "^vector entry at index 1 is beyond the double range$"),
        ([0.5, 1, huge], OverflowError, "^vector entry at index 2 is beyond the double range$"),
        ([], ValueError, "^cannot write an empty vector$"),
    ):
        path.unlink(missing_ok=True)
        with pytest.raises(error, match=match):
            write_vector(path, values)
        assert not path.exists(), values


def test_vector_file_without_header(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("1/2\n-3\n", encoding="ascii")
    got = read_vector(path)
    assert got == [Fraction(1, 2), Fraction(-3)] and all(type(v) is Fraction for v in got)
    path.write_text("1.5,0.0\n2.0,1.0\n", encoding="ascii")
    got = read_vector(path)
    assert got == [1.5 + 0j, 2 + 1j] and all(type(v) is complex for v in got)


def test_vector_file_header_mismatch(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("# n=3 field=rational\n1\n2\n", encoding="ascii")
    with pytest.raises(ValueError):
        read_vector(path)
    for text, match in (
        ("# n=0 field=rational\n\n", "empty vector file"),
        ("# n=2 field=real\n1\n2\n", "bad field in header of .*: 'real'"),
    ):
        path.write_text(text, encoding="ascii")
        with pytest.raises(ValueError, match=match):
            read_vector(path)
