import random
from fractions import Fraction
from math import factorial
from operator import is_

import pytest

from oracles import (
    Eisenstein,
    dense_forward_substitution,
    max_rel_err,
    product_form_hat3,
    rotation_hat,
    tangent_bernoulli,
)

from lttkit import scalars, solver
from lttkit.bernoulli import gen_system
from lttkit.series import (
    SingularMatrixError,
    ltt_matvec_naive,
    ltt_solve_forward,
)
from lttkit.solver import (
    invert_first_column,
    ltt_solve_fast,
    sparsify_hat,
    sparsify_step,
)


def _rat_column(rng, n, lo=-9, hi=9, den=9):
    return [Fraction(1)] + [Fraction(rng.randint(lo, hi), rng.randint(1, den)) for _ in range(n - 1)]


def _cx_column(rng, n, scale=0.35):
    return [1 + 0j] + [complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(n - 1)]


def _e1(n):
    return [Fraction(1)] + [Fraction(0)] * (n - 1)


# ----------------------------------------------------------- sparsification


def test_hat_base2_is_sign_flip():
    assert sparsify_hat([1, 1, 1, 1], 2) == [1, -1, 1, -1]
    a = [1, 5, -2, 7, 0, 3]
    assert sparsify_hat(a, 2) == [1, -5, -2, -7, 0, -3]


def test_hat_base3_low_order_closed_forms():
    rng = random.Random(61)
    a = _rat_column(rng, 8)
    hat = sparsify_hat(a, 3)
    assert hat[0] == 1
    assert hat[1] == -a[1]
    assert hat[2] == -a[2] + a[1] ** 2
    assert hat[3] == 2 * a[3] - a[1] * a[2]


def test_hat_identity_column():
    e1 = _e1(5)
    assert sparsify_hat(e1, 2) == e1
    assert sparsify_hat(e1, 3) == e1


def test_hat_requires_unit_head():
    with pytest.raises(ValueError):
        sparsify_hat([Fraction(2), Fraction(1)], 2)


def test_hat_rational_large_base_rejected():
    with pytest.raises(ValueError):
        sparsify_hat(_e1(8), 4)


def test_hat_nullifies_off_multiples():
    rng = random.Random(67)
    for base in (2, 3):
        for n in (8, 16, 27, 81):
            a = _rat_column(rng, n)
            w = ltt_matvec_naive(a, sparsify_hat(a, base))
            assert w[0] == 1
            for i in range(1, n):
                if i % base:
                    assert w[i] == 0, (base, n, i)


def test_hat_base3_matches_exact_product_form():
    # the class products against the product of rotated columns, exactly in Q(w), at every
    # length to 60 and two longer ones, on int, Fraction and mixed columns; entry i is an
    # int exactly when a_0..a_i are, as a per-term sum of their products types it
    rng = random.Random(71)
    for m in [*range(1, 61), 128, 200]:
        for a in (
            [1] + [rng.randint(-9, 9) for _ in range(m - 1)],
            _rat_column(rng, m),
            [1] + [rng.randint(-9, 9) for _ in range(1, m // 2)]
            + [rng.choice((7, Fraction(rng.randint(-9, 9), 2))) for _ in range(max(m // 2, 1), m)],
        ):
            hat = sparsify_hat(a, 3)
            assert product_form_hat3(a) == [Eisenstein(c) for c in hat], a
            ints = next((i for i, v in enumerate(a) if type(v) is not int), m)
            assert [type(c) for c in hat] == [int] * ints + [Fraction] * (m - ints), a
    assert sparsify_hat([Fraction(1)] * 9, 3) == [1, -1, 0] * 3  # 1 / (1 + z + z**2)


def test_hat_complex_path_is_real_for_rational_input():
    rng = random.Random(73)
    for base, n in ((3, 81), (3, 243), (4, 16), (5, 25)):
        a = _rat_column(rng, n, lo=-3, hi=3, den=3)
        hat = invert_first_column([complex(v) for v in a], base)[1].hat_columns[0]
        assert max(abs(v.imag) for v in hat) < 1e-10
        if base == 3:
            exact = sparsify_hat(a, 3)
            assert max(abs(h - complex(e)) for h, e in zip(hat, exact)) < 1e-8


def test_sparsify_rejects_complex_columns():
    # complex levels run in the transform domain, inside invert_first_column
    for base in (2, 3, 4):
        a = [1 + 0j, 0.5 + 0j] + [0j] * (base * base - 2)
        with pytest.raises(ValueError):
            sparsify_hat(a, base)
        with pytest.raises(ValueError):
            sparsify_step(a, base)


def test_sparsify_step_examples():
    res = sparsify_step([Fraction(1)] * 4, 2)
    assert res.hat == [1, -1, 1, -1]
    assert res.next == [1, 1]

    rng = random.Random(79)
    a = _rat_column(rng, 9)
    res = sparsify_step(a, 3)
    assert res.next[0] == 1
    assert res.next[1] == 3 * a[3] - 3 * a[1] * a[2] + a[1] ** 3
    full = ltt_matvec_naive(a, res.hat)
    assert res.next == [full[3 * i] for i in range(3)]

    e1 = _e1(6)
    res = sparsify_step(e1, 2)
    assert res.hat == e1 and res.next == _e1(3)

    # the base-2 hat flips the signs of the caller's own entries, and next[i]
    # is an int when a_0..a_{2i} are
    mixed = [1, Fraction(1, 2), 3, 4]
    res = sparsify_step(mixed, 2)
    assert _typed(res.hat) == _typed(sparsify_hat(mixed, 2)) == _typed([1, Fraction(-1, 2), 3, -4])
    assert _typed(res.next) == _typed([1, Fraction(23, 4)])

    # a length-base column shrinks to [1] with no product
    for base in (2, 3):
        res = sparsify_step(a[:base], base)
        assert res.next == [1]
        assert res.hat == sparsify_hat(a[:base], base)


def test_sparsify_step_length_check():
    with pytest.raises(ValueError):
        sparsify_step(_e1(7), 2)


# ------------------------------------------------------------------- invert


def test_invert_examples():
    x, _ = invert_first_column([Fraction(1)] * 8, 2)
    assert x == [1, -1, 0, 0, 0, 0, 0, 0]
    x, _ = invert_first_column([Fraction(v) for v in (1, 2, 3, 4)], 2)
    assert x == [1, -2, 1, 0]


def test_int_columns_keep_int_results():
    # an int column with head 1 is solved in the integers: ints come back, not Fractions
    x, _ = invert_first_column([1, 2, 3, 4, 5], 2)
    assert x == [1, -2, 1, 0, 0] and all(type(v) is int for v in x)
    x = ltt_solve_fast([1, 2, 3], [1, 1, 1], 3)
    assert x == [1, -1, 0] and all(type(v) is int for v in x)
    # a skipped level spreads int zeros, and a head Fraction(1) is 1
    x, _ = invert_first_column([1, 0, 0, 5, 0, 0, 7], 3)
    assert x == [1, 0, 0, -5, 0, 0, 18] and all(type(v) is int for v in x)
    x = ltt_solve_fast([1, 0, 0, 5, 0, 0, 7], [1, 2, 3, 4, 5, 6, 7], 3)
    assert x == ltt_solve_forward([1, 0, 0, 5, 0, 0, 7], [1, 2, 3, 4, 5, 6, 7]) and all(type(v) is int for v in x)
    x, _ = invert_first_column([Fraction(1), 2, 3], 2)
    assert x == [1, -2, 1] and all(type(v) is int for v in x)


def test_invert_matches_forward_oracle_exactly():
    rng = random.Random(83)
    for base, sizes in ((2, (4, 8, 16, 64)), (3, (9, 27, 81))):
        for n in sizes:
            for _ in range(5):
                a = _rat_column(rng, n, lo=-4, hi=4, den=4)
                x, trace = invert_first_column(a, base)
                assert x == ltt_solve_forward(a, _e1(n))
                assert _typed(x) == _typed(ltt_solve_forward(a, [1] + [0] * (n - 1)))
                assert trace.levels == len(trace.hat_columns)
                assert [len(h) for h in trace.hat_columns] == [n // base**j for j in range(trace.levels)]
                chain, col = [], a
                for _ in range(trace.levels):
                    res = sparsify_step(col, base)
                    chain.append(res.hat)
                    col = res.next
                assert trace.hat_columns == chain


def test_invert_skips_presparsified_level():
    # a column already zero off multiples of the base costs no first-level
    # work in either field: it solves like its subsampled column, spread
    rng = random.Random(89)
    for base, n in ((3, 27), (2, 64)):
        a = [Fraction(0)] * n
        a[0] = Fraction(1)
        for i in range(base, n, base):
            a[i] = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        ac = [complex(v) for v in a]
        for col in (a, ac):
            x, trace = invert_first_column(col, base)
            x_short, short_trace = invert_first_column(col[::base], base)
            assert trace.hat_columns[0] == _e1(n)
            assert trace.mult_count == short_trace.mult_count, (base, col[0])
            spread = [0] * n
            spread[::base] = x_short
            assert x == spread, (base, col[0])
        x, _ = invert_first_column(a, base)
        assert x == ltt_solve_forward(a, _e1(n))
        x_complex, _ = invert_first_column(ac, base)
        assert max_rel_err(x_complex, x) < 1e-12


def test_invert_normalizes_leading_coefficient():
    rng = random.Random(97)
    a = [Fraction(5, 2)] + _rat_column(rng, 8)[1:]
    x, _ = invert_first_column(a, 2)
    assert x == ltt_solve_forward(a, _e1(8))
    # an int column stays exact, and a complex head whose a0 / a0 is not
    # exactly 1 still solves accurately
    ints = [2, 1, -1, 3, 0, 1, 2, -2, 1]
    x, _ = invert_first_column(ints, 3)
    assert all(isinstance(v, Fraction) for v in x)
    assert x == ltt_solve_forward([Fraction(v) for v in ints], _e1(9))
    ac = [-2.71 + 4.45j] + _cx_column(rng, 27)[1:]
    ref = ltt_solve_forward(ac, [1 + 0j] + [0j] * 26)
    x, _ = invert_first_column(ac, 3)
    assert max_rel_err(x, ref) < 1e-12


def test_invert_any_length_matches_forward_exactly():
    # a level at length m pads fewer than base zeros and its assembly step
    # truncates back to m, so every length solves exactly
    rng = random.Random(137)
    for base in (2, 3):
        for n in [*range(1, 41), 100, 127, 128, 129, 200]:
            dense = _rat_column(rng, n, lo=-4, hi=4, den=4)
            ints = [rng.choice((-3, 2, 5))] + [rng.randint(-4, 4) for _ in range(n - 1)]
            # zero off the multiples of 3: skipped levels land at non-power lengths
            sparse = [v if i % 3 == 0 else Fraction(0) for i, v in enumerate(_rat_column(rng, n, lo=-4, hi=4, den=4))]
            for a in (dense, ints, sparse):
                x, trace = invert_first_column(a, base)
                assert x == ltt_solve_forward([Fraction(v) for v in a], _e1(n)), (base, n)
                assert trace.levels == len(trace.hat_columns)


def test_invert_errors():
    with pytest.raises(SingularMatrixError):
        invert_first_column([Fraction(0), Fraction(1)], 2)
    # every level is already sparse, so only the up-front base check refuses this
    with pytest.raises(ValueError):
        invert_first_column([Fraction(1)] + [Fraction(0)] * 15, 4)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: invert_first_column([1, 2], 1), "base must be >= 2"),
        (lambda: invert_first_column([], 2), "length must be >= 1"),
        (lambda: ltt_solve_fast([1, 2], [1, 2, 3], 2), "length mismatch: column 2, rhs 3"),
        (lambda: ltt_solve_forward([1, 2], [1]), "length mismatch: column 2, rhs 1"),
        (lambda: ltt_solve_forward([], []), "empty column"),
    ],
)
def test_solver_boundary_errors(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def _telescope(a, hats, base):
    # compose the spread companion columns onto a; after level j the column
    # is zero off the multiples of base**(j+1), and after the last it is e_1
    n, col = len(a), list(a)
    for j, hat in enumerate(hats):
        spread = [0] * n
        spread[:: base**j] = hat  # hat[k] at k * base**j: level j's column has ceil(n / base**j) entries
        col = ltt_matvec_naive(spread, col)
        yield [v for i, v in enumerate(col) if i % base ** (j + 1)], col


def test_invert_telescopes_to_identity():
    # the replayed companion columns nullify the columns the solve saw, at
    # power and non-power lengths and across a skipped level
    rng = random.Random(101)
    for base, n in ((2, 16), (3, 27), (2, 7), (3, 7), (2, 100), (3, 100), (2, 129), (3, 129)):
        dense = _rat_column(rng, n)
        sparse = [v if i % base == 0 else Fraction(0) for i, v in enumerate(_rat_column(rng, n))]
        for a in (dense, sparse):
            _, trace = invert_first_column(a, base)
            assert trace.levels == len(trace.hat_columns) > 0, (base, n)
            col = a
            for off, col in _telescope(a, trace.hat_columns, base):
                assert not any(off), (base, n)
            assert col == _e1(n), (base, n)
        assert trace.hat_columns[0] == _e1(n)  # the sparse column skips its first level
    for base in (2, 3, 4, 5):
        for n in (base**3, base**2 + 3):
            a = _cx_column(rng, n, scale=0.3)
            _, trace = invert_first_column(a, base)
            padded = trace.column
            assert padded[:n] == a and len(padded) == len(trace.hat_columns[0])
            col = padded
            for off, col in _telescope(padded, trace.hat_columns, base):
                assert max(map(abs, off), default=0.0) < 1e-9, (base, n)
            assert max_rel_err(col, [1 + 0j] + [0j] * (len(padded) - 1)) < 1e-9, (base, n)


def test_invert_complex_fft_backend_accuracy():
    rng = random.Random(103)
    # every base 2..7 at n = base**2 and base**3, and (2, 64), (3, 81)
    cases = ((2, 64), (3, 81), (4, 64), (5, 125), (2, 4), (2, 8), (3, 9), (3, 27), (4, 16), (5, 25))
    for base, n in cases + ((6, 36), (6, 216), (7, 49), (7, 343)):
        a = _cx_column(rng, n, scale=0.3)
        x, trace = invert_first_column(a, base)
        ref = ltt_solve_forward(a, [1 + 0j] + [0j] * (n - 1))
        assert max_rel_err(x, ref) < 1e-9, (base, n)
        assert trace.mult_count > 0
        assert [len(h) for h in trace.hat_columns] == [n // base**j for j in range(trace.levels)]
        assert max_rel_err(trace.hat_columns[0], rotation_hat(a, base)) < 1e-12, (base, n)


@pytest.mark.parametrize("base", range(2, 8))
def test_hat_columns_built_on_read(base):
    # a complex level at base >= 3 writes out its companion column only when
    # hat_columns is read; each column is the rotation product of its level's
    # column (checked up to length 625, where the oracle stays quick), and
    # reading them leaves mult_count as the solve left it
    rng = random.Random(base)
    for n in (base**2, base**3, base**4, base**2 + 3):
        a = [1 + 0j] + [complex(rng.random(), rng.random()) * 0.8**k for k in range(1, n)]
        _, trace = invert_first_column(a, base)
        count = trace.mult_count
        hats = trace.hat_columns
        assert trace.hat_columns is hats and trace.mult_count == count
        col = a + [0j] * (len(hats[0]) - n)
        for hat in hats:
            if len(col) <= 625:
                assert max_rel_err(hat, rotation_hat(col, base)) < 1e-12, (base, n, len(col))
            col = ltt_matvec_naive(col, hat)[::base]


def test_hat_columns_built_on_read_rational():
    # a rational trace replays its levels from its first column too: reading
    # hat_columns does no counted work, and an order-1 solve has no level and
    # no companion column
    rng = random.Random(71)
    for base in (2, 3):
        for n in (1, 2, 7, 27, 64):
            for a in (_rat_column(rng, n), [v if i % base == 0 else 0 for i, v in enumerate(_rat_column(rng, n))]):
                _, trace = invert_first_column(a, base)
                count = trace.mult_count
                assert trace.levels == len(trace.hat_columns) and trace.mult_count == count, (base, n)
    assert invert_first_column([Fraction(3)], 2)[1].hat_columns == []


def test_hat_columns_keep_the_solve_field():
    # a skipped level's subsample can drop every float of a complex column;
    # the level below still ran in the transform domain, and its companion
    # column is written out as complex, at a base with no exact form
    a = [1] + [0] * 15
    a[4], a[15] = 3, 0.0
    x, trace = invert_first_column(a, 4)
    hats = trace.hat_columns
    assert hats[0] == [1] + [0j] * 15
    assert all(type(v) is complex for v in hats[1])
    assert max_rel_err(hats[1], rotation_hat([1, 3, 0, 0], 4)) < 1e-12
    assert max_rel_err(x, ltt_solve_forward([complex(v) for v in a], [1 + 0j] + [0j] * 15)) < 1e-12
    # an int head and a float and complex tail normalize into one complex column
    _, trace = invert_first_column([2, 0.5, 0.25j, -0.125, 1.0], 2)
    assert all(type(v) is complex for v in trace.column)


@pytest.mark.parametrize("base", range(2, 8))
def test_complex_head_is_exact_reciprocal(base):
    # the assembly starts from [1] and every step keeps coefficient 0, so
    # x[0] is 1 / a0 to the last bit
    rng = random.Random(base + 40)
    for n in (base**2, base**3, base**2 + 3):
        for a0 in (1 + 0j, complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))):
            a = [a0] + [complex(rng.random(), rng.random()) * 0.8**k for k in range(1, n)]
            x, _ = invert_first_column(a, base)
            assert x[0] == 1 / a0, (base, n, a0)


def test_complex_mult_count_pins():
    # base >= 3 spends no length-base*m inverse transform on a companion column
    # that only hat_columns reads (the eager write-out cost 12128 and 40802
    # here); the assembly applies the shortest level like the others, from [1].
    # Zero-padded transforms copy their first stage and inverse transforms skip
    # the output blocks no level reads (unpruned: 8828 and 29293). The radix-b
    # butterflies pair r with b-r: 1056 and 970 butterfly positions here at 2
    # and 8 mults each, in place of 4 and 16 (7234 and 22617 before).
    rng = random.Random(103)
    for base, n, count in ((3, 81, 5122), (5, 125, 14857)):
        _, trace = invert_first_column(_cx_column(rng, n, scale=0.3), base)
        assert trace.mult_count == count, (base, n)


def test_invert_complex_naive_backend():
    # flat 0.35-scaled columns, checked against forward substitution
    rng = random.Random(107)
    for base, n in ((3, 27), (2, 32), (4, 64), (5, 125)):
        a = _cx_column(rng, n)
        x, _ = invert_first_column(a, base)
        ref = ltt_solve_forward(a, [1 + 0j] + [0j] * (n - 1))
        assert max_rel_err(x, ref) < 1e-9, (base, n)


def test_invert_complex_large_well_scaled():
    # decaying coefficients keep the companion-column cascade bounded, so
    # the float path stays accurate at large orders
    import cmath

    rng = random.Random(131)
    for base, n in ((2, 1024), (3, 729)):
        a = [1 + 0j]
        mag = 1.0
        for _ in range(n - 1):
            mag *= 0.5
            a.append(0.8 * mag * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi)))
        x, _ = invert_first_column(a, base)
        ref = ltt_solve_forward(a, [1 + 0j] + [0j] * (n - 1))
        assert max_rel_err(x, ref) < 1e-10


@pytest.mark.parametrize("base, n, bound", [(2, 4096, 206), (3, 2187, 306)])
def test_complex_solve_peak_memory_per_unknown(base, n, bound, traced_peak):
    # traced bytes per unknown of one solve, plans built first: 200.2 at
    # base 2 and 297.0 at base 3, the same in every run, while the solve
    # copies its column once, every transform owns its input and pointwise
    # passes and base-2 slice stages run in place. The bounds sit 3% above,
    # not 10% as in the other pins, so that two more copies of the column
    # fail (208 and 313). Older peaks: 237 at base 2 with slice stages over
    # all of x; 301 and 365 while callers held their transforms' inputs; 357
    # at base 2 while the (-1)-circulant held its scaled row; 397 and 544
    # with slice butterflies at base 3 and the circulant products holding
    # their first rows.
    rng = random.Random(137)
    a = [1 + 0j] + [complex(rng.random(), rng.random()) * 2.0**-k for k in range(1, n)]
    f = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
    ltt_solve_fast(a, f, base)
    assert traced_peak(lambda: ltt_solve_fast(a, f, base)) / n < bound


@pytest.mark.parametrize("base, size", [(2, 64), (3, 81), (5, 125)])
def test_solves_leave_their_inputs_unchanged(base, size):
    # the assembly hands each level's samples to its inverse transform and empties the
    # record; the caller's lists keep every entry, object for object, and hat_columns,
    # read after the solve, still replays the levels from the trace's column
    rng = random.Random(139)
    for n in (size, size + 3):
        a = [1 + 0j] + [complex(rng.random(), rng.random()) * 2.0**-k for k in range(1, n)]
        f = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        cases = [(a, f), ([2 - 1j, *a[1:]], f)]
        if base < 5:
            cases.append((_rat_column(rng, n), [Fraction(rng.randint(-9, 9), 7) for _ in range(n)]))
        for col, rhs in cases:
            before = list(col), list(rhs)
            invert_first_column(col, base)
            x, trace = ltt_solve_fast(col, rhs, base, with_trace=True)
            for arg, was in zip((col, rhs), before):
                assert len(arg) == n and all(map(is_, arg, was)), (base, n)
            hats = trace.hat_columns
            assert hats == invert_first_column(col, base)[1].hat_columns, (base, n)
            if col is a:
                assert max_rel_err(hats[0], rotation_hat(trace.column, base)) < 1e-12, (base, n)


def test_invert_trivial_order_one():
    x, trace = invert_first_column([Fraction(4)], 2)
    assert x == [Fraction(1, 4)] and trace.levels == 0


@pytest.mark.parametrize("base", (2, 3, 5))
def test_solve_fast_order_one(base):
    # a complex order-1 solve has no level, and its final product is the
    # order-1 branch of fft.ltt_matvec_fft
    x, trace = ltt_solve_fast([2 + 1j], [3 + 0j], base, with_trace=True)
    want = 3 / (2 + 1j)
    assert len(x) == 1 and abs(x[0] - want) <= 1e-15 * abs(want)
    assert trace.levels == 0 and trace.hat_columns == [] and trace.column == [1 + 0j]
    if base < 5:
        x = ltt_solve_fast([2], [3], base)
        assert x == [Fraction(3, 2)] and type(x[0]) is Fraction
        x = ltt_solve_fast([1], [3], base)
        assert x == [3] and type(x[0]) is int


def test_complexity_growth_bound():
    rng = random.Random(109)
    for base, ks in ((2, range(3, 8)), (3, range(3, 8)), (5, range(2, 6))):
        counts = []
        for k in ks:
            n = base**k
            _, trace = invert_first_column(_cx_column(rng, n), base)
            counts.append(trace.mult_count)
        for prev, nxt in zip(counts, counts[1:]):
            assert nxt <= 2.6 * base * prev


# --------------------------------------------------------------- fast solve


def test_solve_fast_examples():
    ones = [Fraction(1)] * 4
    assert ltt_solve_fast(ones, [Fraction(v) for v in (1, 2, 3, 4)], 2) == ones
    a = [Fraction(v) for v in (1, 2, 3, 4)]
    assert ltt_solve_fast(a, _e1(4), 2) == invert_first_column(a, 2)[0]


def test_solve_fast_matches_oracle_base3():
    rng = random.Random(113)
    n = 81
    a = _rat_column(rng, n, lo=-3, hi=3, den=3)
    f = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
    assert ltt_solve_fast(a, f, 3) == ltt_solve_forward(a, f)


def test_solve_fast_sparse_inverse_splits_final_product():
    # a column zero off the multiples of the base has such an inverse too; the
    # final product runs per residue class and returns the dense product's
    # values and types (int entries until the first Fraction operand entry)
    rng = random.Random(131)
    for base in (2, 3):
        for n in (1, 2, 7, 30):
            a = [1] + [rng.randint(-3, 3) if k % base == 0 else 0 for k in range(1, n)]
            f = [rng.randint(-5, 5) for _ in range(n)]
            inv, trace_inv = invert_first_column(a, base)
            x, trace = ltt_solve_fast(a, f, base, with_trace=True)
            dense = ltt_matvec_naive(inv, f)
            assert x == dense == ltt_solve_forward(a, f)
            assert [type(v) for v in x] == [type(v) for v in dense]
            class_sizes = [len(f[r::base]) for r in range(min(base, n))]
            assert trace.mult_count - trace_inv.mult_count == sum(c * (c + 1) // 2 for c in class_sizes)


def _typed(values):
    return [(type(v), v) for v in values]


def _entry(rng):
    # an int, or about one time in five a Fraction
    return rng.randint(-9, 9) if rng.random() >= 0.2 else Fraction(rng.randint(-9, 9), rng.randint(2, 9))


def _typing_cases(rng, n, base):
    """(column, rhs) pairs: five heads, each with an int tail, a tail of
    about 20% Fractions, and that tail zeroed off the multiples of the base."""
    for head in (1, Fraction(1), -1, 2, Fraction(3, 2)):
        ints = [rng.randint(-9, 9) for _ in range(n - 1)]
        mixed = [_entry(rng) for _ in range(n - 1)]
        sparse = [v if k % base == 0 else 0 for k, v in enumerate(mixed, 1)]
        for tail in (ints, mixed, sparse):
            yield [head] + tail, [_entry(rng) for _ in range(n)]


def _typed_hat_chain(col, base):
    # the solve's levels on ints and Fractions: a skip, or one sparsify_step
    # on the column padded with Fraction zeros
    hats = []
    while len(col) > 1:
        if not any(col[i] for i in range(1, len(col)) if i % base):
            hats.append([col[0]] + [Fraction(0)] * (len(col) - 1))
            col = col[::base]
        else:
            res = sparsify_step(col + [Fraction(0)] * (-len(col) % base), base)
            hats.append(res.hat[: len(col)])
            col = res.next
    return [_typed(h) for h in hats]


def test_fast_solver_matches_forward_values_and_types():
    # the fast solver returns forward substitution's values and types: ints
    # exactly where per-term arithmetic keeps ints, whatever levels it skips;
    # its trace keeps levels as integer numerators, and hat_columns types
    # them as the sparsify_step chain on the normalized column does
    rng = random.Random(7)
    for base in (2, 3):
        for n in range(1, 21):
            e1 = [1] + [0] * (n - 1)
            for a, f in _typing_cases(rng, n, base):
                x, trace = invert_first_column(a, base)
                want = _typed(dense_forward_substitution(a, e1))
                assert _typed(x) == _typed(ltt_solve_forward(a, e1)) == want, (a, base)
                col = a if a[0] == 1 else [Fraction(1)] + [v / Fraction(a[0]) for v in a[1:]]
                assert [_typed(h) for h in trace.hat_columns] == _typed_hat_chain(col, base), (a, base)
                want = _typed(dense_forward_substitution(a, f))
                assert _typed(ltt_solve_fast(a, f, base)) == _typed(ltt_solve_forward(a, f)) == want, (a, f, base)


def test_bernoulli_columns_level_by_level():
    # the benchmark's count-128 typeI columns, each level's companion column
    # against the by-definition sparsify_step chain, values and types; the
    # ramanujan column skips its first level at base 3
    for family, base in (("even", 2), ("odd", 2), ("ramanujan", 3)):
        a = gen_system(family, "typeI", 128, Fraction(1)).a
        assert a[0] == 1
        _, trace = invert_first_column(a, base)
        hats = [_typed(h) for h in trace.hat_columns]
        assert hats == _typed_hat_chain(a, base), family
        assert len(hats) == trace.levels > 0, family
    assert trace.hat_columns[0] == _e1(128)  # the ramanujan column's first level is skipped


def test_solve_fast_trace_includes_final_product():
    a = [Fraction(v) for v in (1, 2, 3, 4)]
    _, trace_inv = invert_first_column(a, 2)
    _, trace_full = ltt_solve_fast(a, _e1(4), 2, with_trace=True)
    assert trace_full.mult_count > trace_inv.mult_count


def test_solve_fast_rejects_non_finite_entries():
    n = 8
    a = [1 + 0j] + [0.5**k + 0j for k in range(1, n)]
    f = [1 + 0j] * n
    bad_col = list(a)
    bad_col[3] = complex(float("nan"), 0.0)
    with pytest.raises(ValueError):
        invert_first_column(bad_col, 2)
    with pytest.raises(ValueError):
        ltt_solve_fast(bad_col, f, 2)
    bad_col[3] = complex(0.0, float("inf"))
    with pytest.raises(ValueError):
        ltt_solve_fast(bad_col, f, 2)
    bad_rhs = list(f)
    bad_rhs[5] = complex(float("-inf"), 0.0)
    with pytest.raises(ValueError):
        ltt_solve_fast(a, bad_rhs, 2)
    # finite entries whose inverse column is out of range: 1e200**2 overflows
    with pytest.raises(OverflowError):
        invert_first_column([1 + 0j, -1e200, 0j, 0j], 2)


def test_solve_fast_refuses_an_overflowing_final_product():
    # the inverse column [1, 1e200] is in range, x = [1e200, 1e400] is not
    with pytest.raises(OverflowError, match="^the final product leaves the double range$"):
        ltt_solve_fast([1, -1e200], [1e200, 0], 2)


def test_solve_fast_final_product_overflows_only_with_x():
    # x = f is in range, but the split product's transforms of f alone would
    # overflow; the operands are scaled by powers of two, and x back
    for base, n in ((2, 4), (3, 9), (5, 25)):
        f = [1e308] * n
        assert max_rel_err(ltt_solve_fast([1] + [0] * (n - 1), f, base), f) < 1e-14, base
    # the scaling is exact: x equals the unscaled solve's to the bit
    rng = random.Random(97)
    a, f = _cx_column(rng, 27), [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(27)]
    x = ltt_solve_fast(a, f, 3)
    for e in (-1000, -3, 5, 900):
        scaled = ltt_solve_fast(a, [v * 2.0**e for v in f], 3)
        assert [v * 2.0**-e for v in scaled] == x, e


def test_overflowing_levels_name_the_level_length():
    # finite entries whose levels leave the double range: at base 2 the second
    # level's column holds an infinite entry, at base 3 rescaling the first
    # level's next column back from its circle overflows
    a = [1 + 0j] + [1e150 + 0j] * 15
    with pytest.raises(OverflowError, match="^infinite entry in the length-8 column of a level$"):
        invert_first_column(a, 2)
    with pytest.raises(OverflowError, match="^rescaling the length-9 column of a level leaves the double range$"):
        invert_first_column(a, 3)


def test_entries_beyond_double_range_raise_value_error():
    # an int or Fraction in a complex solve that no double holds is named at
    # the boundary, not met as an OverflowError inside a level or a conversion
    huge = 10**400
    cases = (
        (lambda: invert_first_column([1, huge, 0.5, 0.25], 2), "column entry at index 1"),
        (lambda: invert_first_column([1, Fraction(huge, 3), 0.5, 0.25], 3), "column entry at index 1"),
        (lambda: ltt_solve_fast([1, huge, 0, 0], [0.5, 0, 0, 0], 2), "column entry at index 1"),
        (lambda: ltt_solve_fast([1, 0, 0, 0], [huge, 0.5, 0, 0], 2), "rhs entry at index 0"),
        (lambda: ltt_solve_fast([1, 0.5, 0, 0], [0, 0, huge, 0], 2), "rhs entry at index 2"),
        (lambda: ltt_solve_fast([1, 0, huge, 0], [0.5, huge, 0, 0], 2), "column entry at index 2"),
    )
    for call, where in cases:
        with pytest.raises(ValueError, match=where):
            call()


def test_complex_solves_check_each_operand_once(monkeypatch):
    # each public entry scans each operand once: the inversion under ltt_solve_fast does not rescan the
    # column. The check is counted wherever it is bound, in scalars or imported into the solver.
    checked = []
    check = scalars._require_finite
    for module in (scalars, solver):
        monkeypatch.setattr(
            module, "_require_finite", lambda values, name: checked.append(name) or check(values, name), raising=False
        )
    ltt_solve_fast([1, 0.5j, 0, 0], [1, 0, 0, 0], 2)
    assert checked == ["column", "rhs"]
    checked.clear()
    invert_first_column([1, 0.5j, 0, 0], 2)
    assert checked == ["column"]


def test_solve_fast_complex_non_power_lengths():
    # padded once to the next power of the base, then truncated
    rng = random.Random(139)
    for base in (2, 3, 5):
        for n in (6, 100, 700):
            a = [1 + 0j] + [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.5**k for k in range(1, n)]
            f = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
            got = ltt_solve_fast(a, f, base)
            assert len(got) == n
            assert max_rel_err(got, ltt_solve_forward(a, f)) < 1e-12, (base, n)


def test_solve_fast_complex_rhs_makes_solve_complex():
    # a rational column with a complex or float right-hand side is solved in the complex field
    a = [1, 2, 3]
    for f in ([1j, 0, 0], [0.5, 0, 0]):
        ref = ltt_solve_forward(a, f)
        for base in (2, 3, 4):
            got = ltt_solve_fast(a, f, base)
            assert all(type(v) is complex for v in got)
            assert max_rel_err(got, ref) < 1e-12, (f, base)
    # an int, Fraction or float operand solves bit for bit as the operand converted by the
    # caller, by either solver, and every entry of x is complex: a complex column with head 1
    # and a rational right-hand side too, where forward substitution kept x_0 rational
    def bits(x):
        assert all(type(v) is complex for v in x)
        return [(v.real.hex(), v.imag.hex()) for v in x]

    rng = random.Random(149)
    for base in (2, 3, 5):
        for n in (base**3, base**3 + 2):
            ints = [3] + [rng.randint(-2, 2) for _ in range(5)] + [0] * (n - 6)
            fracs = [Fraction(1)] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9) * 2**k) for k in range(1, n)]
            cx = _cx_column(rng, n)
            pairs = (
                (ints, _cx_column(rng, n)),
                (fracs, [rng.uniform(-1, 1) for _ in range(n)]),
                (cx, fracs),
                (cx, [rng.randint(-9, 9) for _ in range(n)]),
            )
            for a, f in pairs:
                converted = [complex(v) for v in a], [complex(v) for v in f]
                x, trace = ltt_solve_fast(a, f, base, with_trace=True)
                assert bits(x) == bits(ltt_solve_fast(*converted, base)), (base, n)
                assert all(type(v) is complex for v in trace.column), (base, n)
                assert bits(ltt_solve_forward(a, f)) == bits(ltt_solve_forward(*converted)), (base, n)


def test_solve_fast_complex_full_pipeline():
    rng = random.Random(127)
    n = 64
    a = _cx_column(rng, n, scale=0.25)
    f = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
    got = ltt_solve_fast(a, f, 2)
    ref = ltt_solve_forward(a, f)
    assert max_rel_err(got, ref) < 1e-8
    check = ltt_matvec_naive(a, got)
    assert max_rel_err(check, f) < 1e-8


@pytest.fixture(scope="module")
def bernoulli_512():
    return tangent_bernoulli(512)


# the accurate cells of the paper's typeI systems at count 512, each about 10x
# its error at pinning: even-I at x = 64, ram-I at x = 64 and odd-I at x = 16
# are silently wrong, and odd-I at x >= 39 raises OverflowError
@pytest.mark.parametrize(
    "family, x, base, bound",
    [
        ("even", 1, 2, 2e-15), ("even", 1, 3, 3e-15), ("even", 1, 5, 1.5e-15),
        ("even", 16, 2, 9e-15), ("even", 16, 3, 1.4e-14), ("even", 16, 5, 1.3e-14),
        ("even", 40, 2, 2.3e-9), ("even", 40, 3, 8e-9), ("even", 40, 5, 5e-9),
        ("odd", 1, 2, 1e-15), ("odd", 1, 3, 2.3e-15), ("odd", 1, 5, 1.1e-15),
        ("ramanujan", 1, 2, 4e-16), ("ramanujan", 1, 3, 2.7e-15), ("ramanujan", 1, 5, 1.6e-15),
        ("ramanujan", 16, 2, 1.7e-15), ("ramanujan", 16, 3, 2.7e-15), ("ramanujan", 16, 5, 1.7e-15),
        ("ramanujan", 40, 2, 2e-13), ("ramanujan", 40, 3, 4.6e-13), ("ramanujan", 40, 5, 7e-14),
    ],
)
def test_solve_fast_complex_accuracy_on_bernoulli_systems(family, x, base, bound, bernoulli_512):
    # the system's own right-hand side, in complex; exact y_i = B_2i x**i / (2i)!
    sys_ = gen_system(family, "typeI", 512, Fraction(x))
    y = ltt_solve_fast([complex(v) for v in sys_.a], [complex(v) for v in sys_.rhs()], base)
    exact = [b * Fraction(x) ** i / factorial(2 * i) for i, b in enumerate(bernoulli_512)]
    assert max_rel_err(y, exact) < bound
