import cmath
import random
import tracemalloc
from fractions import Fraction
from itertools import repeat
from math import log
from operator import add, is_, mul, sub

import pytest

from oracles import (
    dense_circulant_matvec,
    dense_neg_circulant_matvec,
    dense_toeplitz_matvec,
    fsum_dft,
    max_abs_err,
    max_rel_err,
    naive_dft,
    plain_radix2_dft,
)

from lttkit.fft import (
    _BLOCK,
    _CHUNK,
    DftPlan,
    ToeplitzSpec,
    _digit_reversal,
    _embedding_row,
    _map_into,
    circulant_matvec,
    dft,
    idft,
    ltt_matvec_fft,
    neg_circulant_matvec,
    plan_for,
    toeplitz_matvec_embed,
    toeplitz_matvec_naive,
    toeplitz_matvec_split,
)
from lttkit.opcount import OpCounter


def _rand_vec(rng, n, scale=1.0):
    return [complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(n)]


def test_plan_tables():
    plan = DftPlan(4, 2)
    assert list(plan.gather(range(4))) == [0, 2, 1, 3]
    assert list(DftPlan(9, 3).gather(range(9))) == [0, 3, 6, 1, 4, 7, 2, 5, 8]
    for j in range(4):
        assert abs(plan.root_table[j] - cmath.exp(2j * cmath.pi * j / 4)) < 1e-15


@pytest.mark.parametrize("base", [2, 3, 5, 7])
def test_gather_is_the_digit_reversal(base):
    # lengths up to base**2 blocks, so loads of one gather and of strided blocks both run
    n, lengths = 1, []
    while n <= _BLOCK * base * base:
        lengths.append(n)
        n *= base
    assert lengths[0] == 1 and lengths[-1] > _BLOCK
    for n in lengths:
        z = [complex(i, -i) for i in range(n)]
        assert list(DftPlan(n, base).gather(z)) == [z[i] for i in _digit_reversal(n, base)], n


def test_base2_plans_share_the_longest_plans_roots(monkeypatch):
    # built in shuffled order, every base-2 plan reads its roots off the longest one's
    # table, and each root is still its own exp value or mirrored conjugate, bit for bit
    import lttkit.fft as fft

    monkeypatch.setattr(fft, "_PLAN_CACHE", {})
    monkeypatch.setattr(fft, "_BASE2_ROOTS", ())
    lengths = [2**k for k in range(16)]
    random.Random(3).shuffle(lengths)
    assert 0 < lengths.index(2**15) < 15  # shorter plans are built both before and after it
    plans = {n: plan_for(n, 2) for n in lengths}
    longest = plans[2**15].root_table
    for n, plan in plans.items():
        table = plan.root_table
        assert len(table) == n
        assert all(r is longest[j * (2**15 // n)] for j, r in enumerate(table)), n
        assert _bits(table[: n // 2 + 1]) == _bits(cmath.exp(2j * cmath.pi * j / n) for j in range(n // 2 + 1)), n
        assert _bits(table[n - j] for j in range(1, (n + 1) // 2)) == _bits(
            table[j].conjugate() for j in range(1, (n + 1) // 2)
        ), n


def test_complex_solve_plans_bytes_per_entry(monkeypatch):
    # the 32 plans of the benchmark's complex solves, 98,965 entries, built in shuffled
    # order: 29.6 bytes held per entry (61.2 with an index table per plan)
    import lttkit.fft as fft

    monkeypatch.setattr(fft, "_PLAN_CACHE", {})
    monkeypatch.setattr(fft, "_BASE2_ROOTS", ())
    keys = [(base**k, base) for base, top in ((2, 15), (3, 9), (5, 5)) for k in range(top + 1)]
    random.Random(31).shuffle(keys)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for n, base in keys:
            plan_for(n, base)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held / sum(n for n, _ in keys) < 32.5


def test_plan_rejects_mixed_length():
    with pytest.raises(ValueError):
        DftPlan(12, 2)
    with pytest.raises(ValueError):
        DftPlan(10, 3)
    with pytest.raises(ValueError, match="length must be >= 1"):
        plan_for(0, 2)
    with pytest.raises(ValueError, match="length must be >= 1"):
        ltt_matvec_fft([], [], 2)


def test_dft_examples():
    assert max_abs_err(dft([1, 0], plan_for(2, 2)), [1, 1]) < 1e-15
    got = dft([0, 1, 0, 0], plan_for(4, 2))
    assert max_abs_err(got, [1, 1j, -1, -1j]) < 1e-14


def test_dft_matches_naive_oracle():
    rng = random.Random(23)
    for base, sizes in ((2, [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]), (3, [3, 9, 27, 81, 243, 729])):
        for n in sizes:
            z = _rand_vec(rng, n)
            assert max_rel_err(dft(z, plan_for(n, base)), naive_dft(z)) < 1e-12


EVERY_LENGTH = [(2, 10), (3, 6), (4, 4), (5, 4), (6, 3), (7, 3)]


def _bits(v):
    return [(c.real.hex(), c.imag.hex()) for c in v]


@pytest.mark.parametrize("base, top", EVERY_LENGTH)
def test_dft_every_length_matches_naive_oracle(base, top):
    # odd and even radix-2 and radix-3 stage counts; for b >= 4 both the strided
    # (m <= n/L) and the contiguous slices, and at bases 4 and 6 outputs where
    # q*r = 0 mod b
    rng = random.Random(base)
    for k in range(top + 1):
        n = base**k
        z = _rand_vec(rng, n)
        assert max_rel_err(dft(z, plan_for(n, base)), naive_dft(z)) < 1e-13, n


ZEROS = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 0j]


def _planted(rng, n):
    # a random vector with signed zeros in every third entry
    z = _rand_vec(rng, n)
    for i in range(0, n, 3):
        z[i] = ZEROS[i % 4] if i % 2 else complex(z[i].real, -0.0)
    return z


def _zero_imag(rng, n):
    # imaginary parts -0.0; real parts in (0, 1) at even indexes, in (-2, -1)
    # at odd ones. Outputs 0 and n/2 take no twiddle, so their imaginary parts
    # are signed zeros; output 0's real part is negative, so idft's scaling
    # keeps that zero's sign, which a k = 0 entry multiplied by 1+0j flips
    return [complex(-1 - rng.random() if j % 2 else rng.random(), -0.0) for j in range(n)]


def test_base2_dft_equals_plain_butterfly_loops_bit_for_bit():
    # the 0-2 leading strided-slice stages and the radix-2**3 sweeps after them
    # do the plain loops' float operations: same bits in every part, signed
    # zeros included, and the same count. A short input copies the first
    # stage, so its stages start at L = 4 where a full one's start at L = 2:
    # up to 2**13 every number of leading stages runs from both starts. The copy
    # keeps the sign of a zero that the loops' first stage adds to +0.0, so
    # short inputs plant none.
    rng = random.Random(29)
    for k in range(14):
        n = 2**k
        zs = [_planted(rng, n)] + [_rand_vec(rng, length) for length in (n // 2, n // 2 - 1) if length > 0]
        for z in zs + [_zero_imag(rng, n)]:
            ops = OpCounter()
            got = dft(z, plan_for(n, 2), ops)
            want, mults = plain_radix2_dft(z + [0j] * (n - len(z)))
            assert _bits(got) == _bits(want), (n, len(z))
            assert ops.mults == mults, (n, len(z))


def test_base2_idft_equals_conjugated_plain_loops_bit_for_bit():
    # read backwards, the folded table holds the exact conjugates of the forward
    # twiddles, so idft does the conjugated loops' operations on conjugated values
    rng = random.Random(41)
    for k in range(13):
        n = 2**k
        plan = plan_for(n, 2)
        zs = [_planted(rng, n)] + [_rand_vec(rng, length) for length in (n // 2, n // 2 - 1) if length > 0]
        for z in zs + [_zero_imag(rng, n)]:
            want, mults = plain_radix2_dft(z + [0j] * (n - len(z)), inverse=True)
            for keep in sorted({n, max(n // 2, 1), 1}):
                ops = OpCounter()
                assert _bits(idft(z, plan, ops, keep)) == _bits(want[:keep]), (n, len(z), keep)
                assert ops.mults == mults - (n - keep), (n, len(z), keep)
        # where an imaginary part cancels to an exact zero the conjugation flips
        # its sign, -(a + b) = -0.0 against (-a) + (-b) = +0.0; a real input or a
        # single entry does that, and only those zeros' signs differ
        for z in ([rng.uniform(-1, 1) for _ in range(n)], [complex(0.5, -0.0)]):
            want, _ = plain_radix2_dft(z + [0j] * (n - len(z)), inverse=True)
            assert idft(z, plan) == want, (n, len(z))


def test_base3_transforms_equal_the_generic_kernel_bit_for_bit(monkeypatch):
    # _radix3 does _radix_b's float operations at b = 3, so dft and idft give the
    # same bits and counts with _radix_b swapped in behind the same load: full
    # and short inputs, pruned and unpruned last stages, odd and even stage
    # counts, all four signed zeros planted, imaginary parts all -0.0 (whose
    # signs a k = 0 entry multiplied by 1+0j would flip), and int inputs
    import lttkit.fft as fft

    def generic(x, roots, L, pruned):
        return fft._radix_b(x, roots, 3, L, pruned)

    rng = random.Random(47)
    for k in range(10):
        n = 3**k
        plan = plan_for(n, 3)
        zs = [[rng.randint(-3, 3) for _ in range(n)], _zero_imag(rng, n)]
        for length in sorted({n, n // 3, n // 3 - 1, n // 9, 1} - {0, -1}):
            z = _rand_vec(rng, length)
            for j in range(0, length, 5):
                z[j] = ZEROS[j // 5 % 4]
            zs.append(z)
        keeps = sorted({n, n // 3, n // 3 - 1, 1} - {0, -1})
        for j, z in enumerate(zs):
            # each input with every keep up to 3**7; above, with one keep in turn,
            # the int input with keep = n and the full random one with n/3 - 1
            for keep in keeps if k < 8 else [keeps[-1 - j % len(keeps)]]:
                for transform in (dft, idft):
                    ops, want_ops = OpCounter(), OpCounter()
                    got = transform(z, plan, ops, keep)
                    monkeypatch.setattr(fft, "_radix3", generic)
                    want = transform(z, plan, want_ops, keep)
                    monkeypatch.undo()
                    assert _bits(got) == _bits(want), (transform.__name__, n, len(z), keep)
                    assert ops.mults == want_ops.mults, (transform.__name__, n, len(z), keep)


@pytest.mark.parametrize("base", [2, 3, 4, 5, 6, 7])
def test_root_table_is_folded_at_pi(base):
    # entries up to pi are cmath.exp of their angle, those past pi the exact
    # conjugates of the entries below pi, which err less
    for k in range(5 if base < 6 else 4):
        n = base**k
        table = DftPlan(n, base).root_table
        assert len(table) == n
        assert _bits(table[: n // 2 + 1]) == _bits([cmath.exp(2j * cmath.pi * j / n) for j in range(n // 2 + 1)]), n
        assert _bits(table[n - j] for j in range(1, (n + 1) // 2)) == _bits(
            table[j].conjugate() for j in range(1, (n + 1) // 2)
        ), n


@pytest.mark.parametrize("base, top", EVERY_LENGTH)
def test_short_input_equals_zero_padded(base, top):
    # a vector of length <= n/base copies the first stage; == treats -0.0 as 0.0,
    # so this is exact equality except for the signs of zeros
    rng = random.Random(base + 10)
    for k in range(1, top + 1):
        n = base**k
        plan = plan_for(n, base)
        for length in sorted({1, n // base - 1, n // base, n // base + 1} - {n}):
            z = _rand_vec(rng, length)
            padded = z + [0j] * (n - length)
            for transform in (dft, idft):
                assert transform(z, plan) == transform(padded, plan), (transform.__name__, n, length)
                assert transform(z, plan, keep=1) == transform(padded, plan)[:1], (n, length)


@pytest.mark.parametrize("base, top", EVERY_LENGTH)
def test_keep_returns_the_leading_outputs_bit_for_bit(base, top):
    rng = random.Random(base + 20)
    for k in range(1, top + 1):
        n = base**k
        plan = plan_for(n, base)
        z = _rand_vec(rng, n)
        for transform in (dft, idft):
            full_ops = OpCounter()
            full = transform(z, plan, full_ops)
            for keep in (1, n // base, n):
                ops = OpCounter()
                assert _bits(transform(z, plan, ops, keep)) == _bits(full[:keep]), (n, keep)
                assert ops.mults <= full_ops.mults
                if base == 2:
                    # both halves of a radix-2 block share each twiddled product;
                    # idft also scales only the outputs it keeps
                    unscaled = n - keep if transform is idft else 0
                    assert ops.mults + unscaled == full_ops.mults, (n, keep)


@pytest.mark.parametrize("n", [2**12, 2**13, 2**14])
def test_kept_base2_transform_peaks_no_higher_than_the_full_one(n, traced_peak):
    # 2**12, 2**13 and 2**14 run 0, 1 and 2 strided-slice stages before their
    # radix-2**3 sweeps, which work in place
    plan = plan_for(n, 2)
    z = _rand_vec(random.Random(n), n)
    peaks = [traced_peak(lambda: dft(z, plan, keep=keep)) for keep in (None, n // 2)]
    assert peaks[1] <= 1.05 * peaks[0], peaks


def test_pruned_transforms_count_less():
    # the first stage of a short input and the unread blocks of the last stage
    # cost nothing; at base 2 those stages have no multiplications to save
    for n, base in ((27, 3), (125, 5), (49, 7)):
        plan = plan_for(n, base)
        counts = []
        for z, keep in (([1j] * n, n), ([1j] * (n // base), n), ([1j] * n, n // base)):
            ops = OpCounter()
            dft(z, plan, ops, keep)
            counts.append(ops.mults)
        assert counts[1] < counts[0] and counts[2] < counts[0], (n, counts)


def test_short_input_and_keep_validation():
    plan = plan_for(8, 2)
    for transform in (dft, idft):
        with pytest.raises(ValueError):
            transform([1j] * 9, plan)
        for keep in (0, -1, 9):
            with pytest.raises(ValueError):
                transform([1j] * 8, plan, keep=keep)


@pytest.mark.parametrize("base", [2, 3, 5])
def test_length_one_plans(base):
    # a gather of one index must still give a sequence
    plan = plan_for(1, base)
    assert dft([3 - 2j], plan) == [3 - 2j]
    assert dft((7,), plan, keep=1) == [7 + 0j]
    assert dft([], plan) == [0j]
    assert idft([4j], plan, keep=1) == [4j]


def test_idft_calls_module_dft_once_per_transform(monkeypatch):
    # perfbench counts inverse transforms through the fft.dft attribute
    import lttkit.fft as fft

    calls = []
    real = fft.dft

    def counting(*args, **kw):
        calls.append(args[1].n)
        return real(*args, **kw)

    monkeypatch.setattr(fft, "dft", counting)
    for n, base, keep in ((8, 2, None), (27, 3, 9), (25, 5, 1), (1, 2, None)):
        fft.idft([1j] * n, plan_for(n, base), keep=keep)
    assert calls == [8, 27, 25, 1]


def test_cached_plans_do_not_need_the_plan_class(monkeypatch):
    # perfbench's --trace replaces fft.DftPlan with a counting function; on
    # cached plans no transform, product or solve may call it or need the class
    import lttkit.fft as fft
    from lttkit.solver import ltt_solve_fast

    rng = random.Random(43)
    a = [1 + 0j] + [c * 2.0**-k for k, c in enumerate(_rand_vec(rng, 63), 1)]
    f = _rand_vec(rng, 64)

    def run():
        return [
            fft.idft(f, plan_for(64, 2)),
            fft.idft(f[:27], plan_for(27, 3), keep=9),
            fft.circulant_matvec(f[:32], f[32:], 2),
            ltt_solve_fast(a, f, 2),
        ]

    first = run()
    calls = []
    real = fft.DftPlan

    def counting(*args, **kw):
        calls.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(fft, "DftPlan", counting)
    assert run() == first
    assert calls == []


def _pair_saving(n, base):
    """Multiplications the conjugate-pair butterfly saves on one full length-n transform.

    Forming each output as its own sum multiplies once per q, r in 1..b-1
    with q*r != 0 mod b at every butterfly position; pairing r with b-r
    multiplies 2*h*h times, h = (b-1)//2. A transform of n = b**k has k
    stages of n/b positions. Base 2 keeps its per-element loops.
    """
    if base == 2:
        return 0
    k = 0
    while base**k < n:
        k += 1
    per_output = sum(q * r % base != 0 for q in range(1, base) for r in range(1, base))
    h = (base - 1) // 2
    return (per_output - 2 * h * h) * (n // base) * k


# Counts of the per-element butterfly loops the kernels replaced. Base 2
# still takes them to the bit; at base b >= 3 a block of length L = b*m
# takes (b-1)(m-1) twiddles plus 2*h*h*m, which is _pair_saving fewer.
# 243 runs base 3's single leading stage before its sweeps, 729 sweeps only.
@pytest.mark.parametrize(
    "n, base, mults",
    [
        (1, 2, 0),
        (2, 2, 0),
        (8, 2, 5),
        (64, 2, 129),
        (2048, 2, 9217),
        (3, 3, 4),
        (81, 3, 568),
        (243, 3, 2188),
        (729, 3, 8020),
        (4, 4, 8),
        (64, 4, 465),
        (5, 5, 16),
        (125, 5, 1376),
        (36, 6, 277),
        (216, 6, 2593),
        (49, 7, 540),
    ],
)
def test_dft_op_count_pins(n, base, mults):
    ops = OpCounter()
    dft([1j] * n, plan_for(n, base), ops)
    assert ops.mults == mults - _pair_saving(n, base)


def test_generic_radix_matches_naive_oracle():
    rng = random.Random(29)
    for base, n in ((4, 64), (5, 125), (6, 36)):
        z = _rand_vec(rng, n)
        assert max_rel_err(dft(z, plan_for(n, base)), naive_dft(z)) < 1e-12


def test_radix_b_accuracy_against_compensated_sum():
    # fsum_dft errs about 1.4e-16 at these lengths (against a 120-bit sum);
    # naive_dft errs 1.6e-15 and could not see these figures. Measured at this
    # seed: base 3 5.2e-16 (n = 729) and 6.9e-16 (n = 2187), base 5 3.4e-16,
    # base 6 4.8e-16; the bounds are about 1.3 times those. A root table
    # computed past pi instead of folded there gave 9.5e-16, 1.1e-15, 3.7e-16
    # and 5.9e-16, and the per-output butterfly 1.56e-15 (base 3, n = 729)
    # and 6.2e-16 (base 5).
    rng = random.Random(59)
    for base, n, bound in ((3, 729, 6.8e-16), (5, 625, 4.5e-16), (3, 2187, 9.0e-16), (6, 1296, 6.2e-16)):
        z = _rand_vec(rng, n)
        assert max_rel_err(dft(z, plan_for(n, base)), fsum_dft(z)) < bound, base


def test_idft_examples():
    assert max_abs_err(idft(dft([1, 2, 3, 4], plan_for(4, 2)), plan_for(4, 2)), [1, 2, 3, 4]) < 1e-12
    assert max_abs_err(idft([1, 1], plan_for(2, 2)), [1, 0]) < 1e-15
    assert max_abs_err(idft([3, 0, 0], plan_for(3, 3)), [1, 1, 1]) < 1e-15


def test_idft_round_trip():
    rng = random.Random(31)
    cases = (
        (2, [8, 16, 32, 64, 1024]), (3, [9, 27, 243, 729]), (4, [16, 64, 1024]), (5, [25, 125, 625]),
        (6, [36, 1296]), (7, [49, 2401]),
    )
    for base, sizes in cases:
        for n in sizes:
            z = _rand_vec(rng, n)
            plan = plan_for(n, base)
            assert max_rel_err(idft(dft(z, plan), plan), z) < 1e-13, n


def test_dft_multiplication_count_bound():
    rng = random.Random(37)
    for base in (2, 3):
        for k in range(2, 9):
            n = base**k
            ops = OpCounter()
            dft(_rand_vec(rng, n), plan_for(n, base), ops)
            assert ops.mults <= 4 * base * n * (log(n) / log(base))


def test_circulant_identity():
    v = [1 + 2j, 3j, -1 + 0j, 4 + 0j]
    assert max_abs_err(circulant_matvec([1, 0, 0, 0], v, 2), v) < 1e-14


def test_circulant_cyclic_shift():
    got = circulant_matvec([0, 1, 0, 0], [1, 2, 3, 4], 2)
    assert max_abs_err(got, [2, 3, 4, 1]) < 1e-13


def test_circulant_matches_dense():
    rng = random.Random(41)
    for n, base in ((8, 2), (27, 3)):
        a = _rand_vec(rng, n)
        v = _rand_vec(rng, n)
        assert max_rel_err(circulant_matvec(a, v, base), dense_circulant_matvec(a, v)) < 1e-10


def test_neg_circulant_identity():
    v = [2 + 1j, -3 + 0j]
    assert max_abs_err(neg_circulant_matvec([1, 0], v, 2), v) < 1e-14


def test_neg_circulant_two_by_two():
    x, y = 3 + 1j, -2 + 5j
    got = neg_circulant_matvec([0, 1], [x, y], 2)
    assert max_abs_err(got, [y, -x]) < 1e-14


def test_neg_circulant_matches_dense():
    rng = random.Random(43)
    for n, base in ((8, 2), (9, 3)):
        a = _rand_vec(rng, n)
        v = _rand_vec(rng, n)
        got = neg_circulant_matvec(a, v, base)
        assert max_rel_err(got, dense_neg_circulant_matvec(a, v)) < 1e-10


@pytest.mark.parametrize("n, base", [(2**14, 2), (3**8, 3)])
def test_neg_circulant_large_order_accuracy(n, base):
    # C_-(e_k) v is v shifted up by k with the wrapped entries negated, exactly.
    # Building rho**j by repeated multiplication drifted by 6.5e-13 at 2**14
    # and put 1.8e-12 (2**14) and 2.2e-13 (3**8) into this product.
    rng = random.Random(n)
    v = _rand_vec(rng, n)
    for k in (1, n // 3, n - 1):
        row = [0j] * n
        row[k] = 1 + 0j
        want = [v[i + k] if i + k < n else -v[i + k - n] for i in range(n)]
        assert max_abs_err(neg_circulant_matvec(row, v, base), want) < 2e-14, (n, k)


# per-element butterfly counts; the products run three and six full transforms
@pytest.mark.parametrize(
    "n, base, neg_mults, split_mults", [(8, 2, 59, 90), (27, 3, 556, 1018), (25, 5, 665, 1243)]
)
def test_neg_circulant_and_split_op_counts(n, base, neg_mults, split_mults):
    rng = random.Random(n)
    v = _rand_vec(rng, n)
    ops = OpCounter()
    neg_circulant_matvec(_rand_vec(rng, n), v, base, ops)
    assert ops.mults == neg_mults - 3 * _pair_saving(n, base)
    ops = OpCounter()
    toeplitz_matvec_split(ToeplitzSpec(n, tuple(_rand_vec(rng, 2 * n - 1))), v, base, ops)
    assert ops.mults == split_mults - 6 * _pair_saving(n, base)


def test_toeplitz_spec_validation():
    with pytest.raises(ValueError):
        ToeplitzSpec(4, (1, 2, 3))
    with pytest.raises(ValueError, match="order must be >= 1"):
        ToeplitzSpec(0, ())
    spec = ToeplitzSpec(2, (5, 1, 7))
    assert [spec.diags[spec.n - 1 + k] for k in (-1, 0, 1)] == [5, 1, 7]
    # an order-2 matrix stores no diagonal t_2 or t_{-2}
    assert len(spec.diags) == 2 * spec.n - 1 == 3


def test_embedding_row_layout():
    # order 4 into an 8-circulant: [t0, t-1, t-2, t-3, 0, t3, t2, t1]
    spec = ToeplitzSpec(4, (-3, -2, -1, 5, 1, 2, 3))  # t_0 = 5, t_k = k otherwise
    assert _embedding_row(spec, 2) == [5, -1, -2, -3, 0, 3, 2, 1]
    assert _embedding_row(spec, 3) == [5, -1, -2, -3, 0, 0, 0, 0, 0, 3, 2, 1]


def test_embed_lower_triangular_first_column():
    spec = ToeplitzSpec.from_lower_column([1, 2, 3, 4])
    got = toeplitz_matvec_embed(spec, [1, 0, 0, 0], 2)
    assert max_abs_err(got, [1, 2, 3, 4]) < 1e-13


def test_embed_matches_dense():
    rng = random.Random(47)
    for n, base in ((8, 2), (9, 3), (16, 4)):
        diags = _rand_vec(rng, 2 * n - 1)
        v = _rand_vec(rng, n)
        got = toeplitz_matvec_embed(ToeplitzSpec(n, tuple(diags)), v, base)
        assert max_rel_err(got, dense_toeplitz_matvec(diags, v)) < 1e-12


def test_split_two_by_two_example():
    # t0=1, t1=2, t-1=3: splits into rows [1/2, 5/2] and [1/2, 1/2]
    spec = ToeplitzSpec(2, (3, 1, 2))
    d, n = spec.diags, spec.n  # t_k is d[n - 1 + k]
    rows = [(complex(d[n - 1 - i]) + (complex(d[n - 1 + 2 - i]) if i else 0)) / 2 for i in range(2)]
    rows_neg = [(complex(d[n - 1 - i]) - (complex(d[n - 1 + 2 - i]) if i else 0)) / 2 for i in range(2)]
    assert rows == [0.5 + 0j, 2.5 + 0j]
    assert rows_neg == [0.5 + 0j, 0.5 + 0j]
    v = [1, 0]
    recombined = [
        p + q
        for p, q in zip(circulant_matvec(rows, v, 2), neg_circulant_matvec(rows_neg, v, 2))
    ]
    got = toeplitz_matvec_split(spec, v, 2)
    assert max_abs_err(got, [1, 2]) < 1e-13
    assert max_abs_err(got, recombined) < 1e-13


def test_split_identity():
    spec = ToeplitzSpec(4, (0, 0, 0, 1, 0, 0, 0))
    v = [1 + 1j, 2 + 0j, -3 + 0j, 0.5 + 0j]
    assert max_abs_err(toeplitz_matvec_split(spec, v, 2), v) < 1e-13


def test_split_matches_dense_and_embed():
    rng = random.Random(53)
    for n, base in ((8, 2), (27, 3)):
        diags = _rand_vec(rng, 2 * n - 1)
        v = _rand_vec(rng, n)
        spec = ToeplitzSpec(n, tuple(diags))
        dense = dense_toeplitz_matvec(diags, v)
        split = toeplitz_matvec_split(spec, v, base)
        embed = toeplitz_matvec_embed(spec, v, base)
        assert max_rel_err(split, dense) < 1e-12
        assert max_rel_err(embed, split) < 1e-12


def test_toeplitz_naive_is_exact_reference():
    from fractions import Fraction

    diags = [Fraction(k, 3) for k in range(-2, 3)]
    v = [Fraction(1), Fraction(-2), Fraction(5)]
    assert toeplitz_matvec_naive(ToeplitzSpec(3, tuple(diags)), v) == dense_toeplitz_matvec(diags, v)


def test_ltt_matvec_fft_matches_naive():
    rng = random.Random(59)
    from lttkit.series import ltt_matvec_naive

    for n, base in ((16, 2), (27, 3), (1024, 2), (729, 3), (625, 5), (49, 7), (343, 7)):
        a = [1 + 0j] + _rand_vec(rng, n - 1, 0.5)
        v = _rand_vec(rng, n)
        assert max_rel_err(ltt_matvec_fft(a, v, base), ltt_matvec_naive(a, v)) < 1e-12, (n, base)


def test_ltt_matvec_fft_stays_at_length_n():
    # the split's six length-n transforms undercut the embedding's three of length base*n
    rng = random.Random(61)
    a = _rand_vec(rng, 625)
    v = _rand_vec(rng, 625)
    fft_ops, embed_ops = OpCounter(), OpCounter()
    ltt_matvec_fft(a, v, 5, fft_ops)
    toeplitz_matvec_embed(ToeplitzSpec.from_lower_column(a), v, 5, embed_ops)
    assert fft_ops.mults < embed_ops.mults


def test_ltt_matvec_fft_equals_the_split_of_its_spec_bit_for_bit():
    # the rows built from the column keep the split's additions with zero
    # diagonals, so the signs of zeros agree too; at n = 2 a column of signed
    # zeros against v = [-1+1j, -1+1j] shows the sign of a zero row entry
    rng = random.Random(67)
    cases = [(2, [p, q], [-1 + 1j, -1 + 1j]) for p in ZEROS for q in ZEROS]
    for base, n in ((2, 64), (3, 81), (5, 125)):
        ints = [rng.randint(-9, 9) for _ in range(n)]
        cases += [(base, _planted(rng, n), _planted(rng, n)), (base, ints, _planted(rng, n)), (base, ints, ints[::-1])]
    for base, a, v in cases:
        ops, split_ops = OpCounter(), OpCounter()
        got = ltt_matvec_fft(a, v, base, ops)
        want = toeplitz_matvec_split(ToeplitzSpec.from_lower_column(a), v, base, split_ops)
        assert _bits(got) == _bits(want), (base, a, v)
        assert ops.mults == split_ops.mults, (base, len(a))


@pytest.mark.parametrize("product, bound", [("split", 167), ("embed", 219), ("ltt", 167)])
def test_product_peak_memory_per_unknown(product, bound, traced_peak):
    # traced bytes per unknown of one base-2 product at n = 4096, plans built
    # first: about 152, 199 and 152, bounds 10% above, while every transform
    # owns its input and pointwise passes run in place (245, 241 and 245 while
    # the callers held their transforms' inputs and idft scaled into a new list;
    # 285 while the (-1)-circulant held its scaled row through the circulant
    # product, 325 while the circulant products held their first rows)
    n = 4096
    rng = random.Random(71)
    spec = ToeplitzSpec(n, tuple(_rand_vec(rng, 2 * n - 1)))
    a, v = _rand_vec(rng, n), _rand_vec(rng, n)
    call = {
        "split": lambda: toeplitz_matvec_split(spec, v, 2, OpCounter()),
        "embed": lambda: toeplitz_matvec_embed(spec, v, 2, OpCounter()),
        "ltt": lambda: ltt_matvec_fft(a, v, 2, OpCounter()),
    }[product]
    call()
    assert traced_peak(call) / n < bound


def test_embed_rejects_non_power():
    spec = ToeplitzSpec(6, tuple([0.0] * 11))
    with pytest.raises(ValueError):
        toeplitz_matvec_embed(spec, [0.0] * 6, 2)


def test_products_reject_length_mismatch():
    # every product checks the vector's length before any transform
    row, v = [1j] * 4, [1j] * 2
    spec = ToeplitzSpec(4, tuple([1j] * 7))
    for call, match in (
        (lambda: circulant_matvec(row, v, 2), "row 4, vector 2"),
        (lambda: neg_circulant_matvec(row, v, 2), "row 4, vector 2"),
        (lambda: toeplitz_matvec_embed(spec, v, 2), "matrix 4, vector 2"),
        (lambda: toeplitz_matvec_split(spec, v, 2), "matrix 4, vector 2"),
        (lambda: toeplitz_matvec_naive(spec, v), "matrix 4, vector 2"),
        (lambda: ltt_matvec_fft(row, v, 2), "column 4, vector 2"),
    ):
        with pytest.raises(ValueError, match=f"length mismatch: {match}"):
            call()


def test_toeplitz_products_refuse_entries_beyond_double_range():
    # as the complex solves do, an entry no double holds is named before any transform,
    # the matrix's before the vector's; the naive product checks only when it runs in complex
    huge = 10**400
    for product in (
        toeplitz_matvec_naive,
        lambda spec, v: toeplitz_matvec_embed(spec, v, 2),
        lambda spec, v: toeplitz_matvec_split(spec, v, 2),
    ):
        with pytest.raises(ValueError, match="^vector entry at index 1 is not a finite double"):
            product(ToeplitzSpec(2, (0, 1, 0.5j)), [1, huge])
        with pytest.raises(ValueError, match="^matrix entry at index 2 is not a finite double"):
            product(ToeplitzSpec(2, (0, 1, Fraction(huge, 3))), [1j, float("nan")])
        # past 4300 digits, where Python refuses an int's repr
        with pytest.raises(ValueError, match="^matrix entry at index 2 is not a finite double: int between 2"):
            product(ToeplitzSpec(2, (0, 1, 10**5000)), [1j, 1])
    assert toeplitz_matvec_naive(ToeplitzSpec(2, (0, 1, huge)), [1, 1]) == [1, huge + 1]


def test_products_take_the_base_they_run_at():
    # no base is inferred: a missing base is a TypeError, and a length that is
    # not a power of the given base (a prime here) is refused before any transform
    v = [1.0] * 4
    spec = ToeplitzSpec(4, tuple([1.0] * 7))
    for call in (
        lambda: circulant_matvec(v, v),
        lambda: neg_circulant_matvec(v, v),
        lambda: toeplitz_matvec_split(spec, v),
        lambda: ltt_matvec_fft(v, v),
    ):
        with pytest.raises(TypeError):
            call()
    n = 1009
    v = [1.0] * n
    spec = ToeplitzSpec(n, tuple([1.0] * (2 * n - 1)))
    for call in (
        lambda: circulant_matvec(v, v, 2),
        lambda: neg_circulant_matvec(v, v, 2),
        lambda: toeplitz_matvec_split(spec, v, 2),
        lambda: toeplitz_matvec_embed(spec, v, 2),
        lambda: ltt_matvec_fft(v, v, 2),
    ):
        with pytest.raises(ValueError, match="length 1009 is not a power of base 2"):
            call()
    # and before any entry: one that no double holds is not what the Toeplitz products name
    huge = 10**400
    for base in (2, 5):
        for spec, v in (
            (ToeplitzSpec(9, (huge, *[1j] * 16)), [1.0] * 9),
            (ToeplitzSpec(9, (1j,) * 17), [1.0] * 8 + [huge]),
        ):
            for product in (toeplitz_matvec_embed, toeplitz_matvec_split):
                with pytest.raises(ValueError, match=f"^length 9 is not a power of base {base}$"):
                    product(spec, v, base)
    # length 1 has no transform to refuse the base, so each product checks it
    spec = ToeplitzSpec(1, (2,))
    for base in (0, 1):
        for call in (
            lambda: circulant_matvec([2], [3], base),
            lambda: neg_circulant_matvec([2], [3], base),
            lambda: toeplitz_matvec_split(spec, [3], base),
            lambda: toeplitz_matvec_embed(spec, [3], base),
            lambda: ltt_matvec_fft([2], [3], base),
        ):
            with pytest.raises(ValueError, match="base must be >= 2"):
                call()


def test_map_into_equals_list_map_bit_for_bit():
    # the in-place pass writes the values list(map(...)) builds, at lengths around
    # the chunk edges, for a list operand and for a repeated complex or float one
    rng = random.Random(73)
    for n in (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5):
        a, b = _rand_vec(rng, n), _rand_vec(rng, n)
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        right = list(b)
        for op in (mul, add, sub):
            for ys in (lambda: b, lambda: repeat(c), lambda: repeat(1.0 / 3)):
                want = list(map(op, a, ys()))
                x = list(a)
                assert _map_into(op, x, ys()) is x
                assert _bits(x) == _bits(want), (n, op)
        assert len(b) == n and all(map(is_, b, right))  # the right operand is only read


@pytest.mark.parametrize("base, n", [(2, 512), (3, 729), (5, 625)])
def test_public_functions_leave_their_inputs_unchanged(base, n):
    # internal calls hand their temporaries to the transforms, which drop them once
    # loaded; a caller's list keeps every entry, object for object, and its length
    rng = random.Random(n)
    plan = plan_for(n, base)
    z, a, v = _rand_vec(rng, n), _rand_vec(rng, n), _rand_vec(rng, n)
    short = z[: n // base]
    spec = ToeplitzSpec(n, tuple(_rand_vec(rng, 2 * n - 1)))
    for label, call, args in (
        ("dft", lambda: dft(z, plan, OpCounter()), (z,)),
        ("dft short", lambda: dft(short, plan), (short,)),
        ("dft kept", lambda: dft(z, plan, keep=n // base), (z,)),
        ("idft", lambda: idft(z, plan, OpCounter()), (z,)),
        ("idft short", lambda: idft(short, plan), (short,)),
        ("idft kept", lambda: idft(z, plan, keep=n // base), (z,)),
        ("circulant", lambda: circulant_matvec(a, v, base, OpCounter()), (a, v)),
        ("neg circulant", lambda: neg_circulant_matvec(a, v, base, OpCounter()), (a, v)),
        ("embed", lambda: toeplitz_matvec_embed(spec, v, base, OpCounter()), (v,)),
        ("split", lambda: toeplitz_matvec_split(spec, v, base, OpCounter()), (v,)),
        ("ltt", lambda: ltt_matvec_fft(a, v, base, OpCounter()), (a, v)),
    ):
        before = [list(arg) for arg in args]
        call()
        for arg, was in zip(args, before):
            assert len(arg) == len(was) and all(map(is_, arg, was)), label
