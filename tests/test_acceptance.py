"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""

import functools
import random
import time
from fractions import Fraction
from math import factorial, log

from oracles import Eisenstein, dense_toeplitz_matvec, max_rel_err, naive_dft, product_form_hat3

from lttkit.bernoulli import (
    FAMILIES,
    METHODS,
    bernoulli_numbers,
    convert_type,
    gen_system,
    ramanujan_rhs,
    scaling_diag,
    tartaglia_check,
    von_staudt_check,
    zeta_consistency,
)
from lttkit.fft import ToeplitzSpec, dft, idft, plan_for, toeplitz_matvec_embed, toeplitz_matvec_split
from lttkit.opcount import OpCounter
from lttkit.series import ltt_matvec_naive, ltt_solve_forward
from lttkit.solver import invert_first_column, sparsify_hat

GOLDEN = [
    Fraction(1),
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
]


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} {name}: FAIL")
                raise
            print(f"criterion {num:02d} {name}: PASS")

        return wrapper

    return decorate


def _cx(rng, n, scale=1.0):
    return [complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(n)]


@criterion(1, "golden bernoulli values")
def test_golden_bernoulli_all_methods():
    start = time.monotonic()
    for method in METHODS:
        assert bernoulli_numbers(9, method) == GOLDEN, method
    assert time.monotonic() - start < 1.0


@criterion(2, "ramanujan right-hand side")
def test_ramanujan_rhs_list():
    start = time.monotonic()
    expected = [
        Fraction(1, 6),
        Fraction(-1, 30),
        Fraction(1, 42),
        Fraction(1, 45),
        Fraction(-1, 132),
        Fraction(4, 455),
        Fraction(1, 120),
        Fraction(-1, 306),
        Fraction(3, 665),
        Fraction(1, 231),
        Fraction(-1, 552),
    ]
    assert ramanujan_rhs(12) == expected
    assert time.monotonic() - start < 0.1


@criterion(3, "cross-method agreement at count 64")
def test_all_methods_agree_count_64():
    start = time.monotonic()
    reference = bernoulli_numbers(64, METHODS[0])
    assert reference[:9] == GOLDEN
    for method in METHODS[1:]:
        assert bernoulli_numbers(64, method) == reference, method
    assert time.monotonic() - start < 30.0


@criterion(4, "solver equals forward substitution exactly")
def test_solver_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(20120216)
    for base, sizes in ((2, (8, 16, 32, 64, 128, 256)), (3, (9, 27, 81, 243))):
        for n in sizes:
            for rep in range(200):
                if n <= 81 and rep % 25 == 0:
                    a = [Fraction(1)] + [
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 1)
                    ]
                else:
                    # integer-valued rationals keep the 200x per-size sweep fast
                    a = [1] + [rng.randint(-2, 2) for _ in range(n - 1)]
                e1 = [1] + [0] * (n - 1)
                got, _ = invert_first_column(a, base)
                assert got == ltt_solve_forward(a, e1), (base, n, rep)
    assert time.monotonic() - start < 60.0


@criterion(5, "sparsification is exact")
def test_sparsification_exact():
    rng = random.Random(28)
    for base in (2, 3):
        for n in (5, 16, 100, 243):
            a = [Fraction(1)] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 1)]
            w = ltt_matvec_naive(a, sparsify_hat(a, base))
            for i in range(1, n):
                if i % base:
                    assert w[i] == 0, (base, n, i)
    # the integer-coefficient closed form equals the product of rotations,
    # computed exactly in the cube-root field
    for n in (9, 27):
        a = [Fraction(1)] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 1)]
        assert product_form_hat3(a) == [Eisenstein(c) for c in sparsify_hat(a, 3)]
    # base 2: the product form is the single rotation a(-z)
    a = [Fraction(1)] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(30)]
    assert sparsify_hat(a, 2) == [v if i % 2 == 0 else -v for i, v in enumerate(a)]


@criterion(6, "fft against the quadratic transform")
def test_fft_against_naive():
    rng = random.Random(29)
    for base, top in ((2, 1024), (3, 729)):
        n = base
        while n <= top:
            plan = plan_for(n, base)
            z = _cx(rng, n)
            assert max_rel_err(dft(z, plan), naive_dft(z)) < 1e-12, n
            assert max_rel_err(idft(dft(z, plan), plan), z) < 1e-12, n
            n *= base


@criterion(7, "toeplitz procedures against dense products")
def test_toeplitz_procedures():
    rng = random.Random(31)
    cases = [(2, n) for n in (4, 8, 16, 32, 64, 128, 256, 512)] + [(3, n) for n in (9, 27, 81, 243)]
    for base, n in cases:
        diags = _cx(rng, 2 * n - 1)
        v = _cx(rng, n)
        spec = ToeplitzSpec(n, tuple(diags))
        dense = dense_toeplitz_matvec(diags, v)
        embed = toeplitz_matvec_embed(spec, v, base)
        split = toeplitz_matvec_split(spec, v, base)
        assert max_rel_err(embed, dense) < 1e-10, (base, n)
        assert max_rel_err(split, dense) < 1e-10, (base, n)
        assert max_rel_err(embed, split) < 1e-10, (base, n)


@criterion(8, "operation counts scale like n log n")
def test_complexity_shape():
    rng = random.Random(37)
    for base in (2, 3):
        ratios = []
        for k in range(3, 9):
            n = base**k
            a = [1 + 0j] + _cx(rng, n - 1, 0.3)
            _, trace = invert_first_column(a, base)
            ratios.append(trace.mult_count / (n * k))
        assert max(ratios) / min(ratios) < 2.0, (base, ratios)
    for base in (2, 3):
        for k in range(2, 9):
            n = base**k
            ops = OpCounter()
            dft(_cx(rng, n), plan_for(n, base), ops)
            assert ops.mults <= 4 * base * n * log(n) / log(base), (base, n)


@criterion(9, "number-theoretic checks")
def test_number_theory():
    assert all(von_staudt_check(j) for j in range(1, 33))
    b = bernoulli_numbers(33)
    for j in range(1, 33):
        assert (b[j] > 0) == (j % 2 == 1), j
    assert abs(zeta_consistency(8, 1000) - 1) <= 1e-9


@criterion(10, "structural identities")
def test_structural_identities():
    for n in range(1, 13):
        assert tartaglia_check(n), n
    # conjugating the even weighted shift by the scaling diagonal gives x
    # times the plain shift on every truncation
    for x in (Fraction(1), Fraction(7, 3)):
        for n in (2, 7, 12):
            d = scaling_diag(n, x)
            for i in range(1, n):
                assert d[i] * ((2 * i - 1) * (2 * i)) / d[i - 1] == x
    # exact type conversion round trips
    for family in FAMILIES:
        sys1 = gen_system(family, "typeI", 9, Fraction(7, 3))
        assert convert_type(convert_type(sys1, "I_to_II"), "II_to_I") == sys1
        sys2 = gen_system(family, "typeII", 9, Fraction(7, 3))
        assert convert_type(convert_type(sys2, "II_to_I"), "I_to_II") == sys2
    # truncated series identity t/(e^t - 1) + t/2 = sum B_2k t^2k / (2k)!
    m = 16
    terms = 2 * m
    g = [Fraction(1, factorial(k + 1)) for k in range(terms)]
    inv = ltt_solve_forward(g, [Fraction(1)] + [Fraction(0)] * (terms - 1))
    inv[1] += Fraction(1, 2)
    b = bernoulli_numbers(m)
    for k in range(m):
        assert inv[2 * k] == b[k] / factorial(2 * k), k
        if k:
            assert inv[2 * k + 1] == 0, k
