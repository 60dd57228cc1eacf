import math
from dataclasses import replace
from fractions import Fraction
from math import comb, factorial

import pytest
from oracles import tangent_bernoulli

from lttkit import bernoulli
from lttkit.bernoulli import (
    FAMILIES,
    METHODS,
    ConversionError,
    bernoulli_numbers,
    binomial_system,
    convert_type,
    gen_system,
    ramanujan_rhs,
    scaling_diag,
    tartaglia_check,
    von_staudt_check,
    zeta_consistency,
)
from lttkit.series import ltt_matvec_naive, ltt_solve_forward
from lttkit.solver import invert_first_column, ltt_solve_fast

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


# --------------------------------------------------------------- generators


def test_gen_even_values():
    sys_ = gen_system("even", "typeI", 4, Fraction(1))
    assert sys_.a == [1, Fraction(2, 24), Fraction(2, 720), Fraction(2, 40320)]
    assert sys_.q == [1, Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)]
    sys2 = gen_system("even", "typeII", 3, Fraction(1))
    assert sys2.zscale[0] == Fraction(1, 2)


def test_gen_ramanujan_values():
    sys_ = gen_system("ramanujan", "typeI", 5, Fraction(1))
    assert sys_.a[0] == 1
    assert sys_.a[1] == 0 and sys_.a[2] == 0 and sys_.a[4] == 0
    assert sys_.a[3] == Fraction(2, factorial(8) * 3)
    assert sys_.q[0] == 1
    assert sys_.q[1] == Fraction(1, 6)
    assert sys_.q[2] == Fraction(-1, 30)


def test_gen_ramanujan_zscale():
    sys_ = gen_system("ramanujan", "typeII", 5, Fraction(1))
    # zscale holds z_1, z_2, ...; z_3 = 1 - 1/3
    assert sys_.zscale[2] == Fraction(2, 3)
    assert sys_.zscale[0] == 1 and sys_.zscale[1] == 1


def _a_by_definition(family, i, x):
    if family == "even":
        return 2 * x**i / Fraction(factorial(2 * i + 2))
    if family == "odd":
        return x**i / Fraction(factorial(2 * i + 1))
    if i % 3:
        return Fraction(0)
    return 2 * x**i / Fraction(factorial(2 * i + 2) * (2 * i // 3 + 1))


def test_gen_column_matches_per_entry_definition():
    # the running product equals each entry built from scratch, values and types
    for family in FAMILIES:
        for x in (Fraction(1), Fraction(3, 2), Fraction(-2)):
            want = [_a_by_definition(family, i, x) for i in range(200)]
            for n in range(1, 201):
                a = gen_system(family, "typeI", n, x).a
                assert a == want[:n] and all(type(v) is Fraction for v in a), (family, x, n)


def test_gen_rejects_zero_x():
    with pytest.raises(ValueError):
        gen_system("even", "typeI", 4, Fraction(0))


def test_ramanujan_sparsity_pattern():
    for n in (5, 9, 30):
        sys_ = gen_system("ramanujan", "typeI", n, Fraction(1))
        nonzero = [i for i, v in enumerate(sys_.a) if v]
        assert nonzero == [i for i in range(n) if i % 3 == 0]
        assert len(nonzero) == -(-n // 3)


def test_unit_leading_coefficient_all_families():
    for family in FAMILIES:
        for kind in ("typeI", "typeII"):
            sys_ = gen_system(family, kind, 6, Fraction(7, 3))
            assert sys_.a[0] == 1
            if kind == "typeII":
                assert all(z != 0 for z in sys_.zscale)


def test_type_residuals_exact():
    # type I: L(a) (D x b) = D x q; type II: the shifted, z-scaled version
    n = 48
    b = bernoulli_numbers(n + 1)
    for family in FAMILIES:
        for x in (Fraction(1), Fraction(7, 3)):
            sys1 = gen_system(family, "typeI", n, x)
            scaled = [b[i] * x**i / factorial(2 * i) for i in range(n)]
            assert ltt_matvec_naive(sys1.a, scaled) == sys1.rhs()
            sys2 = gen_system(family, "typeII", n, x)
            shifted = [b[i + 1] * x ** (i + 1) / factorial(2 * i + 2) for i in range(n)]
            assert ltt_matvec_naive(sys2.a, shifted) == sys2.rhs()


# ------------------------------------------------------------------ scaling


def test_scaling_diag_examples():
    assert scaling_diag(3, Fraction(1)) == [1, Fraction(1, 2), Fraction(1, 24)]
    assert scaling_diag(2, Fraction(4)) == [1, 2]
    # the running product gives the closed form x**i / (2i)! as Fractions
    for x in (Fraction(1), Fraction(7, 3), Fraction(-3, 7)):
        d = scaling_diag(129, x)
        assert d == [x**i / factorial(2 * i) for i in range(129)] and all(type(v) is Fraction for v in d)


def test_scaling_conjugates_weighted_shift():
    # diag(d) phi diag(d)^-1 has constant subdiagonal x
    for x in (Fraction(1), Fraction(7, 3)):
        for n in (4, 12):
            d = scaling_diag(n, x)
            for i in range(1, n):
                phi = Fraction((2 * i - 1) * (2 * i))
                assert d[i] * phi / d[i - 1] == x


# ----------------------------------------------------------------- binomial


def test_binomial_even_small():
    bs = binomial_system("even", 2)
    assert bs.rows == [[1], [1, 6]]
    assert bs.rhs == [1, 2]
    assert bernoulli_numbers(2, "binom-even") == [1, Fraction(1, 6)]


def test_binomial_odd_small():
    bs = binomial_system("odd", 2)
    assert bs.rows == [[1], [1, 3]]
    assert bs.rhs == [1, Fraction(3, 2)]
    assert bernoulli_numbers(2, "binom-odd") == [1, Fraction(1, 6)]


def test_binomial_rows_are_binomials():
    # the rows come from Pascal's rule in ints and are returned as Fractions
    for n in range(1, 65):
        for parity, top in (("even", 0), ("odd", 1)):
            bs = binomial_system(parity, n)
            for j in range(1, n + 1):
                assert bs.rows[j - 1] == [comb(2 * j - top, 2 * k) for k in range(j)], (parity, n, j)
            assert all(type(c) is Fraction for row in bs.rows for c in row), (parity, n)
            assert all(type(v) is Fraction for v in bs.rhs), (parity, n)


@pytest.mark.parametrize("n", [1, 4, 6, 12])
def test_tartaglia_check(n):
    assert tartaglia_check(n)


def test_tartaglia_bounds():
    for n in (0, 17):
        with pytest.raises(ValueError):
            tartaglia_check(n)


def _with_top_corner(series):
    def wrong(coeff, m, n):
        out = series(coeff, m, n)
        out[0][n - 1] += 1  # above the diagonal for n >= 2
        return out

    return wrong


def _tampered_rows(system, parity):
    def tampered(p, n):
        out = system(p, n)
        if p == parity:
            out.rows[-1][0] += 1
        return out

    return tampered


@pytest.mark.parametrize(
    "name, wrong",
    [
        ("comb", lambda comb: lambda i, j: comb(i, j) + (i == 2 and j == 1)),
        ("_nilpotent_series", _with_top_corner),
        ("binomial_system", lambda system: _tampered_rows(system, "even")),
        ("binomial_system", lambda system: _tampered_rows(system, "odd")),
    ],
    ids=["pascal-lower", "pascal-upper", "even-rows", "odd-rows"],
)
def test_tartaglia_check_fails_on_wrong_input(monkeypatch, name, wrong):
    # each identity the check makes is seen to fail on one wrong input
    monkeypatch.setattr(bernoulli, name, wrong(getattr(bernoulli, name)))
    assert tartaglia_check(4) is False


# ---------------------------------------------------------------- ramanujan


def test_ramanujan_rhs_first_eleven():
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


def test_ramanujan_rhs_factors_as_scale_times_weight():
    sys_ = gen_system("ramanujan", "typeII", 24, Fraction(1))
    f = ramanujan_rhs(25)
    for i in range(24):
        assert f[i] == sys_.zscale[i] * sys_.q[i]


# --------------------------------------------------------------- conversion


def test_convert_even_type1_to_type2_rhs_pattern():
    n = 5
    x = Fraction(1)
    out = convert_type(gen_system("even", "typeI", n, x), "I_to_II")
    rhs = out.rhs()
    for i in range(n - 1):
        assert rhs[i] == 2 * (i + 1) * x ** (i + 1) / Fraction(factorial(2 * i + 4))


def test_convert_odd_type1_to_type2_rhs_pattern():
    n = 5
    x = Fraction(7, 3)
    out = convert_type(gen_system("odd", "typeI", n, x), "I_to_II")
    rhs = out.rhs()
    for i in range(n - 1):
        assert rhs[i] == (2 * i + 1) * x ** (i + 1) / Fraction(2 * factorial(2 * i + 3))


def test_convert_round_trip_exact():
    for family in FAMILIES:
        sys2 = gen_system(family, "typeII", 7, Fraction(7, 3))
        assert convert_type(convert_type(sys2, "II_to_I"), "I_to_II") == sys2
        sys1 = gen_system(family, "typeI", 7, Fraction(7, 3))
        assert convert_type(convert_type(sys1, "I_to_II"), "II_to_I") == sys1


def test_convert_rejects_tampered_system():
    sys_ = gen_system("even", "typeI", 5, Fraction(1))
    broken = type(sys_)(
        sys_.family, sys_.kind, sys_.n, sys_.x, sys_.a, [q + 1 for q in sys_.q], None
    )
    with pytest.raises(ConversionError):
        convert_type(broken, "I_to_II")
    with pytest.raises(ConversionError, match="expected a typeII system"):
        convert_type(sys_, "II_to_I")
    sys2 = gen_system("even", "typeII", 4, Fraction(1))
    for call, match in (
        (lambda: convert_type(sys2, "I_to_II"), "expected a typeI system"),
        (lambda: convert_type(gen_system("even", "typeI", 1, Fraction(1)), "I_to_II"), "need at least two rows"),
        (lambda: convert_type(replace(sys2, a=[2, *sys2.a[1:]]), "II_to_I"), "leading coefficient of one"),
        (lambda: convert_type(replace(sys2, q=[q + 1 for q in sys2.q]), "II_to_I"), "row 0 does not transform back"),
    ):
        with pytest.raises(ConversionError, match=match):
            call()
    with pytest.raises(ValueError, match="unknown direction: 'I_to_III'"):
        convert_type(sys_, "I_to_III")


# ------------------------------------------------------------------ numbers


def test_golden_values_every_method():
    for method in METHODS:
        assert bernoulli_numbers(9, method) == GOLDEN
        if method.startswith("ltt-"):
            assert bernoulli_numbers(9, method, solver="fast") == GOLDEN, method


def test_count_one():
    for method in METHODS:
        assert bernoulli_numbers(1, method) == [1]
        if method.startswith("ltt-"):
            assert bernoulli_numbers(1, method, solver="fast") == [1]


def test_methods_agree_bitwise():
    reference = bernoulli_numbers(20, METHODS[0])
    for method in METHODS[1:]:
        assert bernoulli_numbers(20, method) == reference


def test_fast_solver_agrees_with_forward():
    reference = bernoulli_numbers(14)
    for method in ("ltt-even-I", "ltt-odd-II", "ltt-ram-I", "ltt-ram-II"):
        assert bernoulli_numbers(14, method, solver="fast") == reference
    # the other base of each family, at lengths that are not powers of the base
    for family, kind, n, base in (("even", "typeI", 10, 3), ("ramanujan", "typeII", 9, 2)):
        sys_ = gen_system(family, kind, n, Fraction(1))
        assert sys_.bernoulli_from_solution(ltt_solve_fast(sys_.a, sys_.rhs(), base)) == reference[:10]


def test_result_independent_of_x():
    for method in ("ltt-even-I", "ltt-even-II", "ltt-odd-I", "ltt-ram-II"):
        assert bernoulli_numbers(16, method, x=Fraction(7, 3)) == bernoulli_numbers(16, method)


def test_sign_alternation():
    b = bernoulli_numbers(33)
    for j in range(1, 33):
        assert (b[j] > 0) == (j % 2 == 1)


def test_power_series_identity():
    # t/(e^t - 1) + t/2 has the even Bernoulli coefficients and no odd ones
    m = 16
    n = 2 * m
    g = [Fraction(1, factorial(k + 1)) for k in range(n)]  # (e^t - 1)/t
    inv = ltt_solve_forward(g, [Fraction(1)] + [Fraction(0)] * (n - 1))
    inv[1] += Fraction(1, 2)
    b = bernoulli_numbers(m)
    for k in range(m):
        assert inv[2 * k] == b[k] / factorial(2 * k)
    for k in range(1, m):
        assert inv[2 * k + 1] == 0


def test_invalid_arguments():
    with pytest.raises(ValueError):
        bernoulli_numbers(0)
    with pytest.raises(ValueError):
        bernoulli_numbers(4, "newton")
    with pytest.raises(ValueError):
        bernoulli_numbers(4, x=Fraction(0))
    with pytest.raises(ValueError):
        bernoulli_numbers(4, solver="iterative")
    # a binomial route has no l.t.T. system for the fast solver
    with pytest.raises(ValueError, match="'binom-even'.*'fast'"):
        bernoulli_numbers(4, "binom-even", solver="fast")
    for call, match in (
        (lambda: gen_system("pascal", "typeI", 4, Fraction(1)), "unknown family: 'pascal'"),
        (lambda: gen_system("even", "typeIII", 4, Fraction(1)), "unknown kind: 'typeIII'"),
        (lambda: gen_system("even", "typeI", 0, Fraction(1)), "system size must be >= 1"),
        (lambda: scaling_diag(0, Fraction(1)), "size must be >= 1"),
        (lambda: binomial_system("even", 0), "size must be >= 1"),
        (lambda: binomial_system("both", 4), "unknown parity: 'both'"),
        (lambda: ramanujan_rhs(1), "need n >= 2"),
        (lambda: zeta_consistency(0, 10), "need j >= 1"),
        (lambda: zeta_consistency(1, 0), "need at least one term"),
        (lambda: von_staudt_check(0), "need j >= 1"),
    ):
        with pytest.raises(ValueError, match=match):
            call()


def test_invalid_base_raises_before_padding(time_limit):
    # a base 0 or 1 level would never shrink the column, and a rational column has no exact level above base 3
    time_limit(5)
    sys_ = gen_system("even", "typeI", 5, Fraction(1))
    for base in (0, 1, 4, 7):
        with pytest.raises(ValueError):
            ltt_solve_fast(sys_.a, sys_.rhs(), base)


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_solve_lower_matches_tangent_oracle(parity):
    # the binom-* route solves binomial_system's rows as int Pascal rows
    for count in [*range(1, 41), 128]:
        got = bernoulli_numbers(count, f"binom-{parity}")
        assert got == tangent_bernoulli(count), count
        assert all(type(v) is Fraction for v in got), count


def test_binom_even_matches_tangent_oracle_512():
    assert bernoulli_numbers(512, "binom-even") == tangent_bernoulli(512)


def test_ram_column_count_at_base3():
    # solved at its own length 128, not padded to 243: the first level is free and
    # each later one keeps ceil(m/3) coefficients; the assembly applies the shortest
    # level like the others, from [1]. Each product of length L counts L(L+1)/2.
    # Levels 43, 15, 5, 2 pad to 3L = 45, 15, 6, 3, and each counts its companion
    # column (six products of length L), its next column (three, none at 3L = 3)
    # and its assembly step (one per class of the m-long column):
    #   L=15: 6*120 + 3*120 + (120 + 105 + 105) = 1410
    #   L=5:  6*15 + 3*15 + 3*15 = 180
    #   L=2:  6*3 + 3*3 + (3 + 3 + 1) = 34
    #   L=1:  6*1 + 0 + (1 + 1) = 8, in all 1632
    a = gen_system("ramanujan", "typeI", 128, Fraction(1)).a
    _, trace = invert_first_column(a, 3)
    assert [len(h) for h in trace.hat_columns] == [128, 43, 15, 5, 2]
    assert trace.hat_columns[0] == [1] + [0] * 127
    assert trace.mult_count == 1632


def test_every_route_matches_tangent_oracle():
    want = tangent_bernoulli(64)
    for method in METHODS:
        assert bernoulli_numbers(64, method) == want, method
        if method.startswith("ltt-"):
            assert bernoulli_numbers(64, method, solver="fast") == want, method


def test_fast_routes_match_tangent_oracle_at_200():
    # 200 is a power of neither base, so every level is truncated
    want = tangent_bernoulli(200)
    for method in METHODS:
        if method.startswith("ltt-"):
            assert bernoulli_numbers(200, method, solver="fast") == want, method


# ------------------------------------------------------------ number theory


def test_von_staudt_examples():
    b = bernoulli_numbers(8)
    assert b[1].denominator == 6 and von_staudt_check(1)
    assert b[6].denominator == 2730 and von_staudt_check(6)
    assert b[7].denominator == 6 and von_staudt_check(7)


def test_von_staudt_range():
    assert all(von_staudt_check(j) for j in range(1, 17))


def test_zeta_consistency():
    assert abs(zeta_consistency(1, 10**6) - 1) < 1e-5
    assert abs(zeta_consistency(8, 1000) - 1) < 1e-9
    assert abs(zeta_consistency(1, 1) - math.pi**2 / 6) < 1e-12


def test_zeta_consistency_large_j():
    # (2 pi)**400 and 5**800 leave the double range; the ratio does not
    for j in (200, 400):
        assert abs(zeta_consistency(j, 5) - 1) < 1e-12, j
