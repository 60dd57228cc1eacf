"""Bernoulli numbers as solutions of triangular linear systems, exactly.

The library knows eight routes to the list B_0, B_2, B_4, ...:

* two dense lower triangular binomial systems (rows of even, respectively
  odd, binomial coefficients with right-hand sides 1, 2, 3, ... and
  1, 3/2, 5/2, ...), built as int Pascal rows and solved on integer
  numerators over one running denominator;
* six lower triangular Toeplitz systems, one per family (even, odd,
  ramanujan) and type. A type I system is solved by the scaled vector
  (B_{2i} x**i / (2i)!)_{i>=0}; the corresponding type II system by the same
  vector shifted one slot (B_0 dropped) and is smaller by one row. The
  ramanujan family's coefficient column has two zero diagonals between
  consecutive nonzero ones, which lets a base-3 solver skip its first
  nullification level.

All routes return identical rationals for every count and every nonzero
scaling parameter x; cross checking them is the point of the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import comb, factorial
from operator import add

from . import series
from .solver import ltt_solve_fast

__all__ = [
    "FAMILIES",
    "KINDS",
    "METHODS",
    "BernoulliSystem",
    "BinomialSystem",
    "ConversionError",
    "gen_system",
    "scaling_diag",
    "binomial_system",
    "tartaglia_check",
    "ramanujan_rhs",
    "convert_type",
    "bernoulli_numbers",
    "zeta_consistency",
    "von_staudt_check",
]

FAMILIES = ("even", "odd", "ramanujan")
KINDS = ("typeI", "typeII")
METHODS = (
    "binom-even",
    "binom-odd",
    "ltt-even-I",
    "ltt-odd-I",
    "ltt-ram-I",
    "ltt-even-II",
    "ltt-odd-II",
    "ltt-ram-II",
)


class ConversionError(ValueError):
    """System data is inconsistent with the requested type conversion."""


def _a_column(family: str, n: int, x: Fraction) -> list:
    """The family's column a_0..a_{n-1} as a running product from a_0 = 1.

    even: a_i = 2 x**i / (2i+2)!; odd: a_i = x**i / (2i+1)!; ramanujan:
    a_{3k} = 2 x**(3k) / ((6k+2)! (2k+1)), and zero off the multiples of 3.
    """
    if family == "ramanujan":
        x3 = x**3

        def step(a, k):  # a_{3k} / a_{3k-3} = x**3 (2k-1) / ((6k-3)(6k-2)...(6k+2) (2k+1))
            return a * x3 * (2 * k - 1) / (math.prod(range(6 * k - 3, 6 * k + 3)) * (2 * k + 1))

        out = [Fraction(0)] * n
        out[::3] = accumulate(range(1, (n + 2) // 3), step, initial=Fraction(1))
        return out
    c = 1 if family == "even" else 0
    # a_i / a_{i-1} = x / ((2i+c)(2i+c+1)), c = 1 for even and 0 for odd
    return list(accumulate(range(1, n), lambda a, i: a * x / ((2 * i + c) * (2 * i + c + 1)), initial=Fraction(1)))


def _q_value(family: str, i: int) -> Fraction:
    if family == "even":
        return Fraction(1, 2 * i + 1)
    if family == "odd":
        return Fraction(1) if i == 0 else Fraction(1, 2)
    v = Fraction(1, (2 * i + 1) * (i + 1))
    if i % 3 == 2:
        v = v * Fraction(-1, 2)
    return v


def _z_value(family: str, i: int) -> Fraction:
    # defined for i >= 1
    if family == "even":
        return Fraction(i, i + 1)
    if family == "odd":
        return Fraction(2 * i - 1, 2 * i + 1)
    if i % 3 == 0:
        return 1 - Fraction(1, 2 * i // 3 + 1)
    return Fraction(1)


@dataclass(frozen=True)
class BernoulliSystem:
    """One generated l.t.T. system: L(a) y = rhs with y a scaled Bernoulli vector.

    For typeI the unknown is y_i = B_{2i} x**i / (2i)! (i = 0..n-1); for
    typeII it is y_i = B_{2i+2} x**(i+1) / (2i+2)! and ``q``/``zscale`` hold
    the family weights shifted to start at index one.
    """

    family: str
    kind: str
    n: int
    x: Fraction
    a: list
    q: list
    zscale: list | None = None

    @cached_property
    def _scaling(self) -> list:
        # the diagonal of the n unknowns, shifted one slot for typeII; built once per system
        shift = 0 if self.kind == "typeI" else 1
        return scaling_diag(self.n + shift, self.x)[shift:]

    def rhs(self) -> list:
        zscale = self.zscale or [1] * self.n  # typeI has no z weights
        return [z * d * q for z, d, q in zip(zscale, self._scaling, self.q)]

    def bernoulli_from_solution(self, y) -> list:
        """Undo the diagonal scaling of the solution y; typeII gets B_0 = 1 prepended."""
        out = [v / s for v, s in zip(y, self._scaling)]
        return out if self.kind == "typeI" else [Fraction(1)] + out


@dataclass(frozen=True)
class BinomialSystem:
    """Dense lower triangular binomial system; ``rows`` are ragged rows."""

    parity: str
    n: int
    rows: list
    rhs: list


def gen_system(family: str, kind: str, n: int, x: Fraction) -> BernoulliSystem:
    """Generate the family system of the requested kind and size."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family!r}")
    if kind not in KINDS:
        raise ValueError(f"unknown kind: {kind!r}")
    if n < 1:
        raise ValueError("system size must be >= 1")
    x = Fraction(x)
    if x == 0:
        raise ValueError("scaling parameter x must be nonzero")
    a = _a_column(family, n, x)
    if kind == "typeI":
        return BernoulliSystem(family, kind, n, x, a, [_q_value(family, i) for i in range(n)])
    q = [_q_value(family, i + 1) for i in range(n)]
    zsc = [_z_value(family, i + 1) for i in range(n)]
    return BernoulliSystem(family, kind, n, x, a, q, zsc)


def scaling_diag(n: int, x: Fraction) -> list:
    """Diagonal x**i / (2i)!, i = 0..n-1; conjugating the weighted shift by it
    leaves x times the plain lower shift."""
    if n < 1:
        raise ValueError("size must be >= 1")
    x = Fraction(x)
    # the running product d_i = d_{i-1} x / ((2i-1) 2i)
    return list(accumulate(range(1, n), lambda d, i: d * x / ((2 * i - 1) * (2 * i)), initial=Fraction(1)))


def binomial_system(parity: str, n: int) -> BinomialSystem:
    """Even rows C(2j, 2k) with rhs j; odd rows C(2j-1, 2k) with rhs (2j-1)/2.

    Row one of the odd system is the normalization B_0 = 1.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"unknown parity: {parity!r}")
    if n < 1:
        raise ValueError("size must be >= 1")
    rows, rhs = _binomial_rows(parity, n)
    return BinomialSystem(parity, n, [[Fraction(c) for c in row] for row in rows], [Fraction(*g) for g in rhs])


def _binomial_rows(parity, n):
    """binomial_system's rows as ints, by Pascal's rule, and its rhs as (numerator, denominator)."""
    rows, pascal = [], [1]
    for m in range(1, 2 * n + 1):
        pascal = [1, *map(add, pascal, pascal[1:]), 1]  # C(m, 0..m)
        if m % 2 == (parity == "odd"):
            rows.append(pascal[:m:2])  # C(m, 2k) for 2k < m
    if parity == "even":
        return rows, [(j, 1) for j in range(1, n + 1)]
    return rows, [(1, 1)] + [(2 * j - 1, 2) for j in range(2, n + 1)]


def _zeros(n):
    return [[Fraction(0)] * n for _ in range(n)]


def _matmul(a, b):
    n = len(a)
    out = _zeros(n)
    for i in range(n):
        ai = a[i]
        for k in range(n):
            v = ai[k]
            if v:
                bk = b[k]
                row = out[i]
                for j in range(k + 1):  # all our factors are lower triangular
                    row[j] += v * bk[j]
    return out


def _weighted_shift(n, weight):
    # weight(i) on the subdiagonal entry of row i
    m = _zeros(n)
    for i in range(1, n):
        m[i][i - 1] = Fraction(weight(i))
    return m


def _even_weight(i):
    # subdiagonal 1*2, 3*4, 5*6, ...
    return (2 * i - 1) * (2 * i)


def _nilpotent_series(coeff, m, n):
    out = _zeros(n)
    power = _zeros(n)
    for i in range(n):
        power[i][i] = Fraction(1)
    for k in range(n):
        c = coeff(k)
        for i in range(n):
            for j in range(n):
                out[i][j] += c * power[i][j]
        power = _matmul(power, m)
    return out


def tartaglia_check(n: int) -> bool:
    """Exact structural identities behind the binomial systems.

    Checks that the binomial (Pascal) triangle equals the exponential series
    of the weighted shift, and that both binomial system matrices equal their
    series representations over the even weighted shift.
    """
    if n < 1 or n > 16:
        raise ValueError("check is meant for 1 <= n <= 16")
    pascal = [[Fraction(comb(i, j)) for j in range(n)] for i in range(n)]
    pascal_series = _nilpotent_series(lambda k: Fraction(1, factorial(k)), _weighted_shift(n, lambda i: i), n)
    for i in range(n):
        for j in range(i + 1):
            if pascal[i][j] != pascal_series[i][j]:
                return False
        if any(pascal_series[i][j] for j in range(i + 1, n)):
            return False

    # even matrix needs one extra row before the shift-up
    m = n + 1
    shift = _weighted_shift(m, _even_weight)
    ps = _matmul(shift, _nilpotent_series(lambda k: Fraction(1, factorial(2 * k + 2)), shift, m))
    binom_even = binomial_system("even", n)
    for i in range(n):
        row = [ps[i + 1][j] for j in range(i + 1)]
        if row != binom_even.rows[i]:
            return False

    s = _nilpotent_series(lambda k: Fraction(1, factorial(2 * k + 1)), _weighted_shift(n, _even_weight), n)
    binom_odd = binomial_system("odd", n)
    for i in range(n):
        row = [(2 * i + 1) * s[i][j] for j in range(i + 1)]
        if row != binom_odd.rows[i]:
            return False
    return True


def ramanujan_rhs(n: int) -> list:
    """Right-hand side entries f_1 .. f_{n-1} of the unscaled sparse system.

    f_i multiplies out both corrections at once; it factors exactly as
    z_i * q_i of the ramanujan family.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    out = []
    for i in range(1, n):
        v = Fraction(1)
        if i % 3 == 2:
            v -= Fraction(3, 2)
        if i % 3 == 0:
            v -= Fraction(1, 2 * i // 3 + 1)
        out.append(v / ((2 * i + 1) * (i + 1)))
    return out


def convert_type(sys: BernoulliSystem, direction: str) -> BernoulliSystem:
    """Rebuild a system as its other type, verifying consistency exactly.

    I_to_II drops the first row and column and removes the B_0 contribution
    from the right-hand side; II_to_I prepends the row a_0 * B_0 = 1. Both
    directions check the transformed right-hand side against the family
    formulas and refuse tampered data.
    """
    if direction == "I_to_II":
        if sys.kind != "typeI":
            raise ConversionError("expected a typeI system")
        if sys.n < 2:
            raise ConversionError("need at least two rows to drop one")
        out = gen_system(sys.family, "typeII", sys.n - 1, sys.x)
        old = sys.rhs()
        expect = out.rhs()
        for i in range(out.n):
            if old[i + 1] - sys.a[i + 1] != expect[i]:
                raise ConversionError(f"right-hand side row {i + 1} does not transform")
        return out
    if direction == "II_to_I":
        if sys.kind != "typeII":
            raise ConversionError("expected a typeII system")
        if sys.a[0] != 1:
            raise ConversionError("consistency requires a leading coefficient of one")
        out = gen_system(sys.family, "typeI", sys.n + 1, sys.x)
        old = sys.rhs()
        new = out.rhs()
        for i in range(sys.n):
            if new[i + 1] - out.a[i + 1] != old[i]:
                raise ConversionError(f"right-hand side row {i} does not transform back")
        return out
    raise ValueError(f"unknown direction: {direction!r}")


def bernoulli_numbers(
    count: int,
    method: str = "binom-even",
    x: Fraction = Fraction(1),
    solver: str = "forward",
) -> list:
    """[B_0, B_2, ..., B_{2(count-1)}] via the chosen system and solver.

    ``solver`` is "forward" (quadratic substitution) or "fast" (the
    nullification solver, on the same system of count or count - 1 rows, at
    base 3 for the ramanujan family, whose first level is then free, and
    base 2 otherwise). A binom-* route has no l.t.T. system, so it takes
    only "forward". The result never depends on x, the scaling cancels
    exactly.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if method not in METHODS:
        raise ValueError(f"unknown method: {method!r}")
    if solver not in ("forward", "fast"):
        raise ValueError(f"unknown solver: {solver!r}")
    if solver == "fast" and method.startswith("binom-"):
        raise ValueError(f"method {method!r} has no l.t.T. system for solver {solver!r}")
    x = Fraction(x)
    if x == 0:
        raise ValueError("scaling parameter x must be nonzero")

    if method.startswith("binom-"):
        rows, rhs = _binomial_rows(method.removeprefix("binom-"), count)
        return series._substitute((row[:-1], row[-1], *g) for row, g in zip(rows, rhs))

    _, fam_key, kind_key = method.split("-")
    family = {"even": "even", "odd": "odd", "ram": "ramanujan"}[fam_key]
    kind = "typeI" if kind_key == "I" else "typeII"
    m = count if kind == "typeI" else count - 1
    if m == 0:
        return [Fraction(1)]

    sys_ = gen_system(family, kind, m, x)
    if solver == "forward":
        y = series.ltt_solve_forward(sys_.a, sys_.rhs())
    else:
        y = ltt_solve_fast(sys_.a, sys_.rhs(), 3 if family == "ramanujan" else 2)
    return sys_.bernoulli_from_solution(y)


def zeta_consistency(j: int, terms: int) -> float:
    """Ratio of |B_2j| (2 pi)**2j / (2 (2j)!) to the zeta(2j) partial sum.

    Tends to one as ``terms`` grows; already closer than float precision for
    moderate j because the tail decays like terms**(1 - 2j).
    """
    if j < 1:
        raise ValueError("need j >= 1")
    if terms < 1:
        raise ValueError("need at least one term")
    b2j = bernoulli_numbers(j + 1)[j]
    # (2 pi)**2j = 2**6j (pi/4)**2j: the power of two joins the exact ratio, so
    # neither float factor leaves the double range the way (2 pi)**2j does
    closed = float(abs(b2j) * 2 ** (6 * j) / (2 * factorial(2 * j))) * (math.pi / 4) ** (2 * j)
    partial = sum(float(k) ** (-2 * j) for k in range(1, terms + 1))
    return closed / partial


def _primes_upto(m: int) -> list:
    sieve = bytearray([1]) * (m + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(m**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, m + 1) if sieve[p]]


def von_staudt_check(j: int) -> bool:
    """True iff the denominator of B_2j is the product of the primes p with
    p - 1 dividing 2j."""
    if j < 1:
        raise ValueError("need j >= 1")
    denom = bernoulli_numbers(j + 1)[j].denominator
    prod = 1
    for p in _primes_upto(2 * j + 1):
        if (2 * j) % (p - 1) == 0:
            prod *= p
    return denom == prod
