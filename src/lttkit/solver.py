"""Non-recursive l.t.T. solver by repeated diagonal nullification.

For a unit lower triangular Toeplitz system of any order n the solve runs
in two sweeps:

* First sweep: at each level the current column ``a`` (length m) is
  multiplied by a companion column ``hat`` chosen so that the product column
  vanishes at every index not divisible by base. The survivors, read off at
  indexes 0, base, 2*base, ..., form the next column of length
  ceil(m/base). After ceil(log_base n) levels the column is [1] and the
  accumulated left factors have turned the matrix into the identity.
* Second sweep: the inverse's first column is the product of the collected
  companion matrices applied to e_1, evaluated right to left from the
  length-1 column [1]. Every level is applied the same way, as a
  matrix-vector product at its own block size (the zero structure of the
  intermediate vectors keeps each step cheap) truncated to its length m.

The first m entries of 1/a(z) depend only on a mod z**m, and the next
column is needed only mod z**ceil(m/base): this is Schoenhage's truncated
reciprocal by root squaring at base b. So a rational level at a length m
that the base does not divide pads the column with fewer than base zeros,
and its assembly step keeps m entries; no length is padded to a power.
Complex levels need transform lengths that are powers of the base, so a
complex column is zero-padded once to the next power and x truncated.

The companion column is the truncated product of the rotations a(z*t), ...,
a(z*t**(base-1)) with t the base-th root of unity. Its coefficients are
rational for a rational column at every base. It is free for base 2
(alternate the signs of ``a``) and has an exact integer-coefficient closed
form for base 3; no exact form is implemented above base 3, so for base >= 4
the solver builds it only over the complex numbers, in the transform domain,
as samples of that product.

The scalar field, decided once by invert_first_column and ltt_solve_fast,
picks one level kernel and one final product. Rational inputs (base 2 and
3) are solved exactly at shrinking block sizes, on integer numerators over
one reduced denominator. An assembly step applies a companion column to a
vector spread by the base, whose residue class r is the l.t.T. product of
hat[r::base] with the vector. Every product phase is one series._kronecker
call on its operand pairs, each product four big-integer multiplies of a
quarter of the size, by four-point Kronecker substitution, and each
distinct operand packed once: an assembly step's class products, with the
vector packed once; a base-2 level's next column, two squarings, next =
A0**2 - z A1**2 with A0, A1 = a[0::2], a[1::2]; a base-3 level's companion
column, six products of a third of the length, one per pair of the
classes A_r = a[r::3], which packs the three classes; and its next column,
three more (see _hat_base3 and _level).
A column that is already zero off the multiples of the base skips its
level in either field: its companion column is e_1, and its assembly step
is a pure spread with no multiplication.

Complex inputs run each level in the transform domain, as one Graeffe
root-squaring step: the next column holds the z**base coefficients of
a(z) a(t z) ... a(t**(base-1) z). With N = base*m, one length-N transform
A of the column gives every rotation a(t**i z) as the cyclic shift of A by
i*m. The companion column's samples H are the product of the shifts
i = 1..base-1 (a plain shift for base 2), and one length-m inverse
transform of the first m products A*H yields the next column. H is kept
for the second sweep, where each step is one length-m transform of the
vector and one length-N inverse transform of its product with H. So a
level costs two transforms in each sweep, and each is pruned (see fft):
the column and the vector are passed unpadded, base times shorter than
their transforms, so those copy their first stage, and the inverse
transforms keep only the m/base and m outputs that are read. At base >= 3
their last stage computes one output block of base; at base 2 the kept
outputs are a slice of the full ones. No complex companion column is
written out during a solve. The assembly consumes the kept samples: each
step overwrites H with its products and hands them to its inverse
transform, emptying the level's record, which is dropped once the step
has run.

One function, _level, runs a level of the first sweep in either field: the
skip, the Graeffe step or the exact level. SolveTrace keeps the normalized
first column, in either field, and the level count; when hat_columns is
first read it replays the levels from that column through _level and writes
each step out as a companion column. sparsify_step is the reference for one
exact level: sparsify_hat, the solver's own companion column, and the naive
product for the next column. The base-3 companion column's oracle is
tests/oracles.py's product_form_hat3, the product of the rotations by
definition. SolveTrace counts every transform multiplication and pointwise
product of the solve, O(n log n) in total.

The companion columns are built from products of the input column with
itself, so their dynamic range roughly squares at every level. Exact
arithmetic is immune. In floating point a transform's rounding error scales
with the largest coefficient of the whole product, so each transform-domain
level samples on a circle |z| = s <= 1 chosen from the column's top
coefficients, which keeps a growing column's long tail from swamping the
low coefficients a level keeps. A column whose inverse leaves the double
range raises OverflowError rather than returning non-finite entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import mul, sub

from . import fft, series
from .opcount import OpCounter
from .scalars import COMPLEX, RATIONAL, _complex_operands, _in_double_range, field_of
from .series import SingularMatrixError

__all__ = [
    "SparsifyResult",
    "SolveTrace",
    "sparsify_hat",
    "sparsify_step",
    "invert_first_column",
    "ltt_solve_fast",
]


@dataclass(frozen=True)
class SparsifyResult:
    """One nullification step: the companion column and the shrunken column."""

    hat: list
    next: list


@dataclass(frozen=True)
class SolveTrace:
    """Base, level count and cost of one inversion, with its normalized first column.

    ``hat_columns`` replays the levels from that column on first read,
    through the level function the solve ran, and writes their companion
    columns out, longest level first. mult_count
    counts the solve's own work, not that of reading them.
    """

    base: int
    levels: int
    mult_count: int
    column: list  # the first level's column: normalized, and converted and zero-padded to a power if complex

    @cached_property
    def hat_columns(self) -> list:
        # the solve's levels again, through _level on a counter of their own; vals is each level's
        # column as values, typed as the sparsify_step chain on the first column types it
        b, hats, ops, vals = self.base, [], OpCounter(), self.column
        cx = field_of(vals) == COMPLEX
        col, den = (vals, None) if cx else series._numerators(vals)
        while len(col) > 1:
            k = series.first_non_int(vals)
            step, col, den = _level(col, den, b, ops)
            hats.append(
                [vals[0]] + [0j if cx else Fraction(0)] * (len(vals) - 1) if step is None  # e_1
                else _hat_base2(vals) if b == 2
                else _apply_hat_samples(step, [1 + 0j], b, ops) if cx
                else series._values(*step, k)
            )
            vals = col if cx else vals[::b] if step is None else series._values(col, den, -(-k // b))
        return hats

    def report(self) -> str:
        return f"base={self.base} levels={self.levels} mult_count={self.mult_count}"


def _hat_base2(a):
    # a(-z): sign flip on odd coefficients, no arithmetic
    return [v if i % 2 == 0 else -v for i, v in enumerate(a)]


def _hat_base3(col, ops):
    """a(t z) a(t**2 z) mod z**(3L), t = exp(2 pi i/3), for an integer column col of length 3L.

    With A_r = col[r::3] and y a shift by one slot, its residue classes are
    hat[0::3] = A0**2 - y A1 A2, hat[1::3] = y A2**2 - A0 A1 and hat[2::3] =
    A1**2 - A0 A2: six l.t.T. products of length L, in one _kronecker call
    that packs each class once.
    """
    a0, a1, a2 = col[0::3], col[1::3], col[2::3]
    s0, p01, p02, s1, p12, s2 = series._kronecker([(a0, a0), (a1, a0), (a2, a0), (a1, a1), (a2, a1), (a2, a2)], ops)
    hat = [0] * len(col)
    hat[0::3] = map(sub, s0, [0, *p12])
    hat[1::3] = map(sub, [0, *s2], p01)
    hat[2::3] = map(sub, s1, p02)
    return hat


def sparsify_hat(a, base: int):
    """Column hat with (L(a) hat)_i = 0 at every index i with i % base != 0.

    The exact level's companion column: a rational column with a[0] == 1,
    at base 2 or 3, where the closed forms have integer coefficients. At
    base 3 it is the solver's _hat_base3 on the column's numerators, padded
    to a multiple of 3 and truncated back, and entry i is an int exactly
    when a_0..a_i are. A complex column raises ValueError; its levels run in
    the transform domain inside invert_first_column.
    """
    if not a or a[0] != 1:
        raise ValueError("column must be normalized to leading coefficient 1")
    if field_of(a) != RATIONAL:
        raise ValueError("sparsify_hat takes rational columns; complex levels run in the transform domain")
    if base == 2:
        return _hat_base2(a)
    if base == 3:
        nums, den = series._numerators(a)
        hat = _hat_base3(nums + [0] * (-len(a) % 3), None)[: len(a)]
        return series._values(hat, den * den, series.first_non_int(a))
    raise ValueError(f"no exact companion form is implemented above base 3, got base {base}; use base 2 or 3")


def sparsify_step(a, base: int) -> SparsifyResult:
    """Companion column plus the next, base-times-shorter column, by definition.

    The reference for one exact level: hat = sparsify_hat(a, base), the
    solver's own companion column, and ``next`` holds entries 0, base,
    2*base, ... of the naive product L(a) hat, so only the next column is
    computed apart from the solver. O(m**2). next has length len(a) // base,
    next[0] == 1, and next[i] is an int when a_0..a_{base*i} are.
    """
    if len(a) % base:
        raise ValueError(f"length {len(a)} not divisible by base {base}")
    hat = sparsify_hat(a, base)
    return SparsifyResult(hat=hat, next=series.ltt_matvec_naive(a, hat)[::base])


def _already_sparse(col, base):
    return not any(col[i] for i in range(1, len(col)) if i % base)


def _apply_hat(hat, w, base, ops):
    """L(hat) applied to w spread by base, truncated to len(hat).

    Residue class r is L(hat[r::base]) times the leading len(hat[r::base])
    entries of w: one _kronecker call, which packs w once for every class.
    """
    out = [0] * len(hat)
    for r, product in enumerate(series._kronecker([(hat[r::base], w) for r in range(min(base, len(hat)))], ops)):
        out[r::base] = product
    return out


def _level_radius(col, base):
    """Radius s <= 1 of the circle that a transform-domain level samples on.

    A level keeps the coefficients below m = len(col) of products of about
    base copies of the column, and the transforms' rounding error scales
    with the largest coefficient of the whole product, whose tail can dwarf
    the kept part once the column grows. Sampling on |z| = s multiplies
    coefficient k by s**k. s = 1 / max |col[k]|**(1/k) over the top part
    k > (m-1)/base caps that part at 1, which balances the product's tail
    against its constant term. A column whose top part is bounded by 1
    gets s = 1 and is not rescaled.
    """
    m = len(col)
    lo = (m - 1) // base + 1
    top = 0.0
    for k, v in enumerate(map(abs, col[lo:]), lo):
        if v > 1.0:
            top = max(top, math.log(v) / k)
    s = math.exp(-top)
    if s == 0.0:
        raise OverflowError(f"infinite entry in the length-{m} column of a level")
    return s


def _rescaled(values, r, ops):
    # values[k] * r**k; r == 1 returns values itself, uncounted: callers write only into fresh lists
    if r == 1.0:
        return values
    ops.add(2 * len(values))
    try:
        return [v * r**k for k, v in enumerate(values)]
    except OverflowError:  # r**k left the double range
        raise OverflowError(f"rescaling the length-{len(values)} column of a level leaves the double range") from None


def _graeffe_level(col, base, ops):
    """One complex nullification level in the transform domain: ([H, s], next).

    With m = len(col), N = base*m and A the length-N transform of the
    column a(s z), s from _level_radius, passed unpadded, the rotation
    a(t**i s z) samples to A shifted cyclically by i*m. H, the product of the
    shifts i = 1..base-1 (a plain shift for base 2), samples the untruncated
    companion column, of degree below N, on |z| = s. a(z) times that column
    is g(z**base) with deg g < m, so the first m products A[j]*H[j] sample
    g(s**base z) at the m-th roots of unity and its leading m/base
    coefficients, unscaled, are the next column: the only outputs that
    inverse transform computes.
    """
    m = len(col)
    n = base * m
    s = _level_radius(col, base)
    samples = fft.dft(_rescaled(col, s, ops), fft.plan_for(n, base), ops)
    h = samples[m:] + samples[:m]
    for i in range(2, base):
        k = i * m
        h = list(map(mul, h, samples[k:] + samples[:k]))
    ops.add((base - 2) * n)
    if m == base:
        return [h, s], [1 + 0j]
    head = [samples[:m]]
    del samples  # H holds what of the samples the assembly reads
    # the products overwrite the head, popped into idft, which holds them alone
    g = fft.idft(fft._map_into(mul, head.pop(), h), fft.plan_for(m, base), ops, m // base)
    ops.add(m)
    nxt = _rescaled(g, (1 / s) ** base, ops)
    nxt[0] = 1 + 0j
    return [h, s], nxt


def _apply_hat_samples(step, w, base, ops):
    """Coefficients 0..m-1 of hat(z) * w(z**base), hat sampled by h on |z| = s; step is [h, s].

    h has length N = base*m and w length ceil(m/base). w((s z)**base) at the
    N-th roots of unity is the length-m transform of w(s**base z) tiled base
    times; the product has degree below N, so the cyclic inverse transform
    does not alias, and only its first m outputs are computed. hat[0] is 1,
    so coefficient 0 is w[0] exactly; with w = [1] the result is the
    companion column itself. The samples are read for the last time here: h
    is overwritten with the products and popped from step into the inverse
    transform, which then holds it alone.
    """
    h, s = step
    n = len(h)
    m = n // base
    ops.add(n)
    fft._map_into(mul, h, fft.dft(_rescaled(w, s**base, ops), fft.plan_for(m, base), ops) * base)
    del h
    out = fft.idft(step.pop(0), fft.plan_for(n, base), ops, m)
    out = _rescaled(out, 1 / s, ops)
    out[0] = w[0]
    return out


def _level(col, den, base, ops):
    """One first-sweep level: (step, next column, its denominator).

    The step is None for a column already zero off the multiples of the
    base, whose level is skipped: its companion column is e_1 and the next
    column is col[::base]. A complex column (den None) takes one
    transform-domain Graeffe step, and the step is its samples [H, s]. A
    rational column is integer numerators over den; its step is the reduced
    companion column (numerators, denominator), truncated to len(col), and
    the next column is entries 0, base, 2*base, ... of L(col) hat, reduced,
    on the column padded with fewer than base zeros. They are base products
    of a base-th of the length: class 0 pairs col[0::base] with hat[0::base],
    class r >= 1 pairs col[base-r::base] with hat[r::base] and lands one slot
    later. At base 2, hat[0::2] = A0 and hat[1::2] = -A1 with A0, A1 =
    col[0::2], col[1::2], so they are two squarings: A0**2 - z A1**2.
    """
    if _already_sparse(col, base):
        return None, col[::base], den
    if den is None:
        return (*_graeffe_level(col, base, ops), None)
    padded = col + [0] * (-len(col) % base)
    hat, hden = series._reduced(_hat_base2(padded) if base == 2 else _hat_base3(padded, ops), den ** (base - 1))
    step = series._reduced(hat[: len(col)], hden)
    if len(padded) == base:
        return step, [1], 1
    if base == 2:
        sq0, sq1 = series._kronecker([(h, h) for h in (padded[0::2], padded[1::2])], ops)
        nxt = sq0[:1] + [p - q for p, q in zip(sq0[1:], sq1)]
    else:
        nxt, *tails = series._kronecker([(hat[r::3], padded[-r % 3 :: 3]) for r in range(3)], ops)
        for tail in tails:
            nxt[1:] = [p + q for p, q in zip(nxt[1:], tail)]
    return (step, *series._reduced(nxt, den * hden))


def _power_at_least(n, base):
    p = 1
    while p < n:
        p *= base
    return p


def invert_first_column(a, base: int):
    """First column of the inverse of the n x n l.t.T. matrix built on ``a``.

    Any length n >= 1. Returns (x, SolveTrace). Exact over rationals (bases
    2 and 3) with Kronecker-substitution products, each level and assembly
    step truncated to its own length m, and x typed as ltt_solve_forward
    types L(a)^-1 e_1; a complex column is zero-padded once to the next
    power of the base and runs every level and every assembly step in the
    transform domain, at any base. An entry of a complex column that is
    NaN, infinite or beyond the double range raises ValueError; a complex
    inverse column that leaves the double range raises OverflowError.

    A column whose off-multiple entries are already zero skips its
    nullification level, the shorter column is read off directly. The
    trace's mult_count counts the solve's multiplications.
    """
    x, den, trace = _inverse(a, base, COMPLEX if _complex_operands(column=a) else RATIONAL, OpCounter())
    if den is not None:
        x = series._values(x, den, series._int_prefix(a, len(a)))
    return x, trace


def _inverse(a, base, field, ops):
    """invert_first_column's (x, den, trace): x as integer numerators over den, or complex with den None.

    field is a's, decided by the caller, who has checked the entries of a
    complex a; the trace's column is the only copy of a the solve makes. ops
    is a fresh counter, so the trace's mult_count is its total.
    """
    if base < 2:
        raise ValueError("base must be >= 2")
    n = len(a)
    if n < 1:
        raise ValueError("length must be >= 1")
    a0 = a[0]
    if a0 == 0:
        raise SingularMatrixError("leading coefficient is zero")
    if field == RATIONAL:
        if base > 3:
            raise ValueError(f"no exact companion form is implemented above base 3, got base {base}; use complex scalars")
        zero, a0 = 0, Fraction(a0)
        first = list(a) if a0 == 1 else [Fraction(1)] + [v / a0 for v in a[1:]]
        col, den = series._numerators(first)
    else:
        # a0 / a0 can round off 1 in complex arithmetic, so the head is set exactly
        tail = map(complex, a[1:]) if a0 == 1 else (complex(v) / a0 for v in a[1:])
        first = [1 + 0j, *tail, *repeat(0j, _power_at_least(n, base) - n)]
        zero, col, den = 0j, first, None

    records = []  # per level its length and its step (see _level)
    while len(col) > 1:
        step, nxt, den = _level(col, den, base, ops)
        records.append((len(col), step))
        col = nxt

    # Apply the companion matrices right to left, starting from the length-1
    # column [1]; a skipped level is a pure spread. Each step keeps its
    # level's m entries, and its record is dropped once it has run.
    levels = len(records)
    w, wden = col, den
    while records:
        m, step = records.pop()
        if step is None:
            spread = [zero] * m
            spread[::base] = w
            w = spread
        elif field == COMPLEX:
            w = _apply_hat_samples(step, w, base, ops)
        else:
            w, wden = series._reduced(_apply_hat(step[0], w, base, ops), step[1] * wden)
    trace = SolveTrace(base, levels, ops.mults, first)
    if field == RATIONAL:
        return (*series._reduced([v * a0.denominator for v in w], wden * a0.numerator), trace)
    x = w[:n] if a0 == 1 else [v / a0 for v in w[:n]]
    return _in_double_range(x, "the inverse's first column"), None, trace


def _unit_scaled(v):
    """(v * 2**-e, e): the power of two that brings v's largest modulus into [1, 2), exact unless an entry underflows.

    The moduli are of halved entries, as that of a finite complex can pass
    the largest double. e stays in [-1021, 1023]: 2**-e and the halves of a
    sum of two are doubles.
    """
    e = min(max(math.frexp(max(map(abs, map(mul, v, repeat(0.5)))))[1], -1021), 1023)
    return (list(map(mul, v, repeat(2.0**-e))) if e else v), e


def ltt_solve_fast(a, f, base: int, with_trace: bool = False):
    """Solve L(a) x = f: invert the first column, then one l.t.T. product.

    A complex or float entry in either operand makes the whole solve
    complex, and the inversion converts the column. The product is
    fft.ltt_matvec_fft for a complex column, on both operands zero-padded to
    the next power of the base, and as _apply_hat for a rational one: one
    Kronecker-substitution product, or one per residue class when the
    inverse column is zero off the multiples of the base, typed as
    ltt_solve_forward. With ``with_trace`` the returned pair carries a
    SolveTrace whose count includes the final product. In a complex solve,
    an entry of the column, or else of the right-hand side, that is NaN,
    infinite or beyond the double range raises ValueError, and an x that
    leaves the double range raises OverflowError. The product runs on
    operands scaled by powers of two, so its transforms overflow only where
    x does.
    """
    if len(f) != len(a):
        raise ValueError(f"length mismatch: column {len(a)}, rhs {len(f)}")
    cx = _complex_operands(column=a, rhs=f)  # a bad column is reported before a bad rhs
    ops = OpCounter()
    inv, iden, trace = _inverse(a, base, COMPLEX if cx else RATIONAL, ops)
    if cx:
        # each operand scaled by a power of two to a largest modulus near 1 and x scaled back, in
        # two halves: the transforms overflow only where x does, and x is otherwise unchanged
        pad = [0j] * (_power_at_least(len(a), base) - len(a))
        (inv, ea), (g, eg) = _unit_scaled(inv), _unit_scaled(f)
        if pad:
            inv, g = [*inv, *pad], [*g, *pad]
        x = fft.ltt_matvec_fft(inv, g, base, ops)[: len(a)]
        for k in ((ea + eg) // 2, (ea + eg + 1) // 2):
            if k:
                x = list(map(mul, x, repeat(2.0**k)))
        _in_double_range(x, "the final product")
    else:
        # inv(z) = h(z**b): _apply_hat's f(z) * h(z**b), b products of a b-th of the length
        nums, fden = series._numerators(f)
        b = base if _already_sparse(inv, base) else 1
        ints = series._int_prefix(a, series.first_non_int(f))
        x = series._values(_apply_hat(nums, inv[::b], b, ops), iden * fden, ints)
    if with_trace:
        return x, replace(trace, mult_count=ops.mults)
    return x
