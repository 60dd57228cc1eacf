"""Truncated lower triangular Toeplitz (l.t.T.) columns and their naive algebra.

A length-n coefficient list ``a`` stands for the n x n matrix with ``a[k]``
on the k-th subdiagonal, equivalently for the power series
``a[0] + a[1] z + ... + a[n-1] z**(n-1)`` truncated mod ``z**n``. Every
product here is the upper-left n x n block of the corresponding semi-infinite
product, i.e. plain series multiplication mod ``z**n``.

The quadratic routines in this module are exact over rationals and serve as
the reference implementations for every fast path in the package.
_kronecker is the exact product the solver runs on integer numerators over
one denominator, by two-point Kronecker substitution: two big-integer
multiplies of half the size, at +X and -X. ltt_matvec_kronecker wraps it
for ints and Fractions, and ltt_matvec_naive is its oracle.
ltt_solve_forward is the baseline the fast solver is judged against: its
_substitute kernel keeps the column and the unknowns as integer numerators
over running lcm denominators, one integer dot product and one Fraction per
row, and also solves the binomial systems of the bernoulli module. The
per-term definition it must agree with, values and types, is
dense_forward_substitution in tests/oracles.py.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .opcount import OpCounter
from .scalars import COMPLEX, RATIONAL, _require_finite, field_of, format_scalar, parse_scalar


class SingularMatrixError(ZeroDivisionError):
    """Leading coefficient is zero, the triangular system has no inverse."""


def ltt_matvec_naive(a, v, ops: OpCounter | None = None):
    """Multiply the l.t.T. matrix with first column ``a`` by ``v``, O(n^2).

    w_i = sum_{j<=i} a_{i-j} v_j, the truncated series product a(z)*v(z) mod
    z**n; every pair product is formed and counted.
    """
    n = len(a)
    if n != len(v):
        raise ValueError(f"length mismatch: column {n}, vector {len(v)}")
    if not a:
        raise ValueError("empty column")
    ar = a[::-1]
    out = [sum(map(mul, ar[n - 1 - i :], v)) for i in range(n)]
    if ops is not None:
        ops.add(n * (n + 1) // 2)
    return out


def first_non_int(values):
    """Index of the first entry that is not an int (len(values) if there is none)."""
    return next((i for i, x in enumerate(values) if type(x) is not int), len(values))


def _numerators(values):
    """(integer numerators, denominator) of ints and Fractions, over their lcm denominator."""
    den = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def _reduced(nums, den):
    # the same values over den / gcd(den, *nums): for den > 0, their lcm denominator
    g = math.gcd(den, *nums)
    return (nums, den) if g == 1 else ([v // g for v in nums], den // g)


def _values(nums, den, ints):
    # nums[i] / den: ints before index ``ints`` (exact by the caller's guarantee), then Fractions
    return [c // den for c in nums[:ints]] + [Fraction(c, den) for c in nums[ints:]]


def _kronecker_pack(ints, width):
    # sum_i ints[i] * 256**(width*i): each sign's magnitudes joined as width-byte slots
    pos = b"".join((x if x > 0 else 0).to_bytes(width, "little") for x in ints)
    neg = b"".join((-x if x < 0 else 0).to_bytes(width, "little") for x in ints)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _kronecker_unpack(value, width, count):
    # the low count slots of value = sum_k c_k 256**(width*k), as signed ints;
    # adding 2**(beta-1) to each of them makes every slot read non-negative
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    raw = ((value + offset) & ((1 << (8 * width * count)) - 1)).to_bytes(width * count, "little")
    half = 1 << (8 * width - 1)
    return [int.from_bytes(raw[k : k + width], "little") - half for k in range(0, width * count, width)]


def _kronecker(parts, v, ops: OpCounter | None = None):
    """Integer l.t.T. products p(z) v(z) mod z**len(p), p in parts, by two-point Kronecker substitution.

    Slots are beta bits wide, room for any sum of len(v) products plus a
    sign bit. Each operand is evaluated at +X and -X, X = 2**(beta/2): its
    even and odd coefficients are packed apart in beta-bit slots, and
    p(+-X) = even +- X odd. So h = p v is two multiplies of half the size,
    h(X) = p(X) v(X) and h(-X) = p(-X) v(-X); v is evaluated once, and a p
    that is v gives two squarings. (h(X) + h(-X)) / 2 holds the even
    coefficients of h in beta-bit slots and (h(X) - h(-X)) / (2X) the odd
    ones, both exact divisions (KS2; Harvey, JSC 44, 2009).

    Slot bound: every |p_i| < 2**bits(max|p|) and |v_j| < 2**bits(max|v|),
    so with bits = bits(max|p|) + bits(max|v|) each coefficient, a sum of at
    most len(v) < 2**bits(len v) products, is below 2**(bits + bits(len v)).
    The offset read takes a signed slot of beta bits as its value plus
    2**(beta-1), so beta = bits + bits(len v) + 1, one sign bit more,
    rounded up to whole bytes.
    """
    bits = max(max(map(abs, p)) for p in parts).bit_length() + max(map(abs, v)).bit_length()
    width = (bits + len(v).bit_length() + 8) // 8
    shift = 4 * width  # X = 2**shift, half a slot

    def at_plus_minus(ints):
        even, odd = _kronecker_pack(ints[0::2], width), _kronecker_pack(ints[1::2], width) << shift
        return even + odd, even - odd

    v_plus, v_minus = at_plus_minus(v)
    out = []
    for p in parts:
        n = len(p)
        p_plus, p_minus = (v_plus, v_minus) if p is v else at_plus_minus(p)
        h_plus, h_minus = p_plus * v_plus, p_minus * v_minus
        coeffs = [0] * n
        coeffs[0::2] = _kronecker_unpack((h_plus + h_minus) >> 1, width, (n + 1) // 2)
        coeffs[1::2] = _kronecker_unpack((h_plus - h_minus) >> (shift + 1), width, n // 2)
        out.append(coeffs)
        if ops is not None:
            ops.add(n * (n + 1) // 2)
    return out


def ltt_matvec_kronecker(a, v, ops: OpCounter | None = None):
    """Exact l.t.T. product by two-point Kronecker substitution: two half-size multiplies.

    Rationals only: _kronecker on the operands' numerators over their lcm
    denominators. Returns what ltt_matvec_naive returns, values and types
    (entry i is an int when every entry it pairs is an int), and counts the
    n(n+1)/2 coefficient products of the field-operation model.
    """
    if len(a) != len(v):
        raise ValueError(f"length mismatch: column {len(a)}, vector {len(v)}")
    if not a:
        raise ValueError("empty column")
    (ia, da), (iv, dv) = _numerators(a), _numerators(v)
    # entry i of the naive sum turns Fraction at the first Fraction it pairs
    return _values(_kronecker([ia], iv, ops)[0], da * dv, min(first_non_int(a), first_non_int(v)))


# The first column of the product of the l.t.T. matrices built on a and u is
# L(a) u, the same truncated series product, so the result column again
# generates the product matrix.
ltt_compose = ltt_matvec_naive


def _extend_denominator(values, den, q):
    """Integer numerators ``values`` over ``den``, brought over a multiple of ``q``.

    Returns (values, den) unchanged when q divides den, else every value
    times the one factor that makes den the lcm of den and q.
    """
    if den % q:
        scale = q // math.gcd(den, q)
        return [v * scale for v in values], den * scale
    return values, den


def _substitute(rows, ints=0):
    """Exact forward substitution on integer rows: x_i = (g_i - r_i . x) / d_i.

    ``rows`` yields (r_i, d_i, gn_i, gd_i): the integer coefficients of
    x_0..x_{i-1}, the nonzero integer diagonal, and g_i = gn_i / gd_i, not
    necessarily in lowest terms. The unknowns are kept as integer
    numerators over one running denominator, the lcm of the denominators
    of x so far; an x_i whose denominator does not divide it rescales every
    numerator once. So each row costs one integer dot product and one
    Fraction. The first ``ints`` entries, integers by the caller's
    guarantee, are returned as ints and the rest as Fractions.
    """
    x, nums, den = [], [], 1
    for i, (r, d, gn, gd) in enumerate(rows):
        s = sum(map(mul, r, nums))
        if i < ints:  # den and gd are still 1
            p = (gn - s) // d
            x.append(p)
            nums.append(p)
            continue
        xi = Fraction(gn * den - gd * s, gd * den * d)
        x.append(xi)
        nums, den = _extend_denominator(nums, den, xi.denominator)
        nums.append(xi.numerator * (den // xi.denominator))
    return x


def _toeplitz_rows(a, f):
    # Row i of L(a) x = f for _substitute: a_i..a_1 and a_0 as integer
    # numerators over the lcm of the denominators of a_0..a_i, extended as
    # the rows reach new entries, so early rows multiply short integers.
    # The list yielded is updated in place for the next row.
    da = a[0].denominator
    rev = []  # a_i..a_1 over da
    for i, v in enumerate(f):
        if i:
            rev, da = _extend_denominator(rev, da, a[i].denominator)
            rev.insert(0, a[i].numerator * (da // a[i].denominator))
        yield rev, a[0].numerator * (da // a[0].denominator), da * v.numerator, v.denominator


def _int_prefix(a, f_ints):
    # entries x_i of L(a)^-1 f that per-term arithmetic leaves ints: head 1,
    # ints a_1..a_i, and i below f_ints, the index of f's first non-int
    return min(first_non_int(a[1:]) + 1, f_ints) if a[0] == 1 else 0


def ltt_solve_forward(a, f):
    """Solve the l.t.T. system with first column ``a`` by forward substitution.

    O(n^2). Over rationals it is exact and runs on integers: row i holds
    a_0..a_i as integer numerators over the lcm of their denominators, and
    is one _substitute step, an integer dot product and one Fraction. An
    int column with head 1 and an int right-hand side never leaves int
    arithmetic. Entry i is an int when the head is 1 and f_0..f_i and
    a_1..a_i are ints, otherwise a Fraction, as in per-term Fraction
    arithmetic. A float or complex entry in either operand makes the solve
    complex, by the plain per-term loop; then an entry of either operand
    that is NaN, infinite or beyond the double range raises ValueError.
    """
    n = len(a)
    if len(f) != n:
        raise ValueError(f"length mismatch: column {n}, rhs {len(f)}")
    if not a:
        raise ValueError("empty column")
    complex_solve = COMPLEX in (field_of(a), field_of(f))
    if complex_solve:
        _require_finite(a, "column")
        _require_finite(f, "rhs")
    a0 = a[0]
    if a0 == 0:
        raise SingularMatrixError("leading coefficient is zero")
    if complex_solve:
        if isinstance(a0, int):
            a0 = Fraction(a0)  # int / int would give floats
        ar = a[::-1]
        x = []
        for i in range(n):
            s = f[i] - sum(map(mul, ar[n - 1 - i : n - 1], x))
            x.append(s if a0 == 1 else s / a0)
        return x
    return _substitute(_toeplitz_rows(a, f), _int_prefix(a, first_non_int(f)))


def spread(v, base: int, power: int, out_len: int):
    """Insert base**power - 1 zeros after each component, truncate to out_len.

    Component v[j] lands at index j * base**power; indexes past out_len are
    dropped.
    """
    if base < 2 or power < 1:
        raise ValueError("spread needs base >= 2 and power >= 1")
    if out_len < 1:
        raise ValueError("output length must be >= 1")
    step = base**power
    out = [0] * out_len
    for j, value in enumerate(v):
        pos = j * step
        if pos >= out_len:
            break
        out[pos] = value
    return out


def unspread(v, base: int, power: int = 1):
    """Keep the components at indexes 0, base**power, 2*base**power, ..."""
    if base < 2 or power < 1:
        raise ValueError("unspread needs base >= 2 and power >= 1")
    return list(v[:: base**power])


def format_vector(values) -> str:
    """Vector file text: a '# n=<len> field=<field>' header, then one scalar per line."""
    lines = [f"# n={len(values)} field={field_of(values)}"]
    lines.extend(format_scalar(v) for v in values)
    return "\n".join(lines) + "\n"


def write_vector(path, values) -> None:
    """Write ``values`` to ``path`` in the format_vector form."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_vector(values))


def read_vector(path):
    """Read a vector file, returning (values, field).

    The header line is optional; without it the field is inferred from the
    first value line (a comma, dot or exponent marks the complex field).
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    field = None
    declared = None
    if lines and lines[0].startswith("#"):
        header = lines.pop(0)
        for tok in header[1:].split():
            if tok.startswith("field="):
                field = tok[len("field=") :]
            elif tok.startswith("n="):
                declared = int(tok[len("n=") :])
    if not lines:
        raise ValueError(f"empty vector file: {path}")
    if field is None:
        field = COMPLEX if any(c in lines[0] for c in ",.eE") else RATIONAL
    if field not in (RATIONAL, COMPLEX):
        raise ValueError(f"bad field in header of {path}: {field!r}")
    values = [parse_scalar(ln, field) for ln in lines]
    if declared is not None and declared != len(values):
        raise ValueError(f"header says n={declared} but file has {len(values)} values")
    return values, field
