"""Truncated lower triangular Toeplitz (l.t.T.) columns and their naive algebra.

A length-n coefficient list ``a`` stands for the n x n matrix with ``a[k]``
on the k-th subdiagonal, equivalently for the power series
``a[0] + a[1] z + ... + a[n-1] z**(n-1)`` truncated mod ``z**n``. Every
product here is the upper-left n x n block of the corresponding semi-infinite
product, i.e. plain series multiplication mod ``z**n``.

The quadratic routines in this module are exact over rationals and serve as
the reference implementations for every fast path in the package.
_kronecker is the exact product the solver runs on integer numerators over
one denominator, by four-point Kronecker substitution: four big-integer
multiplies of a quarter of the size, of the operands and of their
reversals at +X and -X. Its digits are t bits, about half the bound B on
the coefficients' bits, and each coefficient, which spans two digits, is
read from the bottom of one product and the top of the reversed one. One
call takes the (p, v) operand pairs of one product phase: one digit for
all of them, and each distinct operand packed once, so a pair of one list
is a squaring.
ltt_matvec_kronecker wraps it for ints and Fractions, and
ltt_matvec_naive is its oracle.
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
from .scalars import COMPLEX, RATIONAL, _complex_operands, _in_double_range, field_of, format_scalar, parse_scalar


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


def _kronecker_digit_bits(pairs):
    """Digit width t of _kronecker: the smallest multiple of 16 with 2t >= B + 2, B the largest over the pairs.

    Every |p_i| < 2**bits(max|p|) and |v_j| < 2**bits(max|v|), and each
    coefficient of p v is a sum of at most len(v) < 2**bits(len v) pair
    products, so |c| < 2**B with B = bits(max|p|) + bits(max|v|) +
    bits(len v). With Y = 2**t that is |c| < Y**2 / 4: a coefficient spans
    about two digits, and t is about B/2, not the width of the widest entry.
    """
    bits = max(max(map(abs, p)).bit_length() + max(map(abs, v)).bit_length() + len(v).bit_length() for p, v in pairs)
    return (bits + 33) // 32 * 16


def _kronecker_evaluate(ints, t):
    # [a(X), a(-X), r(X), r(-X)], X = 2**(t/2), for a = ints and its reversal r.
    # Each entry plus 2**(wide-1) is one wide-bit chunk, wide = t, or 2t when
    # an entry has t bits or more; a(+-X) = even(Y) +- X odd(Y), Y = X**2,
    # with even and odd joined apart from the chunks, and the reversal's from
    # the same chunks in reverse. At 2t a half is two planes, the entries at
    # its even and at its odd digits, each in 2t-bit slots, the second one
    # digit up.
    planes = 1 if max(map(abs, ints)).bit_length() < t else 2
    wide = planes * t
    chunks = [(x + (1 << (wide - 1))).to_bytes(wide // 8, "little") for x in ints]
    ones = b"\x01" + bytes(t // 8 - 1)
    even_off = int.from_bytes(ones * ((len(ints) + 1) // 2), "little") << (wide - 1)
    odd_off = int.from_bytes(ones * (len(ints) // 2), "little") << (wide - 1 + t // 2)
    out = []
    for c in (chunks, chunks[::-1]):
        # plane j of a half: every (2 planes)-th chunk from the half's j-th, j digits up
        even, odd = (
            sum(int.from_bytes(b"".join(c[i + 2 * j :: 2 * planes]), "little") << t * j for j in range(planes))
            for i in (0, 1)
        )
        even, odd = even - even_off, (odd << (t // 2)) - odd_off
        out += (even + odd, even - odd)
    return out


def _kronecker_recover(low, high, top, count, t):
    # e_0..e_{count-1} from low = sum_k e_k Y**k and high = sum_k e_k Y**(top-k),
    # every |e_k| < Y**2 / 4 (see _kronecker)
    if not count:
        return []
    w, mask, half = t // 8, (1 << t) - 1, 1 << (t - 1)
    lows = (low & ((1 << (t * count)) - 1)).to_bytes(w * count, "little")
    # digits top-1, top-2, ... of high, above one zero digit for the last step
    ups = bytes(w) + ((high >> (t * (top + 1 - count))) & ((1 << (t * count - t)) - 1)).to_bytes(w * count - w, "little")
    out, carry, g = [], 0, (high >> (t * top)) - half  # g: the estimate of e_k, less Y/2
    for i, j in zip(range(0, w * count, w), range(w * count - w, -1, -w)):
        r = (int.from_bytes(lows[i : i + w], "little") - carry - g) & mask
        e = g + r  # e = digit - carry mod Y, and e - (g + Y/2) in [-Y/2, Y/2)
        out.append(e)
        carry = (carry + e) >> t
        g = ((half - r) << t) + int.from_bytes(ups[j : j + w], "little") - half
    return out


def _kronecker(pairs, ops: OpCounter | None = None):
    """Integer l.t.T. products p(z) v(z) mod z**len(p), (p, v) in pairs, by four-point Kronecker substitution.

    h = p v, of degree D = len(p) + len(v) - 2, is read off its values at
    +-X and those of its reversal z**D h(1/z) at +-X, X = 2**(t/2) with t
    from _kronecker_digit_bits, one digit for all the pairs: four multiplies
    of a quarter of the size (KS4; Harvey, JSC 44, 2009). Each distinct
    operand, told by identity, and its reversal are evaluated at +-X once
    for all the pairs (_kronecker_evaluate), so a pair of one list gives
    four squarings. With Y = X**2 = 2**t, (h(X) + h(-X)) / 2 =
    sum_k e_k Y**k holds the even coefficients e_k = h_2k and (h(X) -
    h(-X)) / (2X) the odd ones; each spans about two digits, so neighbours
    overlap. The same sums for the reversal give high = sum_k e_k Y**(K-k),
    K = D // 2, for the evens and likewise for the odds, but an odd D swaps
    them: the reversal's even coefficients are then h's odd ones.

    Recovery, from the bottom of low and the top of high at once: with carry
    = floor(sum_{j<k} e_j Y**j / Y**k), digit k of low is e_k + carry mod Y;
    with g = floor(sum_{j>=k} e_j Y**(k-j)), read from the top of high
    less the e_j already found, |g - e_k| < 1 + sum_{j>=1} |e_{k+j}| Y**-j
    < 1 + (Y**2/4) / (Y - 1) < Y/4 + 2. So e_k is the one integer congruent
    to digit - carry mod Y with e_k - g in [-Y/2, Y/2) (Y >= 2**16), and
    both carry and g step to k + 1 with a few operations on ints of about
    2t bits. Only the len(p) wanted coefficients are recovered.
    """
    t = _kronecker_digit_bits(pairs)
    shift = t // 2 + 1  # dividing by 2X
    at = {id(x): x for pair in pairs for x in pair}
    at = {key: _kronecker_evaluate(x, t) for key, x in at.items()}
    out = []
    for p, v in pairs:
        n, top = len(p), len(p) + len(v) - 2
        hp, hm, rp, rm = map(mul, at[id(p)], at[id(v)])
        high = (rp + rm) >> 1, (rp - rm) >> shift  # the reversal's evens and odds
        coeffs = [0] * n
        coeffs[0::2] = _kronecker_recover((hp + hm) >> 1, high[top % 2], top // 2, (n + 1) // 2, t)
        coeffs[1::2] = _kronecker_recover((hp - hm) >> shift, high[1 - top % 2], (top - 1) // 2, n // 2, t)
        out.append(coeffs)
        if ops is not None:
            ops.add(n * (n + 1) // 2)
    return out


def ltt_matvec_kronecker(a, v, ops: OpCounter | None = None):
    """Exact l.t.T. product by four-point Kronecker substitution: four quarter-size multiplies.

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
    return _values(_kronecker([(ia, iv)], ops)[0], da * dv, min(first_non_int(a), first_non_int(v)))


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
    complex: both operands are converted with complex() once and solved by
    the plain per-term loop, so every entry of x is complex. Then an entry
    of either operand that is NaN, infinite or beyond the double range
    raises ValueError, and a solution that leaves the double range raises
    OverflowError.
    """
    n = len(a)
    if len(f) != n:
        raise ValueError(f"length mismatch: column {n}, rhs {len(f)}")
    if not a:
        raise ValueError("empty column")
    complex_solve = _complex_operands(column=a, rhs=f)
    a0 = a[0]
    if a0 == 0:
        raise SingularMatrixError("leading coefficient is zero")
    if complex_solve:
        ar, f, a0 = [complex(v) for v in reversed(a)], [complex(v) for v in f], complex(a0)
        x = []
        for i in range(n):
            s = f[i] - sum(map(mul, ar[n - 1 - i : n - 1], x))
            x.append(s if a0 == 1 else s / a0)
        return _in_double_range(x, "the solution")
    return _substitute(_toeplitz_rows(a, f), _int_prefix(a, first_non_int(f)))


def format_vector(values) -> str:
    """Vector file text: a '# n=<len> field=<field>' header, then one scalar per line.

    Only text that read_vector reads back: every value of a complex vector
    is written as complex, so an int or Fraction beyond the double range
    raises OverflowError naming its index, and a NaN or infinite value
    raises OverflowError. An empty vector raises ValueError.
    """
    if not values:
        raise ValueError("cannot write an empty vector")
    field = field_of(values)
    if field == COMPLEX:
        converted = []
        for i, v in enumerate(values):
            try:
                converted.append(complex(v))
            except OverflowError:
                raise OverflowError(f"vector entry at index {i} is beyond the double range") from None
        values = _in_double_range(converted, "the vector")
    lines = [f"# n={len(values)} field={field}"]
    lines.extend(format_scalar(v) for v in values)
    return "\n".join(lines) + "\n"


def write_vector(path, values) -> None:
    """Write ``values`` to ``path`` in the format_vector form; nothing is opened if that raises."""
    text = format_vector(values)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def read_vector(path):
    """Read a vector file, returning its values: Fractions, or complex numbers.

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
    return values
