"""Radix-b discrete Fourier transforms and fast Toeplitz matrix-vector products.

Conventions fixed here and relied on everywhere else:

* Transforms are unnormalized: ``dft`` computes ``W z`` with
  ``W[i][k] = w**(i*k)`` and ``w = exp(2*pi*i/n)``; ``idft`` computes
  ``W^{-1} z = conj(W conj(z)) / n``.
* A circulant is identified by its first ROW ``a``; it diagonalizes as
  ``C(a) = W d(W a) W^{-1}``, so one product costs three transforms plus
  one pointwise multiply. The (-1)-circulant version conjugates by the
  diagonal of powers of ``rho = exp(pi*i/n)``.
* Transform lengths must be pure powers of one base; mixed lengths are
  rejected rather than planned mixed-radix.

Two procedures compute ``T v`` for a full Toeplitz ``T`` of order n = b**k:
embedding T into a (b*n) x (b*n) circulant, or splitting T into the sum of a
circulant and a (-1)-circulant of order n. Both run in O(n log n).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .opcount import OpCounter
from .scalars import neg_root

__all__ = [
    "DftPlan",
    "ToeplitzSpec",
    "plan_for",
    "dft",
    "idft",
    "circulant_matvec",
    "neg_circulant_matvec",
    "circulant_embedding_row",
    "toeplitz_matvec_embed",
    "toeplitz_matvec_split",
    "toeplitz_matvec_naive",
    "ltt_matvec_fft",
]


def _check_power(n: int, base: int) -> int:
    """Return k with n == base**k, or raise."""
    if base < 2:
        raise ValueError("base must be >= 2")
    if n < 1:
        raise ValueError("length must be >= 1")
    k = 0
    m = n
    while m > 1:
        if m % base:
            raise ValueError(f"length {n} is not a power of base {base}")
        m //= base
        k += 1
    return k


def infer_base(n: int) -> int:
    """Smallest base b >= 2 with n == b**k (n itself if n is not a proper power)."""
    if n < 1:
        raise ValueError("length must be >= 1")
    if n == 1:
        return 2
    for b in range(2, n + 1):
        m = n
        while m % b == 0:
            m //= b
        if m == 1:
            return b
    raise AssertionError("unreachable")


class DftPlan:
    """Immutable tables for radix-b transforms of one length n = base**k.

    ``root_table[j]`` holds ``exp(2*pi*i*j/n)``; ``permutation`` is the input
    reordering obtained by recursively grouping indexes by residue class mod
    base (base-b digit reversal), after which the transform proceeds
    breadth-first through block sizes base, base**2, ..., n.
    """

    __slots__ = ("n", "base", "levels", "root_table", "permutation")

    def __init__(self, n: int, base: int):
        self.levels = _check_power(n, base)
        self.n = n
        self.base = base
        self.root_table = tuple(cmath.exp(2j * cmath.pi * j / n) for j in range(n))
        self.permutation = tuple(_digit_reversal(n, base))


def _digit_reversal(n, base):
    def group(ix):
        if len(ix) <= 1:
            return ix
        out = []
        for r in range(base):
            out.extend(group(ix[r::base]))
        return out

    return group(list(range(n)))


_PLAN_CACHE: dict[tuple[int, int], DftPlan] = {}


def plan_for(n: int, base: int) -> DftPlan:
    """Memoized plan lookup; plans are immutable and safe to share."""
    key = (n, base)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = _PLAN_CACHE[key] = DftPlan(n, base)
    return plan


def dft(z, plan: DftPlan, ops: OpCounter | None = None):
    """Unnormalized forward transform of z (length plan.n), radix plan.base.

    Values are coerced to complex. Each block of size L is built from base
    blocks of size L/base: entry q*m+k of the block is
    ``sum_r w_base**(q*r) * (w_L**(k*r) * sub_r[k])`` with m = L/base.
    """
    n = plan.n
    if len(z) != n:
        raise ValueError(f"length mismatch: vector {len(z)}, plan {n}")
    b = plan.base
    roots = plan.root_table
    perm = plan.permutation
    x = [complex(z[i]) for i in perm]
    if n == 1:
        return x
    mults = 0
    if b == 2:
        L = 2
        while L <= n:
            m = L >> 1
            stride = n // L
            for off in range(0, n, L):
                om = off + m
                u = x[off]
                t = x[om]
                x[off] = u + t
                x[om] = u - t
                for k in range(1, m):
                    t = x[om + k] * roots[stride * k]
                    u = x[off + k]
                    x[off + k] = u + t
                    x[om + k] = u - t
            mults += (m - 1) * (n // L)
            L <<= 1
    elif b == 3:
        w1 = roots[n // 3]
        w2 = roots[2 * (n // 3)]
        L = 3
        while L <= n:
            m = L // 3
            stride = n // L
            for off in range(0, n, L):
                o1 = off + m
                o2 = o1 + m
                u0 = x[off]
                t1 = x[o1]
                t2 = x[o2]
                x[off] = u0 + t1 + t2
                x[o1] = u0 + w1 * t1 + w2 * t2
                x[o2] = u0 + w2 * t1 + w1 * t2
                for k in range(1, m):
                    t1 = x[o1 + k] * roots[stride * k]
                    t2 = x[o2 + k] * roots[2 * stride * k]
                    u0 = x[off + k]
                    x[off + k] = u0 + t1 + t2
                    x[o1 + k] = u0 + w1 * t1 + w2 * t2
                    x[o2 + k] = u0 + w2 * t1 + w1 * t2
            mults += (6 * m - 2) * (n // L)
            L *= 3
    else:
        wb = [roots[(n // b) * j] for j in range(b)]
        L = b
        while L <= n:
            m = L // b
            stride = n // L
            for off in range(0, n, L):
                block = x[off : off + L]
                for k in range(m):
                    ts = []
                    for r in range(b):
                        v = block[r * m + k]
                        e = stride * k * r
                        if e:
                            v = v * roots[e]
                            mults += 1
                        ts.append(v)
                    for q in range(b):
                        acc = ts[0]
                        for r in range(1, b):
                            j = (q * r) % b
                            if j:
                                acc = acc + ts[r] * wb[j]
                                mults += 1
                            else:
                                acc = acc + ts[r]
                        x[off + q * m + k] = acc
            L *= b
    if ops is not None:
        ops.add(mults)
    return x


def idft(z, plan: DftPlan, ops: OpCounter | None = None):
    """Inverse transform: conj(dft(conj(z))) / n, so idft(dft(z)) == z."""
    w = dft([complex(v).conjugate() for v in z], plan, ops)
    inv = 1.0 / plan.n
    if ops is not None:
        ops.add(plan.n)
    return [v.conjugate() * inv for v in w]


def _resolve_plan(n: int, base: int | None) -> DftPlan:
    return plan_for(n, infer_base(n) if base is None else base)


def circulant_matvec(first_row, v, base: int | None = None, ops: OpCounter | None = None):
    """Product C(a) v for the circulant with first row a, via three transforms.

    C(a) has entries C[i][j] = a[(j - i) mod n].
    """
    n = len(first_row)
    if len(v) != n:
        raise ValueError(f"length mismatch: row {n}, vector {len(v)}")
    plan = _resolve_plan(n, base)
    fa = dft(first_row, plan, ops)
    u = idft(v, plan, ops)
    if ops is not None:
        ops.add(n)
    return dft([p * q for p, q in zip(fa, u)], plan, ops)


def neg_circulant_matvec(first_row, v, base: int | None = None, ops: OpCounter | None = None):
    """Product C_-(a) v for the (-1)-circulant with first row a.

    C_-(a) has entries a[(j - i) mod n] negated below the diagonal; it is the
    circulant algebra conjugated by diag(rho**j) with rho**n = -1.
    """
    n = len(first_row)
    if len(v) != n:
        raise ValueError(f"length mismatch: row {n}, vector {len(v)}")
    rho = neg_root(n)
    d = [1.0 + 0j]
    for _ in range(n - 1):
        d.append(d[-1] * rho)
    row = [p * complex(a) for p, a in zip(d, first_row)]
    w = circulant_matvec(row, [p.conjugate() * complex(u) for p, u in zip(d, v)], base, ops)
    if ops is not None:
        # rho powers plus three diagonal scalings of length n
        ops.add(4 * n - 1)
    return [p * q for p, q in zip(d, w)]


@dataclass(frozen=True)
class ToeplitzSpec:
    """A full n x n Toeplitz matrix given by its 2n-1 diagonal values.

    ``diags`` lists t_{-(n-1)}, ..., t_{-1}, t_0, t_1, ..., t_{n-1}; entry
    (i, j) of the matrix is t_{i-j}. Lower triangular means t_k = 0 for k < 0.
    """

    n: int
    diags: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("order must be >= 1")
        if len(self.diags) != 2 * self.n - 1:
            raise ValueError(f"need {2 * self.n - 1} diagonals, got {len(self.diags)}")
        object.__setattr__(self, "diags", tuple(self.diags))

    def value(self, k: int):
        """Diagonal value t_k, zero outside -(n-1) <= k <= n-1."""
        if -self.n < k < self.n:
            return self.diags[self.n - 1 + k]
        return 0

    @classmethod
    def from_lower_column(cls, a) -> "ToeplitzSpec":
        """Lower triangular Toeplitz spec whose first column is a."""
        n = len(a)
        return cls(n, tuple([0] * (n - 1) + list(a)))


def circulant_embedding_row(spec: ToeplitzSpec, base: int) -> list:
    """First row of the (base*n)-circulant whose upper-left block is the Toeplitz.

    Layout: [t_0, t_{-1}, ..., t_{-n+1}, zeros((base-2)*n + 1), t_{n-1}, ..., t_1].
    """
    if base < 2:
        raise ValueError("base must be >= 2")
    n = spec.n
    row = [spec.value(0)]
    row.extend(spec.value(-i) for i in range(1, n))
    row.extend([0] * ((base - 2) * n + 1))
    row.extend(spec.value(n - i) for i in range(1, n))
    return row


def toeplitz_matvec_embed(spec: ToeplitzSpec, v, base: int, ops: OpCounter | None = None):
    """T v by embedding T into a (base*n)-circulant, multiplying, truncating."""
    n = spec.n
    if len(v) != n:
        raise ValueError(f"length mismatch: matrix {n}, vector {len(v)}")
    _check_power(n, base)
    row = circulant_embedding_row(spec, base)
    padded = list(v) + [0] * ((base - 1) * n)
    return circulant_matvec(row, padded, base, ops)[:n]


def toeplitz_matvec_split(spec: ToeplitzSpec, v, base: int | None = None, ops: OpCounter | None = None):
    """T v via T = C(a) + C_-(a') with a_i = (t_{-i} + t_{n-i})/2, a'_i = (t_{-i} - t_{n-i})/2.

    Indexes i = 0..n-1 and t_n taken as zero; the first rows a, a' recombine
    the wrapped and sign-flipped diagonals so the two algebra members sum to T.
    """
    n = spec.n
    if len(v) != n:
        raise ValueError(f"length mismatch: matrix {n}, vector {len(v)}")
    if base is None:
        base = infer_base(n)
    _check_power(n, base)
    row = []
    row_neg = []
    for i in range(n):
        lo = complex(spec.value(-i))
        hi = complex(spec.value(n - i)) if i else 0j  # t_n = 0
        row.append((lo + hi) * 0.5)
        row_neg.append((lo - hi) * 0.5)
    w1 = circulant_matvec(row, v, base, ops)
    w2 = neg_circulant_matvec(row_neg, v, base, ops)
    return [p + q for p, q in zip(w1, w2)]


def toeplitz_matvec_naive(spec: ToeplitzSpec, v, ops: OpCounter | None = None):
    """Dense O(n^2) Toeplitz product, any order; exact over rationals."""
    n = spec.n
    if len(v) != n:
        raise ValueError(f"length mismatch: matrix {n}, vector {len(v)}")
    d = spec.diags
    out = []
    for i in range(n):
        out.append(sum(d[n - 1 + i - j] * v[j] for j in range(n)))
    if ops is not None:
        ops.add(n * n)
    return out


def ltt_matvec_fft(a, v, base: int | None = None, ops: OpCounter | None = None):
    """Lower triangular Toeplitz product via the circulant embedding.

    Complex-field fast path for the solver; length must be a power of base.
    """
    n = len(a)
    if len(v) != n:
        raise ValueError(f"length mismatch: column {n}, vector {len(v)}")
    if base is None:
        base = infer_base(n)
    if n == 1:
        if ops is not None:
            ops.add(1)
        return [complex(a[0]) * complex(v[0])]
    return toeplitz_matvec_embed(ToeplitzSpec.from_lower_column(a), v, base, ops)
