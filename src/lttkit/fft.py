"""Radix-b discrete Fourier transforms and fast Toeplitz matrix-vector products.

Conventions fixed here and relied on everywhere else:

* Transforms are unnormalized: ``dft`` computes ``W z`` with
  ``W[i][k] = w**(i*k)`` and ``w = exp(2*pi*i/n)``; ``idft`` computes
  ``W^{-1} z = conj(W conj(z)) / n``, the transform at ``w**-1`` over n.
* A circulant is identified by its first ROW ``a``; it diagonalizes as
  ``C(a) = W d(W a) W^{-1}``, so one product costs three transforms plus
  one pointwise multiply. The (-1)-circulant version conjugates by the
  diagonal of powers of ``rho = exp(pi*i/n)``.
* Every transform and product takes the base it runs at, and its length
  must be a power of that base; any other length raises ValueError rather
  than being planned mixed-radix or as one radix-n stage.

The plan's root table holds ``w**j`` up to the angle pi and, past it,
the exact conjugate of the entry mirrored at pi, which errs about half as
much as ``exp`` of the larger angle. So entry n - k is the conjugate of
entry k (0 < k < n/2), and ``idft`` runs ``dft`` once on the table read
backwards, which multiplies by ``w**-j``, then scales by 1/n: no
conjugation passes. At base 2 the outputs are those of conjugating
around the forward transform to the bit, except the sign of an imaginary
part that cancels to an exact zero.

A plan keeps no index table: a long input is loaded as the strided slices
z[j::s] of blocks of length c <= ``_BLOCK``, each put in digit-reversed
order by one gather shared by the plans of its base, and base-2 plans
share one set of root objects (see ``DftPlan``). Three kernels, one per
case of the paper (b = 2, b = 3 and generic b), then run a transform's
stages. ``_radix_b`` runs any base b >= 3 on whole list
slices with the conjugate-pair butterfly of Singleton (1969): pairing
input r with b-r, a position costs 2*h*h multiplications, h = (b-1)//2,
where forming each output as its own sum cost up to (b-1)**2. Its outputs
differ from those of the per-output sums at ulp level, and lie closer to
the exact transform. ``_radix2`` runs first the 0-2 base-2 stages that do
not fill a radix-2**3 butterfly, each on strided slices, then the rest
three at a time as radix-2**3 butterflies (He & Torkelson, 1996). It
performs the floating-point operations of the plain per-element
Cooley-Tukey butterfly loops, so base-2 outputs and multiplication counts
equal theirs to the bit. ``_radix3`` runs the base-3 stages in place: one
alone when their number is odd, the rest two at a time as radix-3**2
butterflies of scalars. It performs the floating-point operations of
``_radix_b`` at b = 3, so base-3 outputs and counts are those of
``_radix_b`` to the bit, and ``_radix_b`` stays its reference in the tests.

Transforms are pruned where zeros are known or outputs unread (Markel,
1971; Sorensen & Burrus, 1993). ``dft`` and ``idft`` take a vector shorter
than the plan, with implicit zeros, and ``keep``, the number of leading
outputs wanted. At every base, an input of length <= n/base puts one
nonzero entry in each first-stage block, so that stage is a copy. At base
b >= 3, keep <= n/base computes only output block 0 of the last stage, a
sum with no multiplication; at base 2 that would skip only additions, and
``keep`` slices the outputs. Outputs equal the full transform's except for
the signs of zeros. ``toeplitz_matvec_embed`` prunes its transforms of
length b*n this way: v fills n of the inverse transform's inputs, and n
outputs of the last transform are read.

Two procedures compute ``T v`` for a full Toeplitz ``T`` of order n = b**k:
embedding T into a (b*n) x (b*n) circulant, or splitting T into the sum of a
circulant and a (-1)-circulant of order n. Both run in O(n log n). The
lower triangular product ``ltt_matvec_fft`` uses the split, whose transforms
stay at length n for every base.

No public function changes a list it is given. A transform loads its input
into a list of its own and then drops it, so an input handed over (passed
as a temporary, or popped from a one-element holder) loses each value as
the kernel overwrites it. The products hand every transform a list nothing
else holds, and pointwise passes and base-2 slice stages overwrite ``_CHUNK``
entries at a time (``_map_into``): no step holds two copies of a vector.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cache
from itertools import chain, repeat
from operator import add, itemgetter, mul, sub

from .opcount import OpCounter
from .scalars import _complex_operands, _require_finite, neg_root

__all__ = [
    "DftPlan",
    "ToeplitzSpec",
    "plan_for",
    "dft",
    "idft",
    "circulant_matvec",
    "neg_circulant_matvec",
    "toeplitz_matvec_embed",
    "toeplitz_matvec_split",
    "toeplitz_matvec_naive",
    "ltt_matvec_fft",
]


def _check_power(n: int, base: int) -> None:
    """Raise ValueError unless n is a power of base."""
    if base < 2:
        raise ValueError("base must be >= 2")
    if n < 1:
        raise ValueError("length must be >= 1")
    m = n
    while m > 1:
        if m % base:
            raise ValueError(f"length {n} is not a power of base {base}")
        m //= base


# The longest block gathered in one call; its indexes are cached ints. Against one whole-length gather,
# dft at 2**6..2**15, 3**8, 3**9 and 5**5 took 0.98-1.02x the time at 256 and 0.99-1.07x at 64
# (medians of 9 rounds, Python 3.11.7 on a shared 2-vCPU x86-64 host).
_BLOCK = 256


@cache
def _block_gather(c, base):
    # itemgetter of a single index would return a scalar
    return itemgetter(*_digit_reversal(c, base)) if c > 1 else itemgetter(slice(0, 1))


class DftPlan:
    """Tables for radix-b transforms of one length n = base**k.

    ``root_table[j]`` holds ``exp(2*pi*i*j/n)`` for j <= n/2 and, past pi,
    the conjugate of entry n - j, so every entry is computed at an angle of
    at most pi. At base 2 it is every (N/n)-th entry of the longest base-2
    table built so far, N, and a longer plan re-points the cached ones.
    ``gather`` loads a sequence in digit-reversed order, after which the
    transform runs through block sizes base, base**2, ..., n.
    """

    __slots__ = ("n", "base", "root_table", "_stride", "_gather")

    def __init__(self, n: int, base: int):
        _check_power(n, base)
        self.n = n
        self.base = base
        global _BASE2_ROOTS
        longest = _BASE2_ROOTS
        if base == 2 and n <= len(longest):  # exact: 2*pi*(2k)/(2n) rounds as 2*pi*k/n does
            self.root_table = longest[:: len(longest) // n]
        else:
            # past pi, exp of the angle would err up to twice as much as the mirrored entry
            half = [cmath.exp(2j * cmath.pi * j / n) for j in range(n // 2 + 1)]
            self.root_table = table = (*half, *map(complex.conjugate, reversed(half[1 : (n + 1) // 2])))
            if base == 2:
                _BASE2_ROOTS = table
                for plan in list(_PLAN_CACHE.values()):  # one C-level copy: no thread adds a plan mid-loop
                    if plan.base == 2 and plan.n <= n:  # another thread may have cached a longer one
                        plan.root_table = table[:: n // plan.n]
        c = n
        while c > _BLOCK:
            c //= base
        self._stride, self._gather = n // c, _block_gather(c, base)

    def gather(self, z):
        """z in digit-reversed order, as an iterable, or at n = 1 a slice of z.

        Entry q*c + i of the digit reversal of n is entry q of that of s = n/c
        plus s times entry i of that of c: block q is z[j::s], j that entry q.
        """
        s = self._stride
        if s == 1:
            return self._gather(z)
        return chain.from_iterable(map(self._gather, (z[j::s] for j in _digit_reversal(s, self.base))))

    def _backward(self):
        """This plan with root_table read backwards, entry k as entry n - k: dft on it is n * idft.

        Entry n - k is the conjugate of entry k, except entry n/2 of an even
        n, which base 2 never reads. A tuple of n references built per call
        from the instance, so no second table is kept per plan, and the class
        is not looked up on the module, where a tracer may have replaced it.
        """
        twin = object.__new__(type(self))
        for name in self.__slots__:
            setattr(twin, name, getattr(self, name))
        twin.root_table = self.root_table[:1] + self.root_table[:0:-1]
        return twin


def _digit_reversal(n, base):
    # Grouping range(n) by residue class r mod base puts r + base * p in
    # block r, p running over the grouped order of range(n // base).
    perm = [0]
    while len(perm) < n:
        perm = [r + base * p for r in range(base) for p in perm]
    return perm


_PLAN_CACHE: dict[tuple[int, int], DftPlan] = {}
_BASE2_ROOTS: tuple = ()  # the root table of the longest base-2 plan built


def plan_for(n: int, base: int) -> DftPlan:
    """Memoized plan lookup; plans are immutable and safe to share."""
    key = (n, base)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        plan = _PLAN_CACHE[key] = DftPlan(n, base)
    return plan


def dft(z, plan: DftPlan, ops: OpCounter | None = None, keep: int | None = None):
    """Unnormalized forward transform of z, radix plan.base; returns outputs 0..keep-1.

    z may be shorter than plan.n: its missing entries are zeros. ``keep``
    (default plan.n, at least 1) is the number of leading outputs returned.
    Values are coerced to complex and loaded into a list of dft's own, in
    digit-reversed order by the plan's gather, and z is dropped. Each block
    of size L is then built from base blocks of size m = L/base: entry q*m+k
    of the block is ``sum_r w_base**(q*r) * (w_L**(k*r) * sub_r[k])``, each
    power of w read from ``plan.root_table``, by the kernel of the base (see
    the module docstring). At base >= 3 a block takes (base-1)(m-1) twiddle
    multiplications plus 2*h*h*m for its butterflies, h = (base-1)//2.

    Known zeros and unread outputs are skipped. At every base, len(z) <=
    n/base puts one nonzero entry in each first-stage block, so the load
    gathers only those entries, in the order of the length-n/base plan, and
    copies each into its block in place of that stage. At base >= 3,
    keep <= n/base computes only the last stage's output block that holds
    them; at base 2 ``keep`` slices the full outputs. Outputs equal those of
    the zero-padded, untruncated transform except for the signs of zeros.
    """
    n, base = plan.n, plan.base
    if len(z) > n:
        raise ValueError(f"length mismatch: vector {len(z)}, plan {n}")
    if keep is None:
        keep = n
    elif not 1 <= keep <= n:
        raise ValueError(f"keep must be in 1..{n}, got {keep}")
    m = n // base
    if m and len(z) <= m:
        head = list(map(complex, plan_for(m, base).gather(_padded(z, m))))
        x = [None] * n
        for r in range(base):
            x[r::base] = head
        first = base * base  # the first stage is done
    else:
        x = list(map(complex, plan.gather(_padded(z, n))))
        first = base
    del z  # a caller that handed z over holds no reference: each value dies as the kernel replaces it
    if base == 2:
        mults = _radix2(x, plan.root_table, first)
    elif base == 3:
        mults = _radix3(x, plan.root_table, first, keep <= m)
    else:
        mults = _radix_b(x, plan.root_table, base, first, keep <= m)
    if ops is not None:
        ops.add(mults)
    return x if keep == n else x[:keep]


def _padded(z, n):
    return z if len(z) == n else [*z, *repeat(0j, n - len(z))]


# Entries per step of _map_into and of _radix2's slice stages: 40 KiB of new values beside x, where a whole pass held
# n * 40 B. A _map_into pass at n = 2**12, 2**14, 3**7 and 3**9 took 1.08-1.11x the time of list(map(...)) and freeing
# the old list at 1024, 1.14-1.18x at 256 and 1.08-1.13x at 4096; chunked slice stages kept dft at 2**8..2**15 at
# 1.00-1.01x (medians of 15-31 rounds, Python 3.11.7 on a shared 2-vCPU x86-64 host).
_CHUNK = 1024


def _map_into(op, x, ys):
    """x[k] = op(x[k], y_k), y_k from ys, in place _CHUNK entries at a time, so old values die as it goes; returns x."""
    ys = iter(ys)
    for i in range(0, len(x), _CHUNK):
        x[i : i + _CHUNK] = map(op, x[i : i + _CHUNK], ys)
    return x


def _twiddled(v, w):
    # v[k] * w[k] for k >= 1; twiddle index 0 is not multiplied
    out = list(map(mul, v, w))
    out[0] = v[0]
    return out


def _radix2(x, roots, L):
    """Radix-2 stages L, 2L, ..., n in place on digit-reversed x; returns the multiplication count.

    The 0-2 stages that do not fill a radix-2**3 sweep run first, each as
    m = L/2 <= 4 butterflies on strided slices of one ``_CHUNK`` of x at a
    time, so a chunk's old values die before the next is written: entries k
    and m + k of every block are x[k::L] and x[m+k::L], the second times
    roots[k*n/L] for k >= 1. Every later sweep runs the stages L, 2L and 4L
    together as a radix-2**3 butterfly on the eight entries off + k + j*m,
    j = 0..7: the stage-L and stage-2L results stay in locals and only the
    stage-4L results are stored. The last sweep ends at n. Every stage
    computes all its outputs. Twiddle index 0 is not multiplied.
    """
    n = len(x)
    mults = 0
    for _ in range((n // L).bit_length() % 3):
        m = L >> 1
        s = n // L
        mults += (m - 1) * s
        for lo in range(0, n, _CHUNK):  # L divides _CHUNK
            hi = lo + _CHUNK
            for k in range(m):
                u = x[lo + k : hi : L]
                t = x[lo + m + k : hi : L]
                if k:
                    t = list(map(mul, t, repeat(roots[s * k])))
                x[lo + k : hi : L] = map(add, u, t)
                x[lo + m + k : hi : L] = map(sub, u, t)
        L <<= 1
    o, q, h = n // 8, n // 4, n // 2
    # at k = 0 the twiddles not of index 0 are those of stage 2L at m and of
    # stage 4L at m, L and L + m: roots n/4, n/8, n/4 and 3n/8 in every sweep
    c1, c2, c3 = roots[o], roots[q], roots[3 * o]
    while 4 * L <= n:
        m = L >> 1
        s = n // (4 * L)  # twiddle j is roots[j*s] at stage 4L, roots[2*j*s] at 2L, roots[4*j*s] at L
        mults += (m - 1) * 4 * s + (L - 1) * 2 * s + (2 * L - 1) * s
        # the twiddles of k = 1..m-1: stage L at k, stage 2L at k and m + k,
        # stage 4L at k, m + k, L + k and L + m + k
        rows = zip(
            range(1, m),
            roots[4 * s : h : 4 * s],
            roots[2 * s : q : 2 * s],
            roots[q + 2 * s : h : 2 * s],
            roots[s:o:s],
            roots[o + s : q : s],
            roots[q + s : 3 * o : s],
            roots[3 * o + s : h : s],
        )
        if 4 * L < n:
            rows = list(rows)  # read once per block; the last sweep has one block
        for p0 in range(0, n, 4 * L):
            p1 = p0 + m
            p2 = p1 + m
            p3 = p2 + m
            p4 = p3 + m
            p5 = p4 + m
            p6 = p5 + m
            p7 = p6 + m
            u = x[p0]
            t = x[p1]
            a0 = u + t
            a1 = u - t
            u = x[p2]
            t = x[p3]
            a2 = u + t
            a3 = u - t
            u = x[p4]
            t = x[p5]
            a4 = u + t
            a5 = u - t
            u = x[p6]
            t = x[p7]
            a6 = u + t
            a7 = u - t
            b0 = a0 + a2
            b2 = a0 - a2
            t = a3 * c2
            b1 = a1 + t
            b3 = a1 - t
            b4 = a4 + a6
            b6 = a4 - a6
            t = a7 * c2
            b5 = a5 + t
            b7 = a5 - t
            x[p0] = b0 + b4
            x[p4] = b0 - b4
            t = b5 * c1
            x[p1] = b1 + t
            x[p5] = b1 - t
            t = b6 * c2
            x[p2] = b2 + t
            x[p6] = b2 - t
            t = b7 * c3
            x[p3] = b3 + t
            x[p7] = b3 - t
            for k, w, w20, w21, w30, w31, w32, w33 in rows:
                u = x[p0 + k]
                t = x[p1 + k] * w
                a0 = u + t
                a1 = u - t
                u = x[p2 + k]
                t = x[p3 + k] * w
                a2 = u + t
                a3 = u - t
                u = x[p4 + k]
                t = x[p5 + k] * w
                a4 = u + t
                a5 = u - t
                u = x[p6 + k]
                t = x[p7 + k] * w
                a6 = u + t
                a7 = u - t
                t = a2 * w20
                b0 = a0 + t
                b2 = a0 - t
                t = a3 * w21
                b1 = a1 + t
                b3 = a1 - t
                t = a6 * w20
                b4 = a4 + t
                b6 = a4 - t
                t = a7 * w21
                b5 = a5 + t
                b7 = a5 - t
                t = b4 * w30
                x[p0 + k] = b0 + t
                x[p4 + k] = b0 - t
                t = b5 * w31
                x[p1 + k] = b1 + t
                x[p5 + k] = b1 - t
                t = b6 * w32
                x[p2 + k] = b2 + t
                x[p6 + k] = b2 - t
                t = b7 * w33
                x[p3 + k] = b3 + t
                x[p7 + k] = b3 - t
        L <<= 3
    return mults


def _radix3(x, roots, L, pruned):
    """Radix-3 stages L, 3L, ..., n in place on digit-reversed x; returns the multiplication count.

    Every butterfly does the float operations of ``_pair_butterfly`` at
    b = 3 on the twiddled entries t0, t1, t2: s = t1 + t2, y0 = t0 + s,
    a = t0 + s*cos, B = (t1 - t2)*isin, y1 = a + B, y2 = a - B, so outputs
    and counts equal ``_radix_b``'s to the bit. When the stages to run in
    full (up to n/3 if ``pruned``, else up to n) are odd in number, the first
    runs alone, one scalar butterfly per position. Every later sweep runs
    stages L and 3L together as a radix-3**2 butterfly on the nine entries
    off + k + j*m, j = 0..8: the stage-L results stay in locals and only the
    stage-3L results are stored. A pruned last stage then forms y0 alone.
    Everything runs in place, each output stored as it is formed (stored as
    one tuple, they ran 2-5% slower once dft dropped its input); twiddle
    index 0 is not multiplied.
    """
    n = len(x)
    top = n // 3 if pruned and L <= n else n
    cos = complex(roots[n // 3].real, 0.0)
    isin = complex(0.0, roots[n // 3].imag)
    mults = 0
    if top // L % 8 == 1:  # top // L is 3**e, which is 1 mod 8 for even e: L..top are odd in number
        m = L // 3
        m2 = 2 * m
        s = n // L
        mults += (4 * m - 2) * s
        for k in range(m):
            w1 = roots[s * k]
            w2 = roots[2 * s * k]
            for p in range(k, n, L):
                t0 = x[p]
                t1 = x[p + m]
                t2 = x[p + m2]
                if k:
                    t1 *= w1
                    t2 *= w2
                u = t1 + t2
                d = (t1 - t2) * isin
                a = t0 + u * cos
                x[p] = t0 + u
                x[p + m] = a + d
                x[p + m2] = a - d
        L *= 3
    o = n // 9
    # at k = 0 stage L takes no twiddle and stage 3L twiddles only its entries m and 2m,
    # by roots n/9, 2n/9 and 4n/9 in every sweep
    c1, c2, c4 = roots[o], roots[2 * o], roots[4 * o]
    while 3 * L <= top:
        m = L // 3
        s = n // (3 * L)  # twiddle r of k is roots[r*s*k] at stage 3L, roots[3*r*s*k] at L
        mults += (4 * m - 2) * 3 * s + (12 * m - 2) * s
        # k = 1..m-1: stage L at k, stage 3L at k, m + k and 2m + k
        rows = zip(
            range(1, m),
            roots[3 * s : 3 * o : 3 * s],
            roots[6 * s : 6 * o : 6 * s],
            roots[s:o:s],
            roots[2 * s : 2 * o : 2 * s],
            roots[o + s : 2 * o : s],
            roots[2 * o + 2 * s : 4 * o : 2 * s],
            roots[2 * o + s : 3 * o : s],
            roots[4 * o + 2 * s : 6 * o : 2 * s],
        )
        if 3 * L < n:
            rows = list(rows)  # read once per block; the last sweep has one block
        for p0 in range(0, n, 3 * L):
            p1 = p0 + m
            p2 = p1 + m
            p3 = p2 + m
            p4 = p3 + m
            p5 = p4 + m
            p6 = p5 + m
            p7 = p6 + m
            p8 = p7 + m
            t0 = x[p0]
            t1 = x[p1]
            t2 = x[p2]
            u = t1 + t2
            d = (t1 - t2) * isin
            a = t0 + u * cos
            y0, y1, y2 = t0 + u, a + d, a - d
            t0 = x[p3]
            t1 = x[p4]
            t2 = x[p5]
            u = t1 + t2
            d = (t1 - t2) * isin
            a = t0 + u * cos
            y3, y4, y5 = t0 + u, a + d, a - d
            t0 = x[p6]
            t1 = x[p7]
            t2 = x[p8]
            u = t1 + t2
            d = (t1 - t2) * isin
            a = t0 + u * cos
            y6, y7, y8 = t0 + u, a + d, a - d
            u = y3 + y6
            d = (y3 - y6) * isin
            a = y0 + u * cos
            x[p0] = y0 + u
            x[p3] = a + d
            x[p6] = a - d
            t1 = y4 * c1
            t2 = y7 * c2
            u = t1 + t2
            d = (t1 - t2) * isin
            a = y1 + u * cos
            x[p1] = y1 + u
            x[p4] = a + d
            x[p7] = a - d
            t1 = y5 * c2
            t2 = y8 * c4
            u = t1 + t2
            d = (t1 - t2) * isin
            a = y2 + u * cos
            x[p2] = y2 + u
            x[p5] = a + d
            x[p8] = a - d
            for k, w1, w2, v1, v2, v3, v4, v5, v6 in rows:
                t1 = x[p1 + k] * w1
                t2 = x[p2 + k] * w2
                t0 = x[p0 + k]
                u = t1 + t2
                d = (t1 - t2) * isin
                a = t0 + u * cos
                y0, y1, y2 = t0 + u, a + d, a - d
                t1 = x[p4 + k] * w1
                t2 = x[p5 + k] * w2
                t0 = x[p3 + k]
                u = t1 + t2
                d = (t1 - t2) * isin
                a = t0 + u * cos
                y3, y4, y5 = t0 + u, a + d, a - d
                t1 = x[p7 + k] * w1
                t2 = x[p8 + k] * w2
                t0 = x[p6 + k]
                u = t1 + t2
                d = (t1 - t2) * isin
                a = t0 + u * cos
                y6, y7, y8 = t0 + u, a + d, a - d
                t1 = y3 * v1
                t2 = y6 * v2
                u = t1 + t2
                d = (t1 - t2) * isin
                a = y0 + u * cos
                x[p0 + k] = y0 + u
                x[p3 + k] = a + d
                x[p6 + k] = a - d
                t1 = y4 * v3
                t2 = y7 * v4
                u = t1 + t2
                d = (t1 - t2) * isin
                a = y1 + u * cos
                x[p1 + k] = y1 + u
                x[p4 + k] = a + d
                x[p7 + k] = a - d
                t1 = y5 * v5
                t2 = y8 * v6
                u = t1 + t2
                d = (t1 - t2) * isin
                a = y2 + u * cos
                x[p2 + k] = y2 + u
                x[p5 + k] = a + d
                x[p8 + k] = a - d
        L *= 9
    if top < n:
        m = top
        mults += 2 * m - 2
        x[0] += x[m] + x[2 * m]
        for k, t1, t2, w1, w2 in zip(range(1, m), x[m + 1 : 2 * m], x[2 * m + 1 :], roots[1:m], roots[2 : 2 * m : 2]):
            x[k] += t1 * w1 + t2 * w2
    return mults


def _radix_b(x, roots, b, L, pruned):
    """Radix-b stages L, b*L, ..., n in place on digit-reversed x, any b >= 3; returns the count.

    Each stage works on whole slices. With m <= n/L it loops over k and
    takes entry r*m+k of every block as the strided slice x[k + r*m::L];
    otherwise it loops over blocks and takes contiguous slices, zipped with
    a strided slice of the twiddles. The twiddled slices then go through
    ``_pair_butterfly``. ``pruned`` keeps only output block q = 0 of the
    last stage, whose sums take no multiplication. ``dft`` runs it at every
    base but 2 and 3; at base 3 it is the bit-for-bit reference of
    ``_radix3`` in the tests.
    """
    n = len(x)
    h = (b - 1) // 2
    wb = [roots[(n // b) * j] for j in range(b)]  # w_b**j, read at j = q*r mod b, q, r = 1..h
    # cos(2*pi*q*r/b) and i*sin(2*pi*q*r/b) as complex constants: a float would
    # be promoted to complex(c, 0.0) in every product, the same arithmetic, slower
    cos = [[complex(wb[q * r % b].real, 0.0) for r in range(1, h + 1)] for q in range(1, h + 1)]
    isin = [[complex(0.0, wb[q * r % b].imag) for r in range(1, h + 1)] for q in range(1, h + 1)]
    mults = 0
    while L <= n:
        m = L // b
        blocks = n // L
        first_only = pruned and L == n
        if m <= blocks:
            for k in range(m):
                ts = [x[k + r * m :: L] for r in range(b)]
                if k:
                    for r in range(1, b):
                        ts[r] = list(map(mul, ts[r], repeat(roots[blocks * k * r], blocks)))
                for q, y in enumerate(_pair_butterfly(ts, cos, isin, first_only)):
                    x[k + q * m :: L] = y
        else:
            tw = [None] + [roots[: blocks * r * m : blocks * r] for r in range(1, b)]
            for off in range(0, n, L):
                ts = [x[off + r * m : off + r * m + m] for r in range(b)]
                for r in range(1, b):
                    ts[r] = _twiddled(ts[r], tw[r])
                for q, y in enumerate(_pair_butterfly(ts, cos, isin, first_only)):
                    x[off + q * m : off + q * m + m] = y
        mults += ((b - 1) * (m - 1) + (0 if first_only else 2 * h * h * m)) * blocks
        L *= b
    return mults


def _pair_butterfly(ts, cos, isin, first_only):
    """Outputs y_0, ..., y_{b-1} of one radix-b butterfly on the twiddled slices ts, slice-wise.

    Pairs r with b-r (Singleton, 1969): s_r = t_r + t_{b-r} and
    d_r = t_r - t_{b-r}. Then y_0 = t_0 + sum_r s_r, and for q = 1..h,
    h = (b-1)//2, y_q = A_q + B_q and y_{b-q} = A_q - B_q with
    A_q = t_0 + sum_r cos(2*pi*q*r/b) s_r and B_q = sum_r i*sin(2*pi*q*r/b) d_r.
    An even b adds (-1)**q t_{b/2} to A_q and has the output
    y_{b/2} = t_0 + sum_r (-1)**r s_r + (-1)**(b/2) t_{b/2}, all without
    multiplying. That is 2*h*h multiplications per position. ``first_only``
    returns [y_0] alone.
    """
    b = len(ts)
    h = len(cos)
    t0 = ts[0]
    s = [list(map(add, ts[r], ts[b - r])) for r in range(1, h + 1)]
    mid = ts[h + 1] if b % 2 == 0 else None
    y0 = t0
    for sr in s:
        y0 = map(add, y0, sr)
    if mid is not None:
        y0 = map(add, y0, mid)
    if first_only:
        return [list(y0)]
    d = [list(map(sub, ts[r], ts[b - r])) for r in range(1, h + 1)]
    y = [None] * b
    y[0] = list(y0)
    for q in range(1, h + 1):
        a = t0
        for sr, c in zip(s, cos[q - 1]):
            a = map(add, a, map(mul, sr, repeat(c)))
        if mid is not None:
            a = map(sub if q % 2 else add, a, mid)
        a = list(a)
        bq = map(mul, d[0], repeat(isin[q - 1][0]))
        for dr, c in zip(d[1:], isin[q - 1][1:]):
            bq = map(add, bq, map(mul, dr, repeat(c)))
        bq = list(bq)
        y[q] = list(map(add, a, bq))
        y[b - q] = list(map(sub, a, bq))
    if mid is not None:
        ym = t0
        for r, sr in enumerate(s, 1):
            ym = map(sub if r % 2 else add, ym, sr)
        y[h + 1] = list(map(sub if (h + 1) % 2 else add, ym, mid))
    return y


def idft(z, plan: DftPlan, ops: OpCounter | None = None, keep: int | None = None):
    """Inverse transform conj(dft(conj(z))) / n, so idft(dft(z)) == z.

    Takes z and ``keep`` as dft does (a short z has implicit zeros, and
    only the leading ``keep`` outputs are computed and scaled). Runs dft
    once on the plan with its root table read backwards, whose entries
    are the conjugates of the forward ones, and hands it z; then scales its
    outputs by 1/n in place, ``_CHUNK`` at a time (``_map_into``). At base
    2 the outputs equal the conjugated forward transform's to the bit,
    except the sign of an imaginary part that cancels to an exact zero;
    at base >= 3 they may differ at ulp level.
    """
    z = [z]  # popped into dft, so a z handed to idft is held by dft alone
    w = dft(z.pop(), plan._backward(), ops, keep)
    if ops is not None:
        ops.add(len(w))
    return _map_into(mul, w, repeat(1.0 / plan.n))


def circulant_matvec(first_row, v, base: int, ops: OpCounter | None = None):
    """Product C(a) v for the circulant with first row a, via three transforms.

    C(a) has entries C[i][j] = a[(j - i) mod n]; n must be a power of base.
    """
    n = len(first_row)
    if len(v) != n:
        raise ValueError(f"length mismatch: row {n}, vector {len(v)}")
    plan = plan_for(n, base)
    args = [v, first_row]  # often the caller's temporaries: popped, row first, into transforms that hold them alone
    del first_row, v
    if ops is not None:
        ops.add(n)
    return dft(_map_into(mul, dft(args.pop(), plan, ops), idft(args.pop(), plan, ops)), plan, ops)


def neg_circulant_matvec(first_row, v, base: int, ops: OpCounter | None = None):
    """Product C_-(a) v for the (-1)-circulant with first row a.

    C_-(a) has entries a[(j - i) mod n] negated below the diagonal; it is the
    circulant algebra conjugated by diag(rho**j) with rho**n = -1, and n must
    be a power of base. The even powers rho**(2k) are the plan's roots of
    unity w**k, each accurate to an ulp, and the odd ones are w**k * rho;
    repeated multiplication by rho would let the error grow with j.
    """
    n = len(first_row)
    if len(v) != n:
        raise ValueError(f"length mismatch: row {n}, vector {len(v)}")
    plan = plan_for(n, base)
    rho = neg_root(n)
    roots = plan.root_table[: (n + 1) // 2]
    d = [None] * n
    d[::2] = roots
    d[1::2] = map(mul, roots[: n // 2], repeat(rho))
    row = [list(map(mul, d, map(complex, first_row)))]
    del first_row  # often the caller's temporary: it dies before the transforms run
    # pop hands circulant_matvec the only reference to the scaled row, which it drops once transformed
    w = circulant_matvec(row.pop(), list(map(mul, map(complex.conjugate, d), map(complex, v))), base, ops)
    if ops is not None:
        # odd rho powers plus three diagonal scalings of length n
        ops.add(n // 2 + 3 * n)
    return _map_into(mul, d, w)


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

    @classmethod
    def from_lower_column(cls, a) -> "ToeplitzSpec":
        """Lower triangular Toeplitz spec whose first column is a."""
        n = len(a)
        return cls(n, tuple([0] * (n - 1) + list(a)))


def _embedding_row(spec: ToeplitzSpec, base: int) -> list:
    """First row of the (base*n)-circulant whose upper-left block is the Toeplitz.

    Layout: [t_0, t_{-1}, ..., t_{-n+1}, zeros((base-2)*n + 1), t_{n-1}, ..., t_1].
    """
    n = spec.n
    d = spec.diags  # t_k sits at d[n - 1 + k]
    return list(d[n - 1 :: -1]) + [0] * ((base - 2) * n + 1) + list(d[: n - 1 : -1])


def toeplitz_matvec_embed(spec: ToeplitzSpec, v, base: int, ops: OpCounter | None = None):
    """T v by embedding T into a (base*n)-circulant C, multiplying, truncating.

    T v is the first n entries of C (v, 0, ..., 0), computed as
    circulant_matvec would, with three transforms of length base*n, but
    pruned: the inverse transform takes v unpadded, so its first stage is a
    copy, and the last transform keeps n outputs (at base >= 3 one output
    block of its last stage; at base 2 a slice). Outputs equal those of the
    unpruned product except for the signs of zeros.
    """
    n = spec.n
    if len(v) != n:
        raise ValueError(f"length mismatch: matrix {n}, vector {len(v)}")
    _check_power(n, base)
    _require_finite(spec.diags, "matrix")
    _require_finite(v, "vector")
    plan = plan_for(base * n, base)
    if ops is not None:
        ops.add(base * n)
    return dft(_map_into(mul, dft(_embedding_row(spec, base), plan, ops), idft(v, plan, ops)), plan, ops, keep=n)


def toeplitz_matvec_split(spec: ToeplitzSpec, v, base: int, ops: OpCounter | None = None):
    """T v via T = C(a) + C_-(a') with a_i = (t_{-i} + t_{n-i})/2, a'_i = (t_{-i} - t_{n-i})/2.

    Indexes i = 0..n-1 and t_n taken as zero; the first rows a, a' recombine
    the wrapped and sign-flipped diagonals so the two algebra members sum to T.
    n must be a power of base; both products run transforms of length n.
    """
    n = spec.n
    if len(v) != n:
        raise ValueError(f"length mismatch: matrix {n}, vector {len(v)}")
    _check_power(n, base)
    d = spec.diags  # t_k sits at d[n - 1 + k]
    _require_finite(d, "matrix")
    _require_finite(v, "vector")
    return _split_matvec(list(map(complex, d[n - 1 :: -1])), [0j, *map(complex, d[: n - 1 : -1])], v, base, ops)


def _split_matvec(lo, hi, v, base, ops):
    # lo holds t_{-i}, hi t_{n-i}; each row is built as its product starts and dies with it. The
    # (-1)-circulant half runs first, so its diagonal and scaled vector are gone before the other starts
    w = neg_circulant_matvec(list(map(mul, map(sub, lo, hi), repeat(0.5))), v, base, ops)
    return _map_into(add, circulant_matvec(list(map(mul, map(add, lo, hi), repeat(0.5))), v, base, ops), w)


def toeplitz_matvec_naive(spec: ToeplitzSpec, v):
    """Dense O(n^2) Toeplitz product, any order; exact over rationals."""
    n = spec.n
    if len(v) != n:
        raise ValueError(f"length mismatch: matrix {n}, vector {len(v)}")
    d = spec.diags
    _complex_operands(matrix=d, vector=v)
    # row i is t_i, t_{i-1}, ..., t_{i-n+1}: d[n-1+i] down to d[i]
    return [sum(map(mul, d[i : n + i][::-1], v)) for i in range(n)]


def ltt_matvec_fft(a, v, base: int, ops: OpCounter | None = None):
    """Lower triangular Toeplitz product via the circulant + (-1)-circulant split.

    L(a) = (C(r) + C_-(r')) / 2 with first rows r = [a_0, a_{n-1}, ..., a_1]
    and r' = [a_0, -a_{n-1}, ..., -a_1]: six transforms of length n at any
    base, where the circulant embedding takes three of length base*n.
    Complex-field fast path for the solver; n must be a power of base. The
    rows are built from a, with one shared 0j for the n-1 zero diagonals,
    and equal to the bit those of toeplitz_matvec_split on
    ToeplitzSpec.from_lower_column(a).
    """
    n = len(a)
    if len(v) != n:
        raise ValueError(f"length mismatch: column {n}, vector {len(v)}")
    _check_power(n, base)
    if n == 1:
        if ops is not None:
            ops.add(1)
        return [complex(a[0]) * complex(v[0])]
    return _split_matvec([complex(a[0]), *repeat(0j, n - 1)], [0j, *map(complex, a[:0:-1])], v, base, ops)
