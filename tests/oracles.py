"""Independent reference implementations used as test oracles.

Everything here is written directly from definitions (dense loops, exact
field arithmetic) and deliberately shares no code with the package paths it
checks.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction


def naive_dft(z):
    """O(n^2) transform from the definition, exponents reduced mod n."""
    n = len(z)
    return [
        sum(z[k] * cmath.exp(2j * cmath.pi * ((i * k) % n) / n) for k in range(n))
        for i in range(n)
    ]


def _unit_root(num, den):
    """exp(2*pi*i * num/den) with the angle folded into [0, pi/4] first.

    The folds are exact on the fraction and exact on the result (conjugate,
    swap, negate), so the angle passed to cos and sin errs by about one ulp
    of pi/4, not of 2*pi.
    """
    f = Fraction(num % den, den)
    if f > Fraction(1, 2):
        return _unit_root_half(1 - f).conjugate()
    return _unit_root_half(f)


def _unit_root_half(f):
    if f > Fraction(1, 4):
        w = _unit_root_quarter(f - Fraction(1, 4))
        return complex(-w.imag, w.real)  # i * w
    return _unit_root_quarter(f)


def _unit_root_quarter(f):
    if f > Fraction(1, 8):
        w = _unit_root_quarter(Fraction(1, 4) - f)
        return complex(w.imag, w.real)  # i * conj(w)
    phi = math.tau * float(f)
    return complex(math.cos(phi), math.sin(phi))


def fsum_dft(z):
    """O(n^2) transform with compensated sums, to see errors of order 1e-16.

    Each term z[k] * w**(i*k) contributes its four real products, each
    rounded once, to math.fsum over the real and over the imaginary part,
    so the sums add no error; the roots come from ``_unit_root``. Against a
    120-bit sum it errs 1.4e-16 (max-norm relative, n = 625 and 729), about
    the rounding of its outputs; ``naive_dft``, summing in complex
    arithmetic, errs 1.6-1.8e-15 there.
    """
    n = len(z)
    z = [complex(x) for x in z]
    roots = [_unit_root(j, n) for j in range(n)]
    out = []
    for i in range(n):
        re = []
        im = []
        for k, x in enumerate(z):
            w = roots[i * k % n]
            re += (x.real * w.real, -(x.imag * w.imag))
            im += (x.real * w.imag, x.imag * w.real)
        out.append(complex(math.fsum(re), math.fsum(im)))
    return out


def plain_radix2_dft(z, inverse=False):
    """Textbook radix-2 transform; returns (outputs, multiplication count). len(z) = 2**k.

    A bit-reversed load, then for L = 2, 4, ..., n one per-element
    butterfly loop per stage: entries off+k and off+L/2+k meet with the
    twiddle ``cmath.exp(2j*pi*j/n)``, j = k*n/L, and twiddle index 0 is not
    multiplied. ``inverse`` returns the conjugate of the forward transform
    of the conjugate of z, each output times 1/n, counting those n
    multiplications too.
    """
    n = len(z)
    if inverse:
        y, mults = plain_radix2_dft([complex(v).conjugate() for v in z])
        return [v.conjugate() * (1.0 / n) for v in y], mults + n
    bits = n.bit_length() - 1
    x = [complex(z[int(format(i, f"0{bits}b")[::-1], 2) if bits else 0]) for i in range(n)]
    roots = [cmath.exp(2j * cmath.pi * j / n) for j in range(n // 2)]
    mults = 0
    L = 2
    while L <= n:
        m = L // 2
        for off in range(0, n, L):
            for k in range(m):
                t = x[off + m + k]
                if k:
                    t = t * roots[k * (n // L)]
                    mults += 1
                u = x[off + k]
                x[off + k] = u + t
                x[off + m + k] = u - t
        L *= 2
    return x, mults


def dense_circulant_matvec(first_row, v):
    n = len(first_row)
    return [sum(first_row[(j - i) % n] * v[j] for j in range(n)) for i in range(n)]


def dense_neg_circulant_matvec(first_row, v):
    n = len(first_row)
    return [
        sum(first_row[(j - i) % n] * v[j] * (-1 if j < i else 1) for j in range(n))
        for i in range(n)
    ]


def dense_toeplitz_matvec(diags, v):
    """diags lists t_{-(n-1)} .. t_{n-1}; entry (i, j) is t_{i-j}."""
    n = len(v)
    assert len(diags) == 2 * n - 1
    return [sum(diags[n - 1 + i - j] * v[j] for j in range(n)) for i in range(n)]


def dense_forward_substitution(a, f):
    """Solve the l.t.T. system with first column ``a`` from the definition.

    Row i of the dense lower triangular matrix holds a[i - j] in column
    j <= i. Each term a[i - j] * x[j] is formed and subtracted on its own, in
    plain Python arithmetic: an int while every operand is an int, a
    Fraction from the first Fraction on. A head other than 1 divides as a
    Fraction, so x[i] is an int exactly when the head is 1 and f[i] and
    every term of row i are ints.
    """
    n = len(a)
    rows = [[a[i - j] for j in range(i + 1)] for i in range(n)]
    x = []
    for i, row in enumerate(rows):
        s = f[i]
        for j in range(i):
            s = s - row[j] * x[j]
        x.append(s if row[i] == 1 else s / Fraction(row[i]))
    return x


def max_rel_err(got, want) -> float:
    scale = max(max(abs(complex(w)) for w in want), 1e-30)
    return max(abs(complex(g) - complex(w)) for g, w in zip(got, want)) / scale


def max_abs_err(got, want) -> float:
    return max(abs(complex(g) - complex(w)) for g, w in zip(got, want))


def rotation_hat(a, base):
    """Companion column a(t z) a(t**2 z) ... a(t**(base-1) z) mod z**n, t = exp(2*pi*i/base).

    Rotation i scales coefficient k by t**(i*k), exponent reduced mod base;
    the rotations are multiplied as power series truncated to len(a).
    """
    n = len(a)
    out = [1 + 0j] + [0j] * (n - 1)
    for i in range(1, base):
        rot = [complex(a[k]) * cmath.exp(2j * cmath.pi * ((i * k) % base) / base) for k in range(n)]
        out = [sum(out[j] * rot[k - j] for j in range(k + 1)) for k in range(n)]
    return out


class Eisenstein:
    """Exact arithmetic in Q(w), w the primitive cube root of unity.

    Elements are x + y*w with rational x, y and w**2 = -(1 + w).
    """

    __slots__ = ("x", "y")

    def __init__(self, x, y=0):
        self.x = Fraction(x)
        self.y = Fraction(y)

    def __add__(self, other):
        return Eisenstein(self.x + other.x, self.y + other.y)

    def __mul__(self, other):
        # (x1 + y1 w)(x2 + y2 w), w^2 = -1 - w
        return Eisenstein(
            self.x * other.x - self.y * other.y,
            self.x * other.y + self.y * other.x - self.y * other.y,
        )

    def __eq__(self, other):
        return self.x == other.x and self.y == other.y

    def __repr__(self):
        return f"Eisenstein({self.x}, {self.y})"


_OMEGA_POWERS = (Eisenstein(1), Eisenstein(0, 1), Eisenstein(-1, -1))


def omega_power(k: int) -> Eisenstein:
    return _OMEGA_POWERS[k % 3]


def product_form_hat3(a):
    """Coefficients of a(z*w) * a(z*w**2) truncated, exactly in Q(w).

    Input is a rational column; the output stays in Q(w), and the cube-root
    component of every coefficient must come out zero.
    """
    n = len(a)
    c = [Eisenstein(a[k]) * omega_power(k) for k in range(n)]
    d = [Eisenstein(a[k]) * omega_power(2 * k) for k in range(n)]
    out = []
    for i in range(n):
        s = Eisenstein(0)
        for r in range(i + 1):
            s = s + c[r] * d[i - r]
        out.append(s)
    return out


def tangent_bernoulli(count):
    """[B_0, B_2, ..., B_{2(count-1)}] from the tangent numbers, in integers.

    Brent and Harvey, "Fast computation of Bernoulli, Tangent and Secant
    numbers" (arXiv:1108.0286), Algorithm TangentNumbers: t[k] = T_k for
    k = 1..count-1 in O(count**2) integer operations, then
    B_2k = (-1)**(k-1) 2k T_k / (4**k (4**k - 1)).
    """
    n = count - 1
    t = [0, 1] + [0] * n
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    out = [Fraction(1)]
    for k in range(1, n + 1):
        sign = 1 if k % 2 else -1
        out.append(Fraction(sign * 2 * k * t[k], 4**k * (4**k - 1)))
    return out
