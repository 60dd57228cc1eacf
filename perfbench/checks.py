"""Independent result checkers; they share no code with lttkit.

Exact Bernoulli tables are compared for equality with the tangent-number
recurrence of Brent & Harvey ("Fast computation of Bernoulli, Tangent and
Secant numbers", arXiv:1108.0286), integer arithmetic only. Complex results
are checked with numpy FFT convolutions, outside the timed region.

An op fails when its call raised, its output has the wrong length or a
non-finite entry, its table differs from the oracle, or its accuracy is
below ``TOL_DIGITS`` decimal digits.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Every op of every workload sits at >= 12 digits; 10 leaves room for a
# reordered but sound floating-point algorithm and still flags real damage.
TOL_DIGITS = 10.0

# Digits reported for an error of exactly zero, and for a table equal to the oracle.
EXACT_DIGITS = 17.0


def tangent_numbers(n: int) -> list[int]:
    """T_1 .. T_n, the tangent numbers (Brent & Harvey, Algorithm TangentNumbers)."""
    t = [0] * (n + 1)
    if n >= 1:
        t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def bernoulli_oracle(count: int) -> list[Fraction]:
    """[B_0, B_2, ..., B_{2(count-1)}] from B_2k = (-1)**(k-1) 2k T_k / (4**k (4**k - 1))."""
    tan = tangent_numbers(count - 1)
    out = [Fraction(1)]
    for k in range(1, count):
        sign = 1 if k % 2 else -1
        out.append(Fraction(sign * 2 * k * tan[k - 1], 4**k * (4**k - 1)))
    return out


def _digits(err: float) -> float:
    return EXACT_DIGITS if err == 0 else -math.log10(err)


def _conv(p, q, size: int):
    """First ``size`` entries of the linear convolution of p and q."""
    m = len(p) + len(q) - 1
    nfft = 1 << (m - 1).bit_length()
    return np.fft.ifft(np.fft.fft(p, nfft) * np.fft.fft(q, nfft))[:size]


def solve_digits(a, f, x) -> float:
    """-log10 of the normwise relative residual |f - L(a)x| / (|a|_1 |x| + |f|), max-norms."""
    a = np.asarray(a, dtype=complex)
    f = np.asarray(f, dtype=complex)
    x = np.asarray(x, dtype=complex)
    r = f - _conv(a, x, len(f))
    scale = np.abs(a).sum() * np.abs(x).max() + np.abs(f).max()
    return _digits(float(np.abs(r).max() / scale))


def matvec_digits(diags, v, y) -> float:
    """-log10 of the relative error |y - T v|_2 / |T v|_2, T the full Toeplitz on ``diags``."""
    v = np.asarray(v, dtype=complex)
    y = np.asarray(y, dtype=complex)
    n = len(v)
    ref = _conv(np.asarray(diags, dtype=complex), v, 2 * n - 1)[n - 1 :]
    return _digits(float(np.linalg.norm(y - ref) / np.linalg.norm(ref)))


def check(kind: str, data: tuple, out, oracle=None) -> tuple[bool, float | None]:
    """(passed, digits) for one op output; digits is None when a table differs or the output is malformed."""
    if kind == "table":
        return (True, EXACT_DIGITS) if out == oracle else (False, None)
    if kind == "solve":
        a, f = data
        x = out[0] if isinstance(out, tuple) else out
        if len(x) != len(a) or not np.isfinite(np.asarray(x, dtype=complex)).all():
            return False, None
        d = solve_digits(a, f, x)
    elif kind == "matvec":
        diags, v = data
        if len(out) != len(v) or not np.isfinite(np.asarray(out, dtype=complex)).all():
            return False, None
        d = matvec_digits(diags, v, out)
    else:
        raise ValueError(f"unknown op kind: {kind!r}")
    return d >= TOL_DIGITS, d
