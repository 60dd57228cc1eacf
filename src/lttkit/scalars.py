"""Scalar fields shared by every kernel.

Two fields are supported:

* ``rational``: exact arbitrary-precision fractions (``fractions.Fraction``),
  always stored in lowest terms with positive denominator. Plain ``int``
  values are accepted anywhere a rational is, they are rationals with
  denominator one.
* ``complex``: double-precision complex numbers (builtin ``complex``).
  Plain ``float`` values ride this field.

Text forms, used by all file I/O and CLI output: rationals are ``p`` or
``p/q`` with no spaces and an optional leading minus on ``p``, at any length
(past Python's limit on int-string conversion, 4300 digits by default, the
integers are converted in pieces split at powers of 10); complex values are
``re`` or ``re,im`` with decimal float literals.
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction

RATIONAL = "rational"
COMPLEX = "complex"

_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _int_text(n: int) -> str:
    """str(n) at any length: past the interpreter's digit limit, split at a power of 10.

    Python refuses str() of an int past its limit (4300 digits by default);
    such an int is divmod by 10**k, k about half its digits, and the halves
    are joined, the low one padded with zeros to k digits.
    """
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + _int_text(-n)
        k = n.bit_length() * 3 // 20  # bits * log10(2) / 2, rounded down
        high, low = divmod(n, 10**k)
        return _int_text(high) + _int_text(low).zfill(k)


def _text_int(digits: str) -> int:
    """int(digits) at any length, for decimal digits after an optional minus: the inverse of _int_text."""
    try:
        return int(digits)
    except ValueError:
        if digits[0] == "-":
            return -_text_int(digits[1:])
        k = len(digits) // 2
        return _text_int(digits[:-k]) * 10**k + _text_int(digits[-k:])


def parse_scalar(text: str, field: str):
    """Parse one scalar in the given field ("rational" or "complex").

    Raises ValueError on malformed text and ZeroDivisionError on a zero
    rational denominator. A rational reads back exactly at any length.
    """
    if field == RATIONAL:
        if not _RATIONAL_RE.fullmatch(text):
            raise ValueError(f"malformed rational scalar: {text!r}")
        num, _, den = text.partition("/")
        return Fraction(_text_int(num), _text_int(den or "1"))
    if field == COMPLEX:
        parts = text.split(",")
        if len(parts) == 1:
            re_part, im_part = parts[0], "0"
        elif len(parts) == 2:
            re_part, im_part = parts
        else:
            raise ValueError(f"malformed complex scalar: {text!r}")
        value = complex(float(re_part), float(im_part))
        if not cmath.isfinite(value):
            raise ValueError(f"non-finite complex scalar: {text!r}")
        return value
    raise ValueError(f"unknown scalar field: {field!r}")


def format_scalar(value) -> str:
    """Render a scalar in the text form that parse_scalar accepts; a rational at any length."""
    if isinstance(value, (Fraction, int)):
        value = Fraction(value)
        num = _int_text(value.numerator)
        return num if value.denominator == 1 else f"{num}/{_int_text(value.denominator)}"
    value = complex(value)
    return f"{value.real!r},{value.imag!r}"


def field_of(values) -> str:
    """Classify a sequence of scalars as "rational" or "complex".

    Any float or complex entry puts the whole vector in the complex field.
    """
    for v in values:
        if isinstance(v, (complex, float)):
            return COMPLEX
        if not isinstance(v, (Fraction, int)):
            raise TypeError(f"unsupported scalar type: {type(v).__name__}")
    return RATIONAL


def neg_root(n: int) -> complex:
    """exp(pi*i/n), the canonical solution of rho**n = -1, rho**i != -1 for 0<i<n."""
    if n < 1:
        raise ValueError("root order must be >= 1")
    return cmath.exp(1j * cmath.pi / n)


def _require_finite(values, name):
    """Raise ValueError naming the first entry that is not a finite double.

    cmath.isfinite raises OverflowError on an int or Fraction beyond the
    double range, so such an operand takes the per-entry loop. Such an entry
    is described by its magnitude, not its digits: Python refuses the repr
    of an int past 4300 digits.
    """
    try:
        if all(map(cmath.isfinite, values)):
            return
    except OverflowError:
        pass
    for i, v in enumerate(values):
        try:
            if cmath.isfinite(complex(v)):
                continue
            shown = repr(v)
        except OverflowError:
            bits = int(abs(v)).bit_length()
            shown = f"{type(v).__name__} between 2**{bits - 1} and 2**{bits} in magnitude"
        raise ValueError(f"{name} entry at index {i} is not a finite double: {shown}")


def _complex_operands(**operands):
    """Whether a float or complex entry in an operand makes the computation complex.

    Then every operand, in the order given and named by its keyword, must
    hold finite doubles only (_require_finite).
    """
    if COMPLEX not in [field_of(values) for values in operands.values()]:
        return False
    for name, values in operands.items():
        _require_finite(values, name)
    return True


def _in_double_range(values, what):
    """Return complex ``values`` unchanged, or raise OverflowError when an entry is NaN or infinite."""
    if not all(map(cmath.isfinite, values)):
        raise OverflowError(f"{what} leaves the double range")
    return values
