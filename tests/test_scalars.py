import math
import random
from fractions import Fraction
from math import gcd

import pytest

from lttkit.scalars import (
    field_of,
    format_scalar,
    neg_root,
    parse_scalar,
)


def test_parse_rational_reduces():
    assert parse_scalar("-6/4", "rational") == Fraction(-3, 2)


def test_parse_rational_canonical_zero():
    v = parse_scalar("0/7", "rational")
    assert v == 0 and v.denominator == 1


def test_parse_complex():
    assert parse_scalar("1,-1", "complex") == complex(1, -1)
    assert parse_scalar("2.5", "complex") == complex(2.5, 0)


def test_parse_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        parse_scalar("1/0", "rational")


@pytest.mark.parametrize("text", ["", "1/", "1 / 2", "3/4/5", "1.5", "2e3", "+3"])
def test_parse_rational_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_scalar(text, "rational")


@pytest.mark.parametrize("text", ["", "1,2,3", "abc", "inf", "nan,0"])
def test_parse_complex_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_scalar(text, "complex")


def test_format_round_trip():
    rng = random.Random(1)
    for _ in range(50):
        q = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert parse_scalar(format_scalar(q), "rational") == q
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        assert parse_scalar(format_scalar(z), "complex") == z


def _digits_and_int(rng, d):
    # a random d-digit string and its value, built by Horner's rule over 1000-digit pieces
    text = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(d - 1))
    value = 0
    for i in range(0, d, 1000):
        piece = text[i : i + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return text, value


def test_rationals_of_any_length_round_trip():
    # Python refuses str() and int() of integers past 4300 digits; the text form has no such
    # limit, and up to it format_scalar writes what str() writes
    rng = random.Random(11)
    for d in (1, 640, 4299, 4300, 4301, 8601, 10_000, 30_001):
        num, p = _digits_and_int(rng, d)
        den, q = _digits_and_int(rng, max(d // 3, 1))
        for value, text in ((p, num), (-p, "-" + num), (10 ** (d - 1), "1" + "0" * (d - 1))):
            assert format_scalar(value) == text, d
            assert parse_scalar(text, "rational") == value, d
        r = Fraction(-p, q)
        text = format_scalar(r)
        assert parse_scalar(text, "rational") == r, d
        if d <= 4300:
            assert text == str(r) and format_scalar(p) == str(p) == num, d


def test_field_of():
    assert field_of([Fraction(1), 3]) == "rational"
    assert field_of([Fraction(1), 0.5]) == "complex"
    assert field_of([1j]) == "complex"
    with pytest.raises(TypeError, match="unsupported scalar type: str"):
        field_of([Fraction(1), "2"])


def test_parse_unknown_field():
    with pytest.raises(ValueError, match="unknown scalar field: 'real'"):
        parse_scalar("1", "real")


def test_neg_root_examples():
    assert abs(neg_root(1) - (-1)) < 1e-15
    assert abs(neg_root(2) - 1j) < 1e-15
    assert abs(neg_root(4) - complex(math.sqrt(2) / 2, math.sqrt(2) / 2)) < 1e-15


def test_root_orders():
    for r in range(1, 65):
        rho = neg_root(r)
        assert abs(rho**r + 1) < 1e-14
        for i in range(1, r):
            assert abs(rho**i + 1) > 1e-6


def test_root_rejects_zero_order():
    with pytest.raises(ValueError):
        neg_root(0)


def test_rational_arithmetic_exact_and_reduced():
    rng = random.Random(7)
    for _ in range(200):
        a, c = rng.randint(-500, 500), rng.randint(-500, 500)
        b, d = rng.randint(1, 500), rng.randint(1, 500)
        p, q = Fraction(a, b), Fraction(c, d)
        assert (p + q) * (b * d) == a * d + c * b
        for v in (p + q, p * q, p - q) + ((p / q,) if q else ()):
            assert v.denominator > 0
            assert gcd(abs(v.numerator), v.denominator) == 1
