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
