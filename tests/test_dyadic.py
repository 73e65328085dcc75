"""Exact dyadic rational arithmetic, checked against fractions.Fraction."""

import decimal
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinwait import DyadicRational
from coinwait.dyadic import EXACT_DECIMAL

from _oracles import reference_decimal

numerators = st.integers(min_value=-(10**12), max_value=10**12)
dyadics = st.builds(DyadicRational, numerators, st.integers(min_value=0, max_value=80))
# Far exponents: k * 5**e then runs to about 14,000 digits, past the 4300
# that Python's int <-> str conversion allows by default.
far_dyadics = st.builds(
    DyadicRational, numerators, st.integers(min_value=0, max_value=20_000)
)


def test_canonical_form_strips_twos():
    d = DyadicRational(12, 5)
    assert (d.numerator, d.exponent) == (3, 3)


def test_canonical_form_of_zero():
    assert (DyadicRational(0, 9).numerator, DyadicRational(0, 9).exponent) == (0, 0)


def test_integers_have_exponent_zero():
    d = DyadicRational(40, 3)
    assert (d.numerator, d.exponent) == (5, 0)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        DyadicRational(1, -1)


@given(dyadics)
def test_canonical_invariant(d):
    assert d.exponent >= 0
    if d.numerator == 0:
        assert d.exponent == 0
    elif d.exponent > 0:
        assert d.numerator % 2 == 1


@given(dyadics, dyadics)
def test_addition_matches_fraction(a, b):
    assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()


@given(dyadics, dyadics)
def test_subtraction_matches_fraction(a, b):
    assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()


@given(dyadics)
def test_negation_and_bool(d):
    assert (-d).as_fraction() == -d.as_fraction()
    assert bool(d) == (d.numerator != 0)


@given(dyadics, dyadics)
def test_ordering_matches_fraction(a, b):
    fa, fb = a.as_fraction(), b.as_fraction()
    assert (a == b) == (fa == fb)
    assert (a < b) == (fa < fb)
    assert (a <= b) == (fa <= fb)
    assert (a > b) == (fa > fb)
    assert (a >= b) == (fa >= fb)


@given(dyadics, st.integers(min_value=-1000, max_value=1000))
def test_integer_mixing(d, k):
    assert (d + k).as_fraction() == d.as_fraction() + k
    assert (k + d).as_fraction() == k + d.as_fraction()
    assert (d - k).as_fraction() == d.as_fraction() - k
    assert (k - d).as_fraction() == k - d.as_fraction()
    assert (d == k) == (d.as_fraction() == k)
    assert (d < k) == (d.as_fraction() < k)


@pytest.mark.parametrize("other", [Fraction(1, 3), 0.5, "1"], ids=["fraction", "float", "str"])
def test_arithmetic_takes_only_ints_and_dyadics(other):
    # A sum with 1/3 read back as k / 2**e would be a wrong value, not an error.
    d = DyadicRational(1, 1)
    for combine in (
        lambda: d + other,
        lambda: other + d,
        lambda: d - other,
        lambda: other - d,
    ):
        with pytest.raises(TypeError):
            combine()


def test_hash_agrees_with_equal_ints():
    assert hash(DyadicRational(6, 1)) == hash(3)
    assert DyadicRational(6, 1) == 3
    assert len({DyadicRational(1, 2), DyadicRational(2, 3)}) == 1


@given(far_dyadics)
def test_decimal_string_is_exact(d):
    # Fraction(str) would go through int(str) and trip the digit limit.
    text = d.decimal_str()
    assert "E" not in text
    assert Fraction(Decimal(text)) == d.as_fraction()


@given(numerators, st.integers(min_value=0, max_value=1000))
def test_decimal_string_matches_reference_renderer(k, e):
    assert DyadicRational(k, e).decimal_str() == reference_decimal(k, e)


def test_exact_context_refuses_to_round():
    with pytest.raises(decimal.Inexact):
        EXACT_DECIMAL.quantize(Decimal("0.125"), Decimal("0.01"))


def test_rendering():
    assert DyadicRational(7, 6).fraction_str() == "7/64"
    assert DyadicRational(5, 0).fraction_str() == "5"
    assert DyadicRational(0).fraction_str() == "0"
    assert DyadicRational(-3, 3).fraction_str() == "-3/8"
    assert DyadicRational(5, 4).decimal_str() == "0.3125"
    assert DyadicRational(-5, 4).decimal_str() == "-0.3125"
    assert DyadicRational(41, 0).decimal_str() == "41"
    assert str(DyadicRational(1, 1)) == "1/2"
    assert repr(DyadicRational(3, 2)) == "DyadicRational(3, 2)"


def test_immutable():
    d = DyadicRational(1, 1)
    with pytest.raises(AttributeError):
        d.numerator = 2


def test_sum_of_tail_probabilities_is_one():
    total = DyadicRational(0)
    for n in range(1, 11):
        total = total + DyadicRational(1, n)
    assert total + DyadicRational(1, 10) == 1
