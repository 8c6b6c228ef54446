"""Exact multivariate polynomials used for symbolic coefficients.

Core claims:
    - construction normalizes monomials and drops zero terms
    - ring operations (+, -, *, integer powers) are exact; a rational
      factor scales the coefficients exactly as the constant polynomial does
    - substitution and evaluation agree with direct arithmetic
    - string form is canonical and deterministic
"""

from fractions import Fraction

import pytest

from bphz.symvalue import SymbolicValue


def test_constants_and_symbols():
    assert SymbolicValue.zero().is_zero()
    assert SymbolicValue.one().constant_term() == 1
    assert SymbolicValue.constant(Fraction(2, 3)).constant_term() == Fraction(2, 3)
    a = SymbolicValue.symbol("a")
    assert not a.is_zero()
    assert a.constant_term() == 0


def test_ring_arithmetic():
    a = SymbolicValue.symbol("a")
    b = SymbolicValue.symbol("b")
    p = (a + b) * (a - b)
    q = a * a - b * b
    assert p == q
    assert (a + a) == a * SymbolicValue.constant(2)
    assert -(a - b) == b - a


def test_power():
    a = SymbolicValue.symbol("a")
    assert a ** 0 == SymbolicValue.one()
    assert a ** 3 == a * a * a
    with pytest.raises(ValueError):
        a ** -1


def test_substitute_and_evaluate():
    a = SymbolicValue.symbol("a")
    b = SymbolicValue.symbol("b")
    p = a * a + b * SymbolicValue.constant(3)
    # a^2 + 3b at a=2, b=-1 is 1
    assert p.evaluate({"a": Fraction(2), "b": Fraction(-1)}) == 1
    # substituting a -> b gives b^2 + 3b
    swapped = p.substitute({"a": b})
    assert swapped.evaluate({"b": Fraction(2)}) == 10


def test_str_is_canonical():
    a = SymbolicValue.symbol("a")
    b = SymbolicValue.symbol("b")
    assert str(a + b) == str(b + a)
    assert str(SymbolicValue.zero()) == "0"


def test_zero_coefficient_terms_drop():
    a = SymbolicValue.symbol("a")
    assert (a - a).is_zero()
    assert len((a - a).terms()) == 0


def test_scalar_product_matches_constant_product():
    a = SymbolicValue.symbol("a")
    b = SymbolicValue.symbol("b")
    p = a * a + b * SymbolicValue.constant(3) - SymbolicValue.one()
    for factor in (Fraction(-2, 3), 5, "7/2", 1):
        assert (p * factor).terms() == (p * SymbolicValue.constant(factor)).terms()
        assert factor * p == p * factor
    assert (p * 0).is_zero()
    assert (SymbolicValue.zero() * 4).is_zero()
