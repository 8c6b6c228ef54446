"""Exact multivariate polynomials used for symbolic coefficients.

Core claims:
    - a polynomial is the LinComb over normalized generator monomials:
      construction merges equal monomials and drops zero terms, and
      equality is type-strict (never equal to a rational LinComb)
    - ring operations (+, -, *, integer powers) are exact and satisfy the
      commutative-ring laws; a rational factor scales the coefficients
      exactly as the constant polynomial does
    - substitution and evaluation agree with direct arithmetic; evaluation
      is exact (an int or a Fraction), refuses a float value, and raises
      KeyError for a generator with no value
    - string form and terms() are canonical: sorted by monomial tuple,
      independent of construction order
    - an integral coefficient is the same value whether it is stored as an
      int or as a Fraction (left by sums such as 1/2 + 1/2, or by scaling):
      LinComb and SymbolicValue compare, hash, print and serialize alike
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bphz.lincomb import LinComb
from bphz.symvalue import SymbolicValue

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


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
    # exact off the integers, and never a float
    third = a * SymbolicValue.constant(Fraction(1, 3))
    value = third.evaluate({"a": 1})
    assert value == Fraction(1, 3) and type(value) is Fraction
    assert type(p.evaluate({"a": 2, "b": -1})) is int
    with pytest.raises(KeyError):
        p.evaluate({"a": 2})
    with pytest.raises(TypeError):
        third.evaluate({"a": 1.0})


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


def test_is_the_linear_combination_over_monomials():
    one = SymbolicValue.one()
    assert isinstance(one, LinComb)
    assert one != LinComb.single(())
    assert LinComb.single(()) != one


def test_terms_sorted_by_monomial_not_text():
    a = SymbolicValue.symbol("a")
    b = SymbolicValue.symbol("b")
    assert str(a ** 10 + a ** 2 + 3) == "3 + a^2 + a^10"
    assert str(a ** 2 * b - a * b ** 11 + SymbolicValue.constant("1/2")) == "1/2 - a*b^11 + a^2*b"


SYMBOLS = ("a", "b", "c")


@st.composite
def polynomial_terms(draw):
    """Terms (monomial, coefficient) of a small polynomial in a, b, c."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        exps = [draw(st.integers(0, 2)) for _ in SYMBOLS]
        mono = tuple((name, e) for name, e in zip(SYMBOLS, exps) if e)
        coef = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        out.append((mono, coef))
    return out


def _build(terms) -> SymbolicValue:
    """Sum of the terms, each built from symbols by products."""
    total = SymbolicValue.zero()
    for mono, coef in terms:
        term = SymbolicValue.constant(coef)
        for name, exp in mono:
            term = term * SymbolicValue.symbol(name) ** exp
        total = total + term
    return total


@PROPERTY
@given(polynomial_terms(), polynomial_terms(), polynomial_terms())
def test_ring_laws(p_terms, q_terms, r_terms):
    p, q, r = _build(p_terms), _build(q_terms), _build(r_terms)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == SymbolicValue.zero()


@PROPERTY
@given(polynomial_terms(), st.randoms(use_true_random=False))
def test_canonical_form_ignores_construction_order(terms, rng):
    shuffled = list(terms)
    rng.shuffle(shuffled)
    p, q = _build(terms), _build(shuffled)
    assert p == q
    assert str(p) == str(q)
    assert p.terms() == q.terms()
    assert SymbolicValue(terms) == p
    assert list(p.terms()) == sorted(p.terms())


@st.composite
def integral_terms(draw):
    """Distinct polynomial monomials with nonzero integer coefficients."""
    exponents = st.tuples(*[st.integers(0, 2)] * len(SYMBOLS))
    out = []
    for exps in draw(st.lists(exponents, unique=True, max_size=4)):
        mono = tuple((name, e) for name, e in zip(SYMBOLS, exps) if e)
        out.append((mono, draw(st.integers(-9, 9).filter(bool))))
    return out


@PROPERTY
@given(integral_terms())
def test_integral_coefficients_look_alike_as_int_or_fraction(terms):
    for cls in (LinComb, SymbolicValue):
        direct = cls(terms)
        as_fractions = cls((key, Fraction(c)) for key, c in terms)
        via_halves = cls.zero()
        via_scaling = cls.zero()
        for key, c in terms:
            via_halves = via_halves + cls.single(key, Fraction(2 * c + 1, 2))
            via_halves = via_halves + cls.single(key, Fraction(-1, 2))
            via_scaling = via_scaling + cls.single(key, Fraction(c, 3)).scale(3)
        assert all(type(c) is int for _, c in direct.items())
        assert all(type(c) is Fraction for _, c in via_halves.items())
        for other in (as_fractions, via_halves, via_scaling):
            assert other == direct
            assert hash(other) == hash(direct)
            assert str(other) == str(direct)
            assert repr(other) == repr(direct)
            assert other.to_json() == direct.to_json()
