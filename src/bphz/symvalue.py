"""Exact polynomials in named commuting generators.

``SymbolicValue`` carries valuation results: polynomials with rational
coefficients (an ``int`` when integral, else a ``Fraction``) in formal
generators such as ``Pi[<diagram>]`` (one per connected-diagram class) and
coupling symbols like ``alpha``.  A polynomial is the ``LinComb`` over
generator monomials, so construction, sums, scaling, equality and hashing
are the free module's; the product is ``lincomb.product`` with monomials
multiplying by adding exponents.
Monomials passed to the constructor must already be normalized: sorted
``((generator, exponent), ...)`` with positive exponents.
"""

from __future__ import annotations

from typing import Mapping, Tuple

from .lincomb import LinComb, RationalLike, Scalar, product

Monomial = Tuple[Tuple[str, int], ...]  # sorted ((generator, exponent), ...)


def _monomial_product(a: Monomial, b: Monomial) -> Monomial:
    """Product of two normalized monomials: exponents add."""
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for name, exp in b:
        acc[name] = acc.get(name, 0) + exp
    return tuple(sorted(acc.items()))


class SymbolicValue(LinComb):
    """Immutable exact-coefficient polynomial in string-named generators."""

    __slots__ = ()

    @classmethod
    def one(cls) -> "SymbolicValue":
        return cls.constant(1)

    @classmethod
    def constant(cls, value: RationalLike) -> "SymbolicValue":
        return cls.single((), value)

    @classmethod
    def symbol(cls, name: str) -> "SymbolicValue":
        return cls.single(((name, 1),))

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Tuple[Tuple[Monomial, Scalar], ...]:
        """Terms sorted by monomial tuple (the constant term first)."""
        return tuple(sorted(self._terms.items()))

    def constant_term(self) -> Scalar:
        return self.coeff(())

    def __add__(self, other: "SymbolicValue | RationalLike") -> "SymbolicValue":
        return LinComb.__add__(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other: "SymbolicValue | RationalLike") -> "SymbolicValue":
        return LinComb.__sub__(self, _coerce(other))

    def __rsub__(self, other: "SymbolicValue | RationalLike") -> "SymbolicValue":
        return _coerce(other) - self

    def __mul__(self, other: "SymbolicValue | RationalLike") -> "SymbolicValue":
        if isinstance(other, SymbolicValue):
            return product(self, other, _monomial_product)
        return self.scale(other)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "SymbolicValue":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = SymbolicValue.one()
        for _ in range(exponent):
            result = result * self
        return result

    def substitute(self, values: Mapping[str, "SymbolicValue | RationalLike"]) -> "SymbolicValue":
        """Replace generators by values (symbolic or rational); others kept."""
        total = SymbolicValue.zero()
        for mono, coef in self.terms():
            term = SymbolicValue.constant(coef)
            for name, exp in mono:
                base = values.get(name)
                factor = SymbolicValue.symbol(name) if base is None else _coerce(base)
                term = term * factor ** exp
            total = total + term
        return total

    def evaluate(self, values: Mapping[str, RationalLike]) -> Scalar:
        """Exact value: every generator present must get a value (a
        KeyError names one that has none, and a float is refused)."""
        needed = {name: values[name] for mono in self._terms for name, _ in mono}
        return self.substitute(needed).constant_term()

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coef in self.terms():
            factors = ["{}^{}".format(n, e) if e > 1 else n for n, e in mono]
            if not factors:
                parts.append(str(coef))
            elif coef == 1:
                parts.append("*".join(factors))
            elif coef == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append("{}*{}".format(coef, "*".join(factors)))
        out = parts[0]
        for part in parts[1:]:
            out += " - " + part[1:] if part.startswith("-") else " + " + part
        return out

    def __repr__(self) -> str:
        return "SymbolicValue({})".format(self)


def _coerce(value: "SymbolicValue | RationalLike") -> SymbolicValue:
    if isinstance(value, SymbolicValue):
        return value
    return SymbolicValue.constant(value)
