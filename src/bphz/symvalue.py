"""Exact polynomials in named commuting generators.

``SymbolicValue`` carries valuation results: polynomials with rational
coefficients in formal generators such as ``Pi[<diagram>]`` (one per
connected-diagram class) and coupling symbols like ``alpha``.  Values are
immutable, hashable, and totally ordered, so they can serve as basis keys
inside a LinComb and as dictionary keys in reports.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Tuple

from .lincomb import RationalLike, as_scalar

Monomial = Tuple[Tuple[str, int], ...]  # sorted ((generator, exponent), ...)


def _normalize_monomial(gens: Iterable[Tuple[str, int]]) -> Monomial:
    acc: dict[str, int] = {}
    for name, exp in gens:
        if exp < 0:
            raise ValueError("negative exponent for generator {!r}".format(name))
        if exp:
            acc[name] = acc.get(name, 0) + exp
    return tuple(sorted(acc.items()))


class SymbolicValue:
    """Immutable exact-coefficient polynomial in string-named generators."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, RationalLike] | Iterable[Tuple[Monomial, RationalLike]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Monomial, Fraction] = {}
        for mono, raw in items:
            coef = as_scalar(raw)
            if not coef:
                continue
            key = _normalize_monomial(mono)
            total = acc[key] + coef if key in acc else coef
            if total:
                acc[key] = total
            else:
                del acc[key]
        self._terms = tuple(sorted(acc.items()))

    @classmethod
    def zero(cls) -> "SymbolicValue":
        return cls()

    @classmethod
    def one(cls) -> "SymbolicValue":
        return cls.constant(1)

    @classmethod
    def constant(cls, value: RationalLike) -> "SymbolicValue":
        return cls((((), value),))

    @classmethod
    def symbol(cls, name: str) -> "SymbolicValue":
        return cls(((((name, 1),), 1),))

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Tuple[Tuple[Monomial, Fraction], ...]:
        return self._terms

    def constant_term(self) -> Fraction:
        for mono, coef in self._terms:
            if mono == ():
                return coef
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolicValue):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __lt__(self, other: "SymbolicValue") -> bool:
        return self._terms < other._terms

    def __add__(self, other: "SymbolicValue | RationalLike") -> "SymbolicValue":
        other = _coerce(other)
        return SymbolicValue(list(self._terms) + list(other._terms))

    __radd__ = __add__

    def __neg__(self) -> "SymbolicValue":
        return SymbolicValue([(m, -c) for m, c in self._terms])

    def __sub__(self, other: "SymbolicValue | RationalLike") -> "SymbolicValue":
        return self + (-_coerce(other))

    def __rsub__(self, other: "SymbolicValue | RationalLike") -> "SymbolicValue":
        return _coerce(other) + (-self)

    def __mul__(self, other: "SymbolicValue | RationalLike") -> "SymbolicValue":
        if not isinstance(other, SymbolicValue):
            # a rational factor scales the coefficients; monomials stay put
            factor = as_scalar(other)
            if not factor:
                return SymbolicValue()
            return SymbolicValue([(mono, coef * factor) for mono, coef in self._terms])
        out: list[Tuple[Monomial, Fraction]] = []
        for mono_a, coef_a in self._terms:
            for mono_b, coef_b in other._terms:
                out.append((_normalize_monomial(mono_a + mono_b), coef_a * coef_b))
        return SymbolicValue(out)

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
        for mono, coef in self._terms:
            term = SymbolicValue.constant(coef)
            for name, exp in mono:
                base = values.get(name)
                factor = SymbolicValue.symbol(name) if base is None else _coerce(base)
                term = term * factor ** exp
            total = total + term
        return total

    def evaluate(self, values: Mapping[str, float]) -> float:
        """Numeric evaluation; every generator present must get a value."""
        total = 0.0
        for mono, coef in self._terms:
            product = float(coef)
            for name, exp in mono:
                product *= values[name] ** exp
            total += product
        return total

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coef in self._terms:
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
