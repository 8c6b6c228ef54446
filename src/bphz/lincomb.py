"""Exact scalars, free-module linear combinations, and forests.

Every algebraic output of this package is a finite linear combination of
basis elements (monomials, forests, diagrams, tensor pairs) with exact
coefficients.  ``LinComb`` is that free module: an immutable map from basis
keys to nonzero coefficients.  Its coefficient ring is the class attribute
``_coerce``: ``Fraction`` by default; a subclass swaps in another exact
ring (``renorm.RenormOutput`` takes polynomials, ``SymbolicValue``, which
is itself the rational ``LinComb`` over generator monomials).

Both Hopf algebras are free commutative algebras on their connected
pieces, so a basis element is a ``Forest``: a multiset of pieces whose
product is the multiset union.  ``product`` is the bilinear product of two
combinations and ``multiplicative`` extends a map on pieces to forests;
both serve any coefficient ring and any key product (forest union,
monomial multiplication).  They and ``apply_linear`` walk the stored
terms unsorted: coefficients are exact, so the summation order cannot
change a result.

Basis keys may be any hashable objects whose ``str`` form is canonical
(equal objects print identically, distinct objects print distinctly);
serialization and ordering rely on it.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from typing import Callable, Generic, Hashable, Iterable, Iterator, Tuple, TypeVar

Scalar = int | Fraction

B = TypeVar("B", bound=Hashable)

RationalLike = int | str | Fraction


def as_scalar(value: RationalLike) -> Scalar:
    """Coerce an int, ``p/q`` string, or Fraction to an exact Scalar.

    The result is an ``int`` when the value is integral, else a
    ``Fraction``; both compare, hash and print alike.  Floats are refused,
    so a stray ``/`` between ints fails here instead of passing as an
    inexact binary fraction.
    """
    # type(), not isinstance: a bool would keep printing as True/False.
    if type(value) is int:
        return value
    if not isinstance(value, Fraction):
        if isinstance(value, float):
            raise TypeError("inexact coefficient {!r}".format(value))
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class LinComb(Generic[B]):
    """Immutable finite linear combination with exact coefficients.

    Coefficients pass through ``_coerce`` (``as_scalar`` here, so rationals:
    an ``int`` when integral, else a ``Fraction``).
    Zero coefficients are never stored; two combinations are equal iff
    they are of the same class and store the same key -> coefficient map.
    """

    __slots__ = ("_terms",)

    _coerce = staticmethod(as_scalar)

    def __init__(self, terms: Mapping[B, RationalLike] | Iterable[Tuple[B, RationalLike]] = ()):
        items = terms.items() if type(terms) is dict or isinstance(terms, Mapping) else terms
        coerce = self._coerce
        acc: dict = {}
        for key, raw in items:
            coef = coerce(raw)
            if not coef:
                continue
            total = acc[key] + coef if key in acc else coef
            if total:
                acc[key] = total
            else:
                del acc[key]
        self._terms = acc

    @classmethod
    def zero(cls) -> "LinComb[B]":
        return cls()

    @classmethod
    def single(cls, key: B, coef: RationalLike = 1) -> "LinComb[B]":
        return cls(((key, coef),))

    def coeff(self, key: B):
        return self._terms[key] if key in self._terms else self._coerce(0)

    def items(self) -> Iterator[Tuple[B, Scalar]]:
        """Terms in canonical order (sorted by the key's string form)."""
        return iter(sorted(self._terms.items(), key=lambda kv: str(kv[0])))

    def keys(self) -> Iterator[B]:
        return (k for k, _ in self.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "LinComb[B]") -> "LinComb[B]":
        merged = dict(self._terms)
        for key, coef in other._terms.items():
            total = merged[key] + coef if key in merged else coef
            if total:
                merged[key] = total
            else:
                del merged[key]
        return self._wrap(merged)

    def __sub__(self, other: "LinComb[B]") -> "LinComb[B]":
        return self + other.scale(-1)

    def __neg__(self) -> "LinComb[B]":
        return self.scale(-1)

    def scale(self, factor: RationalLike) -> "LinComb[B]":
        coef = self._coerce(factor)
        if not coef:
            return type(self)()
        if coef == 1:
            return self
        return self._wrap({k: v * coef for k, v in self._terms.items()})

    def _wrap(self, terms: dict) -> "LinComb[B]":
        out = type(self)()
        out._terms = terms
        return out

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join("{}*({})".format(coef, key) for key, coef in self.items())

    def __repr__(self) -> str:
        name = type(self).__name__
        if not self._terms:
            return name + "(0)"
        parts = ["{}*{}".format(coef, key) for key, coef in self.items()]
        return name + "(" + " + ".join(parts) + ")"

    def to_json(self) -> list[dict]:
        """Sorted array of {key, num, den} with keys as canonical strings."""
        return [
            {"key": str(key), "num": coef.numerator, "den": coef.denominator}
            for key, coef in self.items()
        ]


def product(a, b, mul: Callable = lambda x, y: (x, y)):
    """Bilinear product: keys combine through mul (default: paired), coefficients multiply."""
    return type(a)(
        (mul(ka, kb), ca * cb) for ka, ca in a._terms.items() for kb, cb in b._terms.items()
    )


def multiplicative(fn: Callable, parts: Iterable, unit, mul: Callable):
    """Multiplicative extension: the product of fn over the parts, from unit."""
    acc = unit
    for part in parts:
        acc = product(acc, fn(part), mul)
    return acc


def apply_linear(f: Callable, a):
    """Linear extension of a basis map: sum of coeff * f(key)."""
    return type(a)(
        (out_key, out_coef * coef)
        for key, coef in a._terms.items()
        for out_key, out_coef in f(key)._terms.items()
    )


class Forest:
    """Unordered multiset of parts: a monomial of the free commutative algebra.

    Parts are kept as a sorted tuple; the empty forest is the unit.
    Equality is type-strict, so forests of different algebras never
    compare equal, even when both are empty.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable = ()):
        self._parts = tuple(sorted(parts))

    @classmethod
    def empty(cls):
        return cls()

    @classmethod
    def of(cls, *parts):
        return cls(parts)

    def parts(self) -> tuple:
        return self._parts

    def counts(self) -> list[tuple]:
        """Distinct parts with multiplicities, in canonical order."""
        out: list[tuple] = []
        for part in self._parts:
            if out and out[-1][0] == part:
                out[-1] = (part, out[-1][1] + 1)
            else:
                out.append((part, 1))
        return out

    def is_empty(self) -> bool:
        return not self._parts

    def __len__(self) -> int:
        return len(self._parts)

    def merge(self, other: "Forest"):
        return type(self)(self._parts + other._parts)

    def add(self, part):
        return type(self)(self._parts + (part,))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __lt__(self, other: "Forest") -> bool:
        return self._parts < other._parts

    def __str__(self) -> str:
        if not self._parts:
            return "1"
        return " . ".join(str(p) for p in self._parts)

    def __repr__(self) -> str:
        return "{}({})".format(type(self).__name__, self)
