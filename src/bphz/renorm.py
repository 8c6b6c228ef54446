"""Antipodes, twisted antipode evaluation, and the character group.

Both Hopf algebras carry the recursive antipode on their negative parts;
evaluating a character against the antipode of extracted pieces yields
the subtraction scheme.  The output of a subtraction is a combination of
basis forests with polynomial coefficients over formal evaluation
symbols, so the result stays exact.

Each recursion is memoized by a ``functools.cache`` on the map it
computes: `antipode_M` per (monomial, params, rule), `_antipode_F` per
(canonical class, params), and every `Character` per component (so the
inverse character, which recurses through itself).  ``cache_clear()``
empties the module caches.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from typing import Callable, Iterable

from . import feynman as fy
from . import multiindex as mi
from .feynman import CanonDiagram, DiagForest, Diagram
from .lincomb import Forest, LinComb, apply_linear, multiplicative
from .multiindex import DegreeParams, MIForest, MultiIndex, Rule
from .symvalue import SymbolicValue, _coerce


def in_negative_part_M(m: MultiIndex, p: DegreeParams) -> bool:
    """Populatable and of non-positive degree."""
    return mi.is_populatable(m) and mi.is_divergent(m, p)


def in_negative_part_F(g: Diagram, p: DegreeParams) -> bool:
    return fy.is_divergent(g, p)


def _on_forest(component: Callable, f: Forest) -> LinComb:
    """component extended multiplicatively to the forest f: the product of
    its values on the parts, from the empty forest."""
    return multiplicative(component, f.parts(), LinComb.single(type(f).empty()), type(f).merge)


def _antipode(top: Forest, reduced_items: Iterable, component: Callable) -> LinComb:
    """-top - sum of coef * component(forest) * trunk: the antipode recursion.

    top is the singleton forest of the element, reduced_items are the
    ((forest, trunk), coef) terms of its reduced coproduct, and component
    is the antipode on one part; the recursion extends it to forests.
    """
    return LinComb(
        chain(
            ((top, -1),),
            (
                (key.add(trunk), -coef * c)
                for (forest, trunk), coef in reduced_items
                for key, c in _on_forest(component, forest)._terms.items()
            ),
        )
    )


@cache
def antipode_M(m: MultiIndex, p: DegreeParams, rule: Rule) -> LinComb[MIForest]:
    """Recursive antipode on the negative part; zero elsewhere.

    A(m) = -m - sum over reduced-coproduct terms of A(forest) * trunk,
    extended multiplicatively to forests.  Trunks must lie in the image
    of the counting map for the recursion to stay inside the algebra of
    realizable monomials (this is what kills, e.g., a lone z2 trunk: one
    arity-2 vertex cannot pair its own legs).
    """
    if not in_negative_part_M(m, p):
        return LinComb.zero()
    reduced = mi.coproduct_reduced(m, p, rule, trunk_in_image=True)
    return _antipode(MIForest.of(m), reduced.items(), lambda part: antipode_M(part, p, rule))


def antipode_M_forest(f: MIForest, p: DegreeParams, rule: Rule) -> LinComb[MIForest]:
    """Multiplicative extension of the antipode to forests."""
    return _on_forest(lambda part: antipode_M(part, p, rule), f)


def antipode_F(g: Diagram, p: DegreeParams) -> LinComb[DiagForest]:
    """Recursive diagram antipode.

    The recursion runs on any diagram.  The subtraction takes it as zero
    outside the negative part (`bphz_F` guards with `in_negative_part_F`);
    extracted pieces are always divergent, so the guard only matters at
    the top level.
    """
    return _antipode_F(fy.canonicalize(g), p)


@cache
def _antipode_F(canon: CanonDiagram, p: DegreeParams) -> LinComb[DiagForest]:
    """The antipode of one isomorphism class, computed on its representative."""
    return _antipode(
        DiagForest.of(canon),
        fy._coproduct_reduced_F(canon, p).items(),
        lambda part: _antipode_F(part, p),
    )


def antipode_F_forest(f: DiagForest, p: DegreeParams) -> LinComb[DiagForest]:
    """Multiplicative extension of the antipode to forests of classes."""
    return _on_forest(lambda part: _antipode_F(part, p), f)


class Character:
    """Multiplicative functional on forests, valued in symbolic polynomials.

    Built from a function on single components (monomials or canonical
    diagrams); the empty forest maps to one and forests map to the
    product over their components.  Values are memoized by component.
    """

    def __init__(self, component_fn: Callable, name: str = ""):
        self.name = name
        self._memo = cache(lambda comp: _coerce(component_fn(comp)))

    def on_component(self, comp) -> SymbolicValue:
        return self._memo(comp)

    def __call__(self, x) -> SymbolicValue:
        if not isinstance(x, Forest):
            return self.on_component(x)
        parts = x.parts()
        if not parts:
            return SymbolicValue.one()
        acc = self.on_component(parts[0])
        for part in parts[1:]:
            acc = acc * self.on_component(part)
        return acc

    def on_lincomb(self, comb: LinComb) -> SymbolicValue:
        """Linear extension: the sum of coef * self(key), built in one step."""
        return SymbolicValue(
            (mono, value * coef)
            for key, coef in comb.items()
            for mono, value in self(key).terms()
        )

    def __repr__(self) -> str:
        return "Character({})".format(self.name or "anonymous")


def counit_M() -> Character:
    return Character(lambda comp: SymbolicValue.zero(), name="counit")


class RenormOutput(LinComb):
    """Combination of basis forests with symbolic-polynomial coefficients."""

    __slots__ = ()

    _coerce = staticmethod(_coerce)

    def to_json(self) -> list:
        return [
            {"basis": str(k), "coefficient": str(v)} for k, v in self.items()
        ]


def _transport(weight: Callable, full: LinComb, negative: bool = True) -> RenormOutput:
    """(weight tensor id) against a full coproduct: right legs weighted by
    weight of their left leg.

    Off the negative part (negative False) the primitive term x (x) 1, the
    one term whose right leg is empty, is weighted zero, since characters
    extend by zero there.  No other left leg needs the test: the empty
    forest, or forests of extracted parts, which are divergent (and
    populatable) by construction.
    """
    return RenormOutput(
        (right, (weight(left) if negative or not right.is_empty() else SymbolicValue.zero()) * coef)
        for (left, right), coef in full.items()
    )


def bphz_M(
    m: MultiIndex, char: Character, p: DegreeParams, rule: Rule
) -> RenormOutput:
    """Twisted-antipode subtraction on a monomial.

    (char o antipode tensor id) applied to the full coproduct: the
    monomial itself, a constant term char(A(m)) on the empty basis, and
    one term per reduced extraction weighted by char of the antipode of
    the extracted forest.
    """
    return _transport(
        lambda left: char.on_lincomb(antipode_M_forest(left, p, rule)),
        mi.coproduct_full(m, p, rule, trunk_in_image=True),
    )


def bphz_F(g: Diagram, char: Character, p: DegreeParams) -> RenormOutput:
    """Twisted-antipode subtraction on a diagram (the antipode taken as
    zero off the negative part, so a convergent diagram has no constant
    term)."""
    return _transport(
        lambda left: char.on_lincomb(antipode_F_forest(left, p)),
        fy.coproduct_full_F(g, p),
        in_negative_part_F(g, p),
    )


def _negative_terms_M(m: MultiIndex, p: DegreeParams, rule: Rule) -> list:
    """The ((forest, trunk), coef) terms of m's reduced coproduct whose
    trunk is in the image and divergent: the right leg projected to the
    negative part, as the character group reads the coproduct."""
    reduced = mi.coproduct_reduced(m, p, rule, trunk_in_image=True)
    return [
        ((forest, trunk), coef)
        for (forest, trunk), coef in reduced.items()
        if mi.is_divergent(trunk, p)
    ]


def _negative_terms_F(canon: CanonDiagram, p: DegreeParams) -> list:
    """The reduced-coproduct terms of a class whose trunk is divergent."""
    reduced = fy._coproduct_reduced_F(canon, p)
    return [
        ((forest, trunk), coef)
        for (forest, trunk), coef in reduced.items()
        if fy.is_divergent(trunk.diagram, p)
    ]


def _convolve(f: Character, g: Character, terms: Callable) -> Character:
    """f(x) + g(x) plus coef * f(forest) * g(trunk) over terms(x)."""

    def component_fn(x) -> SymbolicValue:
        acc = f(x) + g(x)
        for (forest, trunk), coef in terms(x):
            acc = acc + f(forest) * g(trunk) * coef
        return acc

    name = "({} * {})".format(f.name or "f", g.name or "g")
    return Character(component_fn, name=name)


def convolve(f: Character, g: Character, p: DegreeParams, rule: Rule) -> Character:
    """Convolution product of characters on the negative part.

    (f tensor g) against the coproduct with the right leg projected to
    the negative part: f(m) + g(m) plus the sum over reduced extractions
    with divergent populatable trunks of f(forest) * g(trunk).
    """
    return _convolve(f, g, lambda m: _negative_terms_M(m, p, rule))


def convolve_F(f: Character, g: Character, p: DegreeParams) -> Character:
    """Diagram-side convolution with the same negative-part projection."""
    return _convolve(f, g, lambda canon: _negative_terms_F(canon, p))


def character_inverse(f: Character, p: DegreeParams, rule: Rule) -> Character:
    """Group inverse: the g with g * f = counit on the negative part.

    Solving convolve(g, f) = 0 for g(m) gives the recursion
    g(m) = -f(m) - sum of coef * g(forest) * f(trunk) over the terms the
    convolution sums; g is zero off the negative part.
    """

    def component_fn(m: MultiIndex) -> SymbolicValue:
        if not in_negative_part_M(m, p):
            return SymbolicValue.zero()
        acc = -f(m)
        for (forest, trunk), coef in _negative_terms_M(m, p, rule):
            acc = acc - inv(forest) * f(trunk) * coef
        return acc

    inv = Character(component_fn, name="inv({})".format(f.name or "f"))
    return inv


def renorm_map(
    f: Character, m: MultiIndex, p: DegreeParams, rule: Rule
) -> RenormOutput:
    """The measure-transport map: (f tensor id) against the full coproduct.

    Yields m itself, f(m) on the empty basis (zero unless m is in the
    negative part, since characters extend by zero), and the reduced
    extraction terms weighted by f of the extracted forest.
    """
    return _transport(
        f, mi.coproduct_full(m, p, rule, trunk_in_image=True), in_negative_part_M(m, p)
    )


def renorm_map_forest(
    f: Character, basis: MIForest, p: DegreeParams, rule: Rule
) -> RenormOutput:
    """Multiplicative extension of the transport map to basis forests."""
    return multiplicative(
        lambda part: renorm_map(f, part, p, rule),
        basis.parts(),
        RenormOutput([(MIForest.empty(), SymbolicValue.one())]),
        MIForest.merge,
    )


def renorm_map_output(
    f: Character, series: RenormOutput, p: DegreeParams, rule: Rule
) -> RenormOutput:
    """Apply the transport map linearly to a combination of basis forests."""
    return apply_linear(lambda key: renorm_map_forest(f, key, p, rule), series)
