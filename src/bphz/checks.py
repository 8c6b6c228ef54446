"""The sign-off property suites and the predicates they are built from.

A suite is a generator of (label, ok) pairs, one per check, so a caller
can report each check as soon as it finishes.  `bphz verify` runs them by
name from SUITES; the acceptance tests call the same suites and
predicates at their own ranges.  The per-item predicates of the counting
map (orbit-stabilizer, commuting square, insertion and star morphisms)
live in `bphz.bridge`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from . import bridge, feynman as fy, multiindex as mi, renorm, valuation
from .feynman import CanonDiagram, DiagForest
from .lincomb import LinComb
from .multiindex import DegreeParams, MIForest, MultiIndex, Rule
from .symvalue import SymbolicValue


@dataclass(frozen=True)
class Bounds:
    """Enumeration bounds of the suites; the defaults are `bphz verify`'s.

    max_edges bounds orbit-stabilizer and adjointness.  max_he and
    max_verts bound square; valuation uses max_he for both its half-edge
    and its vertex bound.  morphism and hopf run over fixed ranges.
    """

    max_edges: int = 6
    max_he: int = 12
    max_verts: int = 4


# -- predicates -----------------------------------------------------------------


def antipode_identity(x: MultiIndex | CanonDiagram, p: DegreeParams, rule: Rule | None = None) -> bool:
    """The counit identity A(x) + x + sum of coef * A(forest) * trunk = 0.

    The sum runs over the reduced coproduct of a negative-part monomial
    (populatable trunks under rule) or of a canonical diagram (rule
    unused).
    """
    if isinstance(x, MultiIndex):
        acc = renorm.antipode_M(x, p, rule) + LinComb.single(MIForest.of(x))
        reduced = mi.coproduct_reduced(x, p, rule, trunk_in_image=True)
        forest_antipode = lambda forest: renorm.antipode_M_forest(forest, p, rule)
    else:
        acc = renorm.antipode_F(x.diagram, p) + LinComb.single(DiagForest.of(x))
        reduced = fy.coproduct_reduced_F(x.diagram, p)
        forest_antipode = lambda forest: renorm.antipode_F_forest(forest, p)
    for (forest, trunk), coef in reduced.items():
        part = forest_antipode(forest)
        acc = acc + LinComb(((fa.add(trunk), ca * coef) for fa, ca in part.items()))
    return not acc


def adjoint_inner_check(
    comb: LinComb,
    forest: DiagForest,
    trunk: CanonDiagram,
    gamma: CanonDiagram,
    star: LinComb,
) -> bool:
    """Coproduct/star adjointness on one term.

    The coefficient of forest (x) trunk in the coproduct comb of gamma,
    times S(forest) * |Aut(trunk)|, equals the coefficient of gamma in the
    star product of forest into trunk, times |Aut(gamma)|.
    """
    lhs = comb.coeff((forest, trunk)) * forest.sym_factor() * trunk.aut_order
    rhs = star.coeff(gamma) * gamma.aut_order
    return lhs == rhs


def valuations_agree(m: MultiIndex, kernel: valuation.KernelSpec) -> bool:
    """value_M (the lift) and value_M_recursive (the moments) are equal.

    Both are exact rationals, so any difference at all is a failure.
    """
    return valuation.value_M(m, kernel) == valuation.value_M_recursive(m, kernel)


def _symbol_character(name: str) -> renorm.Character:
    return renorm.Character(
        lambda m: SymbolicValue.symbol("{}[{}]".format(name, m)), name=name
    )


def transport_composition(p: DegreeParams, rule: Rule) -> Callable[[MultiIndex], bool]:
    """Predicate on monomials: transport by g, then by f, is transport by g * f.

    Transport by g weights each extracted forest by g; transporting the
    result by f then extracts again from the trunks.  By coassociativity
    the composite weights the outer forest by g and the inner one by f,
    so it is transport by g * f, whose value on m is g(m) + f(m) plus
    coef * g(forest) * f(trunk) over the reduced coproduct.  (f * g
    differs once a trunk is divergent, e.g. on z2 z4^2 at ell = -3/2.)

    f and g send a monomial m to the free symbols f[m] and g[m].  They and
    their convolution are built once, so their memos serve every call.
    """
    f, g = _symbol_character("f"), _symbol_character("g")
    gf = renorm.convolve(g, f, p, rule)

    def composes(m: MultiIndex) -> bool:
        composed = renorm.renorm_map_output(f, renorm.renorm_map(g, m, p, rule), p, rule)
        return composed == renorm.renorm_map(gf, m, p, rule)

    return composes


# -- suites -----------------------------------------------------------------------

Checks = Iterator[tuple[str, bool]]


def orbit_stabilizer(p: DegreeParams, rule: Rule, bounds: Bounds) -> Checks:
    for canon in fy.iter_connected_diagrams(bounds.max_edges):
        yield (
            "orbit-stabilizer {}".format(canon.key),
            bridge.orbit_stabilizer_check(canon.diagram),
        )


def adjointness_terms(p: DegreeParams, max_edges: int) -> Iterator[tuple[str, list[bool]]]:
    """The adjointness checks with one adjoint_inner_check verdict per term.

    First one check per connected diagram up to max_edges, over the terms
    of its reduced coproduct.  Then one check per forest of one or two
    divergent diagrams and host diagram, all of at most three edges, over
    the star-product terms of at most max_edges edges.
    """
    diagrams = list(fy.iter_connected_diagrams(max_edges))

    for gamma in diagrams:
        comb = fy.coproduct_reduced_F(gamma.diagram, p)
        yield (
            "adjointness from coproduct {}".format(gamma.key),
            [
                adjoint_inner_check(
                    comb, forest, trunk, gamma, fy.simultaneous_insert_F(forest, trunk.diagram, None)
                )
                for (forest, trunk), _ in comb.items()
            ],
        )

    small = [c for c in diagrams if c.diagram.edge_count() <= 3]
    divergent_small = [c for c in small if fy.is_divergent(c.diagram, p)]
    forests = [DiagForest.of(c) for c in divergent_small]
    forests += [
        DiagForest.of(a, b)
        for i, a in enumerate(divergent_small)
        for b in divergent_small[i:]
    ]
    for forest in forests:
        for host in small:
            star = fy.simultaneous_insert_F(forest, host.diagram, None)
            yield (
                "adjointness from star [{}] into {}".format(forest, host.key),
                [
                    adjoint_inner_check(
                        fy.coproduct_reduced_F(gamma.diagram, p), forest, host, gamma, star
                    )
                    for gamma, _ in star.items()
                    if gamma.diagram.edge_count() <= max_edges
                ],
            )


def adjointness(p: DegreeParams, rule: Rule, bounds: Bounds) -> Checks:
    for label, verdicts in adjointness_terms(p, bounds.max_edges):
        yield label, all(verdicts)


def square(p: DegreeParams, rule: Rule, bounds: Bounds) -> Checks:
    for m in mi.iter_monomials_within(bounds.max_he, bounds.max_verts):
        if mi.is_populatable(m):
            yield "commuting square {}".format(m), bridge.commuting_square_check(m, p, rule)


def morphism(p: DegreeParams, rule: Rule, bounds: Bounds) -> Checks:
    small = list(fy.iter_connected_diagrams(3))
    for g1 in small:
        for g2 in small:
            for r in (None, rule):
                yield (
                    "insert morphism {} into {} rule={}".format(g1.key, g2.key, r),
                    bridge.morphism_insert_check(g1.diagram, g2.diagram, r),
                )
    tiny = [c for c in small if c.diagram.edge_count() <= 2]
    forests = [DiagForest.of(c) for c in tiny]
    forests += [DiagForest.of(a, b) for a in tiny[:2] for b in tiny[:2]]
    for forest in forests:
        for g in small:
            for r in (None, rule):
                yield (
                    "star morphism [{}] into {} rule={}".format(forest, g.key, r),
                    bridge.morphism_star_check(forest, g.diagram, r),
                )


def valuation_agreement(p: DegreeParams, rule: Rule, bounds: Bounds) -> Checks:
    kernel = valuation.sample_kernel()
    for m in mi.iter_monomials_within(bounds.max_he, bounds.max_he):
        if mi.is_populatable(m):
            yield "valuation {}".format(m), valuations_agree(m, kernel)


def hopf(p: DegreeParams, rule: Rule, bounds: Bounds) -> Checks:
    for m in mi.iter_monomials_within(10, 4):
        if renorm.in_negative_part_M(m, p):
            yield "antipode identity {}".format(m), antipode_identity(m, p, rule)
    for canon in fy.iter_connected_diagrams(4):
        yield "antipode identity {}".format(canon.key), antipode_identity(canon, p)
    composes = transport_composition(p, rule)
    for n in range(2, 7):
        yield "transport composition z4^{}".format(n), composes(MultiIndex.single(4, n))


SUITES: dict[str, Callable[[DegreeParams, Rule, Bounds], Checks]] = {
    "orbit-stabilizer": orbit_stabilizer,
    "adjointness": adjointness,
    "square": square,
    "morphism": morphism,
    "valuation": valuation_agreement,
    "hopf": hopf,
}
