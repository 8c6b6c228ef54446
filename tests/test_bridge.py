"""Counting map vs pairing lift: censuses, adjointness, the square.

Core claims (hand-checked oracles):
    - pairing censuses: z3^2 has 6 pairings (all the triple edge), z4^2
      has 24, z2^2 has 2, z2^3 has 8 labeled triangles, z4^3 has 1728
      doubled triangles, z1^4 splits into 3 disconnected two-edge forests
    - the census grouped by multiplicity matrix equals the census taken
      one labeled matching at a time, class by class
    - the connected census is the one-part buckets of the unrestricted
      census, in values and order, on all 245 arity tuples with at most
      12 half-edges and 7 vertices; the orbit-stabilizer and valuation
      suites of `bphz verify` build one census per arity tuple, 110 in all
    - lift goldens: P(z3^2)=6, P(z2^2)=2, P(z2 z4^2)=192, the three
      iso-classes of P(z4^4); anything containing an isolatable z0 lifts
      to zero
    - the lift is the connected census on every monomial with at most 10
      half-edges and 5 vertices, and on every one with at most 12
      half-edges and 6 vertices plus z4^6, z3^6, z2 z4^5 and z3^4 z4^2
    - beyond the census: the lift's coefficients sum to the number of
      connected loopless labeled pairings, counted by inclusion-exclusion
      over loops and the exponential formula; z4^2..z4^8 have 1, 1, 3, 6,
      19, 50 and 204 classes
    - a class counted twice, as when it finishes at two depths of the
      generation, fails both oracles
    - a cold lift of z4^6 (z4^7) runs 255 (1,020) canonical searches, one
      per generated state, and files each class in the one class table
    - a caller that mutates a lift, or tries to mutate the memoized
      classes it is built from, cannot change a later lift
    - orbit-stabilizer identity S_M = N * S_F on every diagram up to 6 edges
    - the lift is adjoint to the counting map on small pairs
    - the extraction square commutes for small populatable monomials,
      with and without an arity rule, and on all 109 populatable
      monomials with at most 14 half-edges and 5 vertices at ell=-1, -3/2
      and -2 (d=3)
"""

from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest

from bphz import bridge, checks, feynman as fy
from bphz.bridge import (
    _census_key,
    adjoint_phi_P_check,
    commuting_square_check,
    enumerate_pairings,
    lift_P,
    lift_P_forest,
    morphism_insert_check,
    morphism_star_check,
    orbit_stabilizer_check,
)
from bphz.feynman import (
    DiagForest,
    Diagram,
    canonicalize,
    counting_map,
    iter_connected_diagrams,
)
from bphz.lincomb import LinComb
from bphz.multiindex import (
    DegreeParams,
    MIForest,
    MultiIndex,
    Rule,
    is_populatable,
    iter_monomials_within,
    sym_factor,
)
from bphz.pairings import components, iter_labeled_matchings

P = DegreeParams(Fraction(-1), 3)
RULE = Rule.parse("2,4")

III = canonicalize(Diagram.parse("n=2; e=1-2,1-2,1-2"))
YII = canonicalize(Diagram.parse("n=2; e=1-2,1-2"))
IV = canonicalize(Diagram.parse("n=2; e=1-2,1-2,1-2,1-2"))
BRIDGE = canonicalize(Diagram.parse("n=3; e=1-2,1-3,2-3,2-3,2-3"))


def _m(text: str) -> MultiIndex:
    return MultiIndex.parse(text)


# -- pairing censuses -----------------------------------------------------------

def test_census_goldens_connected():
    cases = (
        ("z3^2", III, 6),
        ("z4^2", IV, 24),
        ("z2^2", YII, 2),
        ("z2^3", canonicalize(Diagram.parse("n=3; e=1-2,1-3,2-3")), 8),
        ("z4^3", canonicalize(Diagram.parse("n=3; e=1-2,1-2,1-3,1-3,2-3,2-3")), 1728),
        ("z1^2", canonicalize(Diagram.parse("n=2; e=1-2")), 1),
    )
    for text, canon, count in cases:
        out = enumerate_pairings(_m(text), connected_only=True)
        assert out == {canon: count}, text
        assert out.total() == count


def test_census_disconnected_forests():
    out = enumerate_pairings(_m("z1^4"), connected_only=False)
    k2 = canonicalize(Diagram.parse("n=2; e=1-2"))
    assert out == {DiagForest.of(k2, k2): 3}
    assert enumerate_pairings(_m("z1^4"), connected_only=True).total() == 0


def test_census_with_free_legs():
    out = enumerate_pairings(_m("z3^2"), connected_only=True, free_legs=2)
    assert out.total() == 18
    assert len(out) == 1
    assert enumerate_pairings(_m("z3^2"), connected_only=True, free_legs=1).total() == 0


def test_census_copies_are_independent_of_the_memo():
    out = enumerate_pairings(_m("z3^2"), connected_only=True)
    out[III] += 5
    out["junk"] = 1
    assert enumerate_pairings(_m("z3^2"), connected_only=True) == {III: 6}


def _census_by_matching(m: MultiIndex, connected_only: bool, free_legs: int) -> dict:
    """The pairing census one labeled matching at a time (the oracle).

    Designates every free-leg subset of the numbered half-edges, pairs the
    rest by brute force, and buckets each matching on its own.
    """
    arities = m.arity_list()
    n = len(arities)
    total = sum(arities)
    counts: dict = {}
    if free_legs < 0 or free_legs > total or (total - free_legs) % 2:
        return counts
    owners = [v for v, k in enumerate(arities) for _ in range(k)]
    for free_set in combinations(range(total), free_legs):
        legs = [0] * n
        for i in free_set:
            legs[owners[i]] += 1
        residual = [k - l for k, l in zip(arities, legs)]
        for edges in iter_labeled_matchings(residual):
            if connected_only and len(components(n, edges)) != 1:
                continue
            key = _census_key(arities, edges, tuple(legs), connected_only)
            counts[key] = counts.get(key, 0) + 1
    return counts


def test_census_matches_one_matching_at_a_time():
    cases = 0
    for m in iter_monomials_within(8, 5):
        for connected_only in (True, False):
            for free_legs in range(4):
                want = _census_by_matching(m, connected_only, free_legs)
                got = enumerate_pairings(m, connected_only, free_legs)
                assert got == want, (str(m), connected_only, free_legs)
                cases += 1
    assert cases == 472


def test_connected_census_is_the_one_part_buckets_of_the_unrestricted_census():
    # orbit_stabilizer_check reads N(g) from the unrestricted census: with
    # every arity >= 1, a one-part forest is exactly a connected pairing.
    tuples = populated = 0
    for m in iter_monomials_within(12, 7):
        unrestricted = enumerate_pairings(m, connected_only=False)
        one_part = [(forest.parts()[0], n) for forest, n in unrestricted.items() if len(forest) == 1]
        assert list(enumerate_pairings(m, connected_only=True).items()) == one_part, str(m)
        tuples += 1
        populated += bool(one_part)
    assert (tuples, populated) == (245, 88)


def test_orbit_stabilizer_and_valuation_share_one_census_per_arity_tuple(cold_memos):
    # The orbit-stabilizer monomials are among the valuation suite's, so
    # its censuses are the moments'; the connected census is never built.
    for name in ("orbit-stabilizer", "valuation"):
        assert all(ok for _, ok in checks.SUITES[name](P, RULE, checks.Bounds())), name
    assert bridge._census.cache_info().currsize == 110


# -- the lift ----------------------------------------------------------------------

def test_lift_goldens():
    assert lift_P(_m("z3^2")) == LinComb.single(III, 6)
    assert lift_P(_m("z2^2")) == LinComb.single(YII, 2)
    assert lift_P(_m("z4^2")) == LinComb.single(IV, 24)
    assert lift_P(_m("z2 z4^2")) == LinComb.single(BRIDGE, 192)


def test_lift_of_unpopulatable_is_zero():
    for text in ("z2", "z4", "z2 z4", "z3"):
        assert lift_P(_m(text)) == LinComb.zero(), text


def test_lift_with_isolatable_vertex_is_zero():
    assert lift_P(_m("z0")) == LinComb.zero()
    assert lift_P(_m("z4 z0")) == LinComb.zero()


def test_lift_z4_4_three_classes():
    lifted = lift_P(_m("z4^4"))
    chain = canonicalize(Diagram.parse("n=4; e=1-2,1-2,1-2,1-3,2-4,3-4,3-4,3-4"))
    ring = canonicalize(Diagram.parse("n=4; e=1-2,1-2,1-3,1-3,2-4,2-4,3-4,3-4"))
    mixed = canonicalize(Diagram.parse("n=4; e=1-2,1-2,1-3,1-4,2-3,2-4,3-4,3-4"))
    assert lifted.coeff(chain) == 55296
    assert lifted.coeff(ring) == 62208
    assert lifted.coeff(mixed) == 248832
    assert len(lifted) == 3


def test_lift_equals_connected_census():
    monomials = list(iter_monomials_within(10, 5))
    assert len(monomials) == 112
    for m in monomials:
        assert lift_P(m) == LinComb(enumerate_pairings(m, connected_only=True)), m


def _lift_matches_census(m: MultiIndex) -> bool:
    return lift_P(m) == LinComb(enumerate_pairings(m, connected_only=True))


def test_lift_matches_census_up_to_twelve_half_edges():
    monomials = list(iter_monomials_within(12, 6))
    assert len(monomials) == 226
    for m in monomials:
        assert _lift_matches_census(m), str(m)
    for text in ("z4^6", "z3^6", "z2 z4^5", "z3^4 z4^2"):
        assert _lift_matches_census(_m(text)), text


def _loopless_pairings(arities: list[int]) -> int:
    """Loopless pairings of labeled half-edges, by inclusion-exclusion over loops.

    A vertex of arity k holds j disjoint same-vertex pairs in
    k! / (j! 2^j (k - 2j)!) ways (1 + 6x + 3x^2 for k = 4); fixing J such
    pairs leaves (H - 2J - 1)!! pairings of the other half-edges.
    """
    poly = [1]
    for k in arities:
        loops = [factorial(k) // (factorial(j) * 2**j * factorial(k - 2 * j)) for j in range(k // 2 + 1)]
        poly = [
            sum(poly[i] * loops[d - i] for i in range(len(poly)) if 0 <= d - i < len(loops))
            for d in range(len(poly) + len(loops) - 1)
        ]
    half_edges = sum(arities)
    if half_edges % 2:
        return 0
    total = 0
    for j, ways in enumerate(poly):
        others = 1
        for odd in range(half_edges - 2 * j - 1, 0, -2):
            others *= odd
        total += (-1) ** j * ways * others
    return total


def _connected_pairings(arities: tuple[int, ...]) -> int:
    """Connected loopless labeled pairings, by the exponential formula.

    The component of the lowest vertex of a vertex set S is some T inside
    S holding it, so loopless(S) = sum_T connected(T) * loopless(S \\ T).
    """
    n = len(arities)
    loopless = [_loopless_pairings([arities[v] for v in range(n) if s >> v & 1]) for s in range(1 << n)]
    connected = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        rest = s ^ low
        total = loopless[s]
        sub = rest
        while sub:
            # the proper subsets of rest, from the largest down to the empty one
            sub = (sub - 1) & rest
            total -= connected[sub | low] * loopless[rest ^ sub]
        connected[s] = total
    return connected[-1]


def _lift_matches_count(m: MultiIndex) -> bool:
    return sum(coef for _, coef in lift_P(m).items()) == _connected_pairings(m.arity_list())


def test_connected_pairing_count_matches_census():
    for m in iter_monomials_within(10, 5):
        assert _connected_pairings(m.arity_list()) == enumerate_pairings(m, True).total(), str(m)


def test_lift_of_quartic_towers_beyond_the_census():
    sums = (24, 1728, 366336, 123752448, 61557719040, 42424382914560, 38731526205603840)
    classes = (1, 1, 3, 6, 19, 50, 204)
    for n, total, count in zip(range(2, 9), sums, classes):
        lifted = lift_P(MultiIndex.single(4, n))
        assert len(lifted) == count, n
        assert sum(coef for _, coef in lifted.items()) == total == _connected_pairings((4,) * n), n
    for text in ("z3^8", "z2^2 z3^2 z4^3", "z1 z3 z5 z6^2"):
        assert _lift_matches_count(_m(text)), text


@pytest.mark.parametrize("text", ["z2^6", "z4^4", "z2 z3^2 z4"])
def test_lift_oracles_fail_on_a_class_counted_twice(cold_memos, monkeypatch, text):
    """A class filed once per depth at which it finishes doubles its coefficient."""
    m = _m(text)
    generate = bridge._connected_classes
    monkeypatch.setattr(bridge, "_connected_classes", lambda arities: generate(arities)[:1] + generate(arities))
    assert not _lift_matches_census(m)
    assert not _lift_matches_count(m)


def test_a_cold_lift_files_each_class_from_the_search_that_finished_it(cold_memos, monkeypatch):
    # A fresh class table, so no class of the lifts below is known yet.
    monkeypatch.setattr(fy, "_canon_cache", {})
    searches = []
    search = fy._canonical_search
    counting = lambda *args: searches.append(args) or search(*args)
    monkeypatch.setattr(fy, "_canonical_search", counting)
    monkeypatch.setattr(bridge, "_canonical_search", counting)
    for n, count in ((6, 255), (7, 1020)):
        searches.clear()
        lifted = lift_P(MultiIndex.single(4, n))
        assert len(searches) == count, n
        assert all(canonicalize(canon.diagram) is canon for canon in lifted.keys()), n
        assert len(searches) == count, n


def test_mutating_a_lift_or_its_classes_cannot_change_a_later_call():
    m = _m("z4^4")
    first = lift_P(m)
    want = dict(first._terms)
    first._terms.clear()
    assert lift_P(m)._terms == want
    classes = bridge._connected_classes(m.arity_list())
    assert type(classes) is tuple and len(classes) == 3
    with pytest.raises(TypeError):
        classes[0] = classes[1]
    with pytest.raises(AttributeError):
        classes.append(classes[0])
    assert bridge._connected_classes(m.arity_list()) is classes
    assert lift_P(m)._terms == want


def test_lift_forest_multiplies_components():
    f = MIForest.parse("z3^2 . z3^2")
    assert lift_P_forest(f) == LinComb.single(DiagForest.of(III, III), 36)
    assert lift_P_forest(MIForest.empty()) == LinComb.single(DiagForest.empty(), 1)


def test_lift_counts_satisfy_orbit_stabilizer():
    # every class of the lift independently obeys S_M = N * S_F
    for text in ("z3^2", "z4^2", "z2 z4^2", "z4^3", "z4^4"):
        m = _m(text)
        for canon, count in lift_P(m).items():
            assert count * canon.aut_order == sym_factor(m), (text, canon.key)


# -- identities over small enumerations ---------------------------------------------

def test_orbit_stabilizer_small_diagrams():
    for canon in iter_connected_diagrams(6):
        assert orbit_stabilizer_check(canon.diagram), canon.key


def test_adjointness_of_lift_and_counting_map():
    for canon in iter_connected_diagrams(3):
        g = canon.diagram
        assert adjoint_phi_P_check(g, counting_map(g)), canon.key
        assert adjoint_phi_P_check(g, _m("z6^2")), canon.key


def test_commuting_square_small_monomials():
    for m in iter_monomials_within(8, 3):
        if not is_populatable(m):
            continue
        assert commuting_square_check(m, P, RULE), str(m)
        assert commuting_square_check(m, P, None), str(m)


@pytest.mark.parametrize("ell", [Fraction(-1), Fraction(-3, 2), Fraction(-2)], ids=str)
def test_commuting_square_over_fourteen_half_edges(ell):
    # only at ell=-2 are the edge thresholds d(V-1)/(-ell) of the diagram
    # side's divergence test not all integers
    p = DegreeParams(ell, 3)
    monomials = [m for m in iter_monomials_within(14, 5) if is_populatable(m)]
    assert len(monomials) == 109
    for rule in (RULE, None):
        failures = [str(m) for m in monomials if not commuting_square_check(m, p, rule)]
        assert failures == [], (ell, rule)


def test_morphism_checks_small():
    small = [c.diagram for c in iter_connected_diagrams(3)]
    for g1 in small:
        for g2 in small:
            assert morphism_insert_check(g1, g2, RULE)
            assert morphism_insert_check(g1, g2, None)
    f = DiagForest.of(III)
    assert morphism_star_check(f, YII.diagram, RULE)
    assert morphism_star_check(f, YII.diagram, None)
    f2 = DiagForest.of(YII, YII)
    tri = Diagram.parse("n=3; e=1-2,1-3,2-3")
    assert morphism_star_check(f2, tri, None)
