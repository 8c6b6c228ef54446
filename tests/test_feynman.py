"""Multigraph diagrams: canonical forms, extraction coproduct, insertion.

Core claims (hand-checked oracles):
    - symmetry factors count vertex automorphisms times parallel-edge
      permutations: triple edge 12, double edge 4, quadruple edge 48,
      the bridged triple edge 12, the six-leaf star 720
    - canonical forms identify relabelings and never depend on input order;
      each class is one object, and canonicalizing its representative runs
      no search
      (property-tested on random relabelings with random edge orders of
      every connected diagram with at most 5 edges, where aut_order also
      meets a brute-force count over all vertex permutations)
    - the canonical search (enumeration of small color classes, branch
      and bound above) equals the enumeration of every arrangement of the
      color classes on key, aut_order and leg-decorated key: every
      connected diagram with at most 7 edges, the 7- and 8-vertex stars
      and the lift classes of z3^6 and z2 z4^5, each under a random
      relabeling and random 0/1 legs, with and without the enumeration
    - counting map reads off vertex arities
    - extraction coproduct goldens: the bridged triple edge has exactly
      one divergent extraction; the two-triple chain has the 2/1 pattern;
      triangles are primitive at (ell=-1, d=3)
    - divergent extractions, enumerated as families of disjoint vertex
      blocks, equal the brute-force loop over edge masks as (forest,
      canonical trunk) multisets on every connected diagram with at most 7
      edges and on the lifts of z4^4, z4^5 and z2^3 z4^3, at (ell, d) =
      (-1, 3), (-3/2, 3) and (-1, 4)
    - insertion golden: triple edge into double edge under rule {2,4}
      gives 4 copies of the bridged diagram; unruled adds 4 pinched ones
    - single insertion, the one-part simultaneous insertion, equals the
      independent cut-a-vertex-and-graft-its-legs construction on every
      pair of connected diagrams with at most 4 edges each and 7 in all,
      with and without the rule {2,4}
    - simultaneous insertion of two-part forests of diagrams with at most
      2 edges into hosts with at most 3 edges equals the same construction
      at ordered, distinct cut vertices, the double edge included, where
      both ends of every host edge are cut
    - the class memos serve relabelings: the reduced coproduct of a random
      relabeling of every diagram with at most 5 edges equals the
      combination of its own labeled extractions at every oracle (ell, d),
      and inserting a forest of one or two diagrams with at most 2 edges
      into a random relabeling of a host with at most 3 edges equals the
      cut-graft construction on that labeling, with and without the rule;
      a memo whose key drops the params or the rule fails both
    - edge-by-edge enumeration agrees with an independent
      multiplicity-matrix enumeration
    - is_divergent, decided on integers, follows the sign of the degree on
      every connected diagram with at most 6 edges at seven ells in
      [-2, 1/2], d = 3
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bphz import feynman as fy
from bphz.bridge import lift_P
from bphz.lincomb import LinComb
from bphz.multiindex import DegreeParams, MultiIndex, Rule
from bphz.pairings import components
from bphz.feynman import (
    CanonDiagram,
    DiagForest,
    Diagram,
    _canonical_search,
    canonicalize,
    coproduct_full_F,
    coproduct_reduced_F,
    counting_map,
    degree,
    divergent_extractions,
    insert_F,
    is_divergent,
    iter_connected_diagrams,
    simultaneous_insert_F,
)

P = DegreeParams(Fraction(-1), 3)
RULE = Rule.parse("2,4")

III = Diagram.parse("n=2; e=1-2,1-2,1-2")
YII = Diagram.parse("n=2; e=1-2,1-2")
IV = Diagram.parse("n=2; e=1-2,1-2,1-2,1-2")
BRIDGE = Diagram.parse("n=3; e=1-2,1-3,2-3,2-3,2-3")
TRIANGLE = Diagram.parse("n=3; e=1-2,1-3,2-3")


# -- parsing and validation -----------------------------------------------------

def test_parse_round_trip():
    for g in (III, YII, BRIDGE, TRIANGLE):
        assert canonicalize(Diagram.parse(str(g))) == canonicalize(g)


def test_parse_rejects_invalid_diagrams():
    bad = (
        "n=2; e=1-1",        # self-loop
        "n=2; e=1-3",        # endpoint out of range
        "n=4; e=1-2,3-4",    # disconnected
        "n=3; e=1-2",        # vertex 3 uncovered
        "n=0; e=1-2",        # no vertices
    )
    for text in bad:
        with pytest.raises(ValueError):
            Diagram.parse(text)


def test_json_round_trip():
    g = BRIDGE
    data = g.to_json()
    assert data["n"] == 3
    assert canonicalize(Diagram(data["n"], [(u - 1, v - 1) for u, v in data["e"]])) \
        == canonicalize(g)


# -- canonical forms and symmetry factors ------------------------------------------

def test_aut_order_goldens():
    cases = (
        ("n=2; e=1-2", 2),
        ("n=2; e=1-2,1-2", 4),
        ("n=2; e=1-2,1-2,1-2", 12),
        ("n=2; e=1-2,1-2,1-2,1-2", 48),
        ("n=3; e=1-2,1-3,2-3,2-3,2-3", 12),
        ("n=3; e=1-2,1-3", 2),
        ("n=3; e=1-2,1-3,2-3", 6),
        ("n=7; e=1-7,2-7,3-7,4-7,5-7,6-7", 720),
        ("n=3; e=1-2,1-2,1-3,1-3,2-3,2-3", 48),
    )
    for text, want in cases:
        assert canonicalize(Diagram.parse(text)).aut_order == want, text


def test_canonical_form_is_labeling_independent():
    a = Diagram.parse("n=3; e=1-2,1-3")
    b = Diagram.parse("n=3; e=2-3,1-3")
    c = Diagram.parse("n=3; e=1-2,2-3")
    assert canonicalize(a) is canonicalize(b)
    assert canonicalize(a) is canonicalize(c)
    assert canonicalize(a).aut_order == 2


def test_a_class_representative_is_never_searched_again(monkeypatch):
    # A fresh table, so the classes below are new and no earlier test has
    # canonicalized their representatives.
    monkeypatch.setattr(fy, "_canon_cache", {})
    classes = list(iter_connected_diagrams(5))
    searches = []
    search = fy._canonical_search
    monkeypatch.setattr(fy, "_canonical_search", lambda *args: searches.append(args) or search(*args))
    for c in classes:
        assert canonicalize(c.diagram) is c, c.key
        assert fy.CanonDiagram(c.diagram) is c, c.key
    assert searches == []


DIAGRAMS_5 = sorted(iter_connected_diagrams(5))


@st.composite
def relabeled_diagrams(draw, pool=DIAGRAMS_5):
    """A class of the pool (by default every connected diagram with <= 5
    edges) and a random relabeling of its representative."""
    canon = draw(st.sampled_from(pool))
    g = canon.diagram
    perm = draw(st.permutations(range(g.vertex_count)))
    edges = [(perm[u], perm[v]) if draw(st.booleans()) else (perm[v], perm[u]) for u, v in g.edges]
    return canon, Diagram(g.vertex_count, draw(st.permutations(edges)))


def _brute_force_aut_order(g: Diagram) -> int:
    """Vertex permutations fixing the edge multiset, times the parallel-edge factorials."""
    edges = sorted(g.edges)
    fixing = sum(
        1
        for perm in permutations(range(g.vertex_count))
        if sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges) == edges
    )
    return fixing * prod(factorial(m) for m in g.multiplicity().values())


PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def _enumeration_oracle(n: int, edges, decorations=None):
    """The canonical form by trying every arrangement of the color classes.

    Colors start from (degree, decoration) ranks and are split by
    colored-neighborhood signatures until stable; the classes in color
    order take consecutive label ranges.  Returns the least (sorted
    relabeled edges, decorations in label order) over all arrangements and
    the number of arrangements reaching it.
    """
    mult = Counter((u, v) if u < v else (v, u) for u, v in edges)
    degs = [0] * n
    for (u, v), m in mult.items():
        degs[u] += m
        degs[v] += m
    base = [(degs[v], decorations[v] if decorations is not None else 0) for v in range(n)]
    order = sorted(set(base))
    colors = [order.index(b) for b in base]
    while True:
        signatures = []
        for v in range(n):
            neigh = Counter()
            for (a, b), m in mult.items():
                if v in (a, b):
                    neigh[colors[b if a == v else a], m] += 1
            signatures.append((colors[v], tuple(sorted(neigh.items()))))
        order = sorted(set(signatures))
        refined = [order.index(sig) for sig in signatures]
        if refined == colors:
            break
        colors = refined
    blocks = [[v for v in range(n) if colors[v] == c] for c in sorted(set(colors))]
    best, aut = None, 0
    for arrangement in product(*(permutations(block) for block in blocks)):
        perm = {v: i for i, v in enumerate(v for block in arrangement for v in block)}
        relabeled = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
        deco = None if decorations is None else tuple(decorations[v] for v in sorted(perm, key=perm.get))
        candidate = (relabeled, deco)
        if best is None or candidate < best:
            best, aut = candidate, 1
        elif candidate == best:
            aut += 1
    return best[0], aut, best[1]


def _assert_search_matches_oracle(g: Diagram, rng) -> None:
    """Key, aut_order and leg-decorated key of a random relabeling of g."""
    n = g.vertex_count
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    rng.shuffle(edges)
    relabeled = Diagram(n, edges)
    key, aut, _ = _enumeration_oracle(n, relabeled.edges)
    assert _canonical_search(n, relabeled.edges) == (key, aut, None), str(g)
    canon = canonicalize(relabeled)
    assert canon.diagram.edges == key, str(g)
    assert canon.aut_order == aut * prod(factorial(m) for m in g.multiplicity().values()), str(g)
    legs = tuple(rng.randrange(2) for _ in range(n))
    assert _canonical_search(n, relabeled.edges, legs) == _enumeration_oracle(n, relabeled.edges, legs), (str(g), legs)


# 0 sends every search through the branch and bound.
SEARCH_LIMITS = pytest.mark.parametrize("limit", [0, fy._ENUMERATION_LIMIT])


@SEARCH_LIMITS
def test_canonical_search_matches_enumeration_oracle(monkeypatch, limit):
    monkeypatch.setattr(fy, "_ENUMERATION_LIMIT", limit)
    rng = random.Random(10)
    cases = 0
    for canon in iter_connected_diagrams(7):
        for _ in range(2):
            _assert_search_matches_oracle(canon.diagram, rng)
            cases += 1
    assert cases == 2 * len(list(iter_connected_diagrams(7)))


@SEARCH_LIMITS
def test_canonical_search_matches_enumeration_oracle_on_stars_and_lifts(monkeypatch, limit):
    monkeypatch.setattr(fy, "_ENUMERATION_LIMIT", limit)
    rng = random.Random(11)
    stars = [Diagram(k + 1, [(i, k) for i in range(k)]) for k in (6, 7)]
    assert [canonicalize(s).aut_order for s in stars] == [720, 5040]
    lifted = [c.diagram for text in ("z3^6", "z2 z4^5") for c in lift_P(MultiIndex.parse(text)).keys()]
    assert len(lifted) == 6 + 21
    for g in stars + lifted:
        _assert_search_matches_oracle(g, rng)


@PROPERTY
@given(relabeled_diagrams())
def test_canonical_key_is_relabeling_invariant(case):
    canon, relabeled = case
    assert canonicalize(relabeled).key == canon.key


@PROPERTY
@given(relabeled_diagrams())
def test_aut_order_matches_brute_force(case):
    canon, relabeled = case
    assert canonicalize(relabeled).aut_order == _brute_force_aut_order(relabeled)
    assert canon.aut_order == _brute_force_aut_order(canon.diagram)


def test_counting_map_reads_arities():
    assert counting_map(III) == MultiIndex.parse("z3^2")
    assert counting_map(BRIDGE) == MultiIndex.parse("z2 z4^2")
    star = Diagram.parse("n=7; e=1-7,2-7,3-7,4-7,5-7,6-7")
    assert counting_map(star) == MultiIndex.parse("z1^6 z6")
    forest = DiagForest.of(canonicalize(III), canonicalize(YII))
    assert str(counting_map(forest)) == "z2^2 . z3^2"


def test_forest_sym_factor():
    f = DiagForest.of(canonicalize(III), canonicalize(III))
    assert f.sym_factor() == 2 * 12 * 12
    assert DiagForest.empty().sym_factor() == 1


# -- degree -----------------------------------------------------------------------

def test_degree_goldens():
    cases = (
        (III, Fraction(0)),
        (YII, Fraction(1)),
        (IV, Fraction(-1)),
        (BRIDGE, Fraction(1)),
        (TRIANGLE, Fraction(3)),
    )
    for g, want in cases:
        assert degree(g, P) == want
    assert is_divergent(III, P)
    assert is_divergent(IV, P)
    assert not is_divergent(YII, P)


def test_is_divergent_follows_the_degree_sign_on_connected_diagrams():
    for ell in ("-1", "-3/2", "-2", "-1/2", "-4/3", "0", "1/2"):
        p = DegreeParams(Fraction(ell), 3)
        for canon in iter_connected_diagrams(6):
            g = canon.diagram
            assert is_divergent(g, p) == (degree(g, p) <= 0), (ell, g)


# -- extraction coproduct ------------------------------------------------------------

def test_coproduct_of_bridge_has_one_extraction():
    got = coproduct_reduced_F(BRIDGE, P)
    want = LinComb.single((DiagForest.of(canonicalize(III)), canonicalize(YII)), 1)
    assert got == want


def test_triangle_and_triple_edge_are_primitive():
    assert coproduct_reduced_F(TRIANGLE, P) == LinComb.zero()
    assert coproduct_reduced_F(III, P) == LinComb.zero()
    assert coproduct_reduced_F(IV, P) == LinComb.zero()


def test_coproduct_of_two_triple_chain():
    # two triple edges joined by a two-edge cycle: extracting either triple
    # contracts to the bridged diagram, extracting both leaves the cycle
    ziv = Diagram.parse("n=4; e=1-2,1-2,1-2,1-3,2-4,3-4,3-4,3-4")
    got = coproduct_reduced_F(ziv, P)
    c3 = canonicalize(III)
    assert got.coeff((DiagForest.of(c3), canonicalize(BRIDGE))) == 2
    assert got.coeff((DiagForest.of(c3, c3), canonicalize(YII))) == 1
    assert len(got) == 2


def test_pinched_diagram_extraction():
    pinched = Diagram.parse("n=3; e=1-2,1-2,1-2,1-3,1-3")
    got = coproduct_reduced_F(pinched, P)
    want = LinComb.single((DiagForest.of(canonicalize(III)), canonicalize(YII)), 1)
    assert got == want


def test_full_coproduct_adds_primitive_terms():
    full = coproduct_full_F(BRIDGE, P)
    cb = canonicalize(BRIDGE)
    assert full.coeff((DiagForest.empty(), DiagForest.of(cb))) == 1
    assert full.coeff((DiagForest.of(cb), DiagForest.empty())) == 1
    assert full.coeff(
        (DiagForest.of(canonicalize(III)), DiagForest.of(canonicalize(YII)))
    ) == 1
    assert len(full) == 3


def _mask_loop_extractions(g: Diagram, p: DegreeParams) -> list:
    """Brute-force oracle: every edge subset taken whole per parallel class.

    A subset counts when no omitted class joins two vertices of one of its
    components (that edge would become a self-loop) and every component
    with at least two vertices is divergent.  Returns (forest, canonical
    trunk) pairs, one per subset.
    """
    mult = g.multiplicity()
    classes = sorted(mult)
    out = []
    for mask in range(1, (1 << len(classes)) - 1):
        taken = [e for i, e in enumerate(classes) if mask >> i & 1]
        omitted = [e for e in classes if e not in taken]
        sub_edges = [e for e in taken for _ in range(mult[e])]
        comps = [c for c in components(g.vertex_count, sub_edges) if len(c) > 1]
        comp_of = {v: i for i, c in enumerate(comps) for v in c}
        if any(comp_of.get(u, -1) == comp_of.get(v, -2) for u, v in omitted):
            continue
        pieces = []
        for comp in comps:
            local = {v: i for i, v in enumerate(comp)}
            pieces.append(
                Diagram(len(comp), [(local[u], local[v]) for u, v in sub_edges if u in local])
            )
        if not all(is_divergent(piece, p) for piece in pieces):
            continue
        labels = {v: i for i, c in enumerate(comps) for v in c}
        rest = [v for v in range(g.vertex_count) if v not in labels]
        labels.update((v, len(comps) + i) for i, v in enumerate(rest))
        trunk = Diagram(
            len(comps) + len(rest),
            [(labels[u], labels[v]) for e in omitted for u, v in [e] * mult[e]],
        )
        out.append((DiagForest(canonicalize(x) for x in pieces), canonicalize(trunk)))
    return out


ORACLE_PARAMS = (
    DegreeParams(Fraction(-1), 3),
    DegreeParams(Fraction(-3, 2), 3),
    DegreeParams(Fraction(-1), 4),
    DegreeParams(Fraction(-2), 3),
    DegreeParams(Fraction(1, 2), 3),
)


def _assert_extractions_match_oracle(g: Diagram) -> None:
    for p in ORACLE_PARAMS:
        got = Counter(
            (forest, canonicalize(trunk)) for forest, trunk in divergent_extractions(g, p)
        )
        assert got == Counter(_mask_loop_extractions(g, p)), (str(g), p)


def test_block_extractions_match_mask_loop_on_small_diagrams():
    for canon in iter_connected_diagrams(7):
        _assert_extractions_match_oracle(canon.diagram)


def test_block_extractions_match_mask_loop_on_lifts():
    for text in ("z4^4", "z4^5", "z2^3 z4^3"):
        lifted = lift_P(MultiIndex.parse(text))
        assert lifted
        for canon in lifted.keys():
            _assert_extractions_match_oracle(canon.diagram)


def _coproduct_matches_longhand(g: Diagram) -> bool:
    """coproduct_reduced_F(g, p), read from the class memo, equals the
    combination of g's own labeled extractions at every oracle setting."""
    return all(
        coproduct_reduced_F(g, p)
        == LinComb(((forest, canonicalize(trunk)), 1) for forest, trunk in divergent_extractions(g, p))
        for p in ORACLE_PARAMS
    )


@PROPERTY
@given(relabeled_diagrams())
def test_coproduct_memo_matches_longhand_on_relabelings(case):
    _, relabeled = case
    assert _coproduct_matches_longhand(relabeled)


def _memo_dropping(fn, index: int):
    """A faulty memo of fn whose key omits the argument at index."""
    table = {}

    def memo(*args):
        key = args[:index] + args[index + 1 :]
        if key not in table:
            table[key] = fn(*args)
        return table[key]

    return memo


# -- insertion ------------------------------------------------------------------------

def _cut_graft_insert(bodies: list[Diagram], g2: Diagram, rule) -> LinComb:
    """Oracle: cut distinct vertices v_1, ..., v_n of g2, in every order, and
    graft bodies[i] at v_i.

    Each edge end at v_i becomes a leg of bodies[i]; every assignment of
    legs to vertices of their bodies (repetition allowed) is one merged
    diagram, kept when its arities all lie in the rule.
    """
    acc = []
    ends = [w for edge in g2.edges for w in edge]
    for sites in permutations(range(g2.vertex_count), len(bodies)):
        survivors = [w for w in range(g2.vertex_count) if w not in sites]
        label = {w: i for i, w in enumerate(survivors)}
        first, size = {}, {}
        shift = len(survivors)
        body_edges = []
        for v, body in zip(sites, bodies):
            first[v], size[v] = shift, body.vertex_count
            body_edges += [(shift + a, shift + b) for a, b in body.edges]
            shift += body.vertex_count
        legs = [i for i, w in enumerate(ends) if w in first]
        for targets in product(*(range(size[ends[i]]) for i in legs)):
            placed = [label.get(w) for w in ends]
            for i, t in zip(legs, targets):
                placed[i] = first[ends[i]] + t
            merged = Diagram(shift, body_edges + list(zip(placed[::2], placed[1::2])))
            if rule is None or all(k in rule.arities for k in merged.arities()):
                acc.append((canonicalize(merged), 1))
    return LinComb(acc)


def test_insert_matches_cut_graft_oracle():
    small = [canon.diagram for canon in iter_connected_diagrams(4)]
    cases = 0
    for g1 in small:
        for g2 in small:
            if g1.edge_count() + g2.edge_count() > 7:
                continue
            for rule in (None, RULE):
                assert insert_F(g1, g2, rule) == _cut_graft_insert([g1], g2, rule), (g1, g2)
                cases += 1
    assert cases == 512


def test_insert_golden():
    got = insert_F(III, YII, RULE)
    assert got == LinComb.single(canonicalize(BRIDGE), 4)
    unruled = insert_F(III, YII, None)
    pinched = canonicalize(Diagram.parse("n=3; e=1-2,1-2,1-2,1-3,1-3"))
    assert unruled.coeff(canonicalize(BRIDGE)) == 4
    assert unruled.coeff(pinched) == 4
    assert len(unruled) == 2


def test_simultaneous_insert_single_component_reduces():
    f = DiagForest.of(canonicalize(III))
    assert simultaneous_insert_F(f, YII, None) == _cut_graft_insert([III], YII, None)
    assert simultaneous_insert_F(f, YII, RULE) == _cut_graft_insert([III], YII, RULE)


def test_simultaneous_insert_matches_cut_graft_oracle():
    pieces = list(iter_connected_diagrams(2))
    host_classes = list(iter_connected_diagrams(3))
    # both vertices of the double edge are cut, so both ends of each edge move
    assert canonicalize(YII) in host_classes
    hosts = [canon.diagram for canon in host_classes]
    cases = 0
    for parts in combinations_with_replacement(pieces, 2):
        f = DiagForest(parts)
        bodies = [part.diagram for part in f.parts()]
        for g in hosts:
            for rule in (None, RULE):
                assert simultaneous_insert_F(f, g, rule) == _cut_graft_insert(bodies, g, rule), (f, g)
                cases += 1
    assert cases == 96


PIECES_2 = sorted(iter_connected_diagrams(2))
HOSTS_3 = sorted(iter_connected_diagrams(3))


def _insert_matches_cut_graft(f: DiagForest, g: Diagram) -> bool:
    """simultaneous_insert_F(f, g), read from the host-class memo, equals
    the cut-graft oracle on g's own labeling, with and without the rule."""
    bodies = [part.diagram for part in f.parts()]
    return all(
        simultaneous_insert_F(f, g, rule) == _cut_graft_insert(bodies, g, rule)
        for rule in (None, RULE)
    )


@PROPERTY
@given(st.lists(st.sampled_from(PIECES_2), min_size=1, max_size=2), relabeled_diagrams(HOSTS_3))
def test_simultaneous_insert_memo_matches_cut_graft_on_relabelings(parts, case):
    _, relabeled = case
    assert _insert_matches_cut_graft(DiagForest(parts), relabeled)


def test_relabeling_oracles_fail_on_memos_that_drop_a_key(cold_memos, monkeypatch):
    """A memo keyed without the params, or without the rule, serves the
    first setting's value at every other one; both oracles see it."""
    classes = [canon.diagram for canon in DIAGRAMS_5]
    forests = [DiagForest(parts) for k in (1, 2) for parts in combinations_with_replacement(PIECES_2, k)]
    hosts = [canon.diagram for canon in HOSTS_3]
    assert all(_coproduct_matches_longhand(g) for g in classes)
    assert all(_insert_matches_cut_graft(f, g) for f in forests for g in hosts)
    monkeypatch.setattr(fy, "_coproduct_reduced_F", _memo_dropping(fy._coproduct_reduced_F, 1))
    monkeypatch.setattr(fy, "_simultaneous_insert_F", _memo_dropping(fy._simultaneous_insert_F, 2))
    assert not all(_coproduct_matches_longhand(g) for g in classes)
    assert not all(_insert_matches_cut_graft(f, g) for f in forests for g in hosts)


def test_simultaneous_insert_needs_enough_cut_sites():
    f = DiagForest.of(canonicalize(III), canonicalize(III), canonicalize(III))
    assert simultaneous_insert_F(f, YII, None) == LinComb.zero()


# -- enumeration -------------------------------------------------------------------------

def _brute_connected_diagrams(max_edges: int) -> set[CanonDiagram]:
    """Independent enumeration: all edge multisets over fixed vertex sets."""
    found: set[CanonDiagram] = set()
    for n in range(2, max_edges + 2):
        pairs = list(combinations(range(n), 2))

        def fill(idx: int, remaining: int, chosen: list) -> None:
            if idx == len(pairs):
                edges = [p for p, m in chosen for _ in range(m)]
                if len(edges) == 0:
                    return
                covered = set()
                for u, v in edges:
                    covered.add(u)
                    covered.add(v)
                if len(covered) == n and len(components(n, edges)) == 1:
                    found.add(canonicalize(Diagram(n, edges)))
                return
            for m in range(remaining + 1):
                fill(idx + 1, remaining - m, chosen + [(pairs[idx], m)] if m else chosen)

        fill(0, max_edges, [])
    return found


def test_enumeration_matches_brute_force():
    for max_edges in (1, 2, 3, 5):
        generated = set(iter_connected_diagrams(max_edges))
        brute = _brute_connected_diagrams(max_edges)
        assert generated == brute, max_edges


def test_enumeration_counts_are_stable():
    assert len(list(iter_connected_diagrams(0))) == 0
    assert len(list(iter_connected_diagrams(1))) == 1
    assert len(list(iter_connected_diagrams(2))) == 3
    assert len(list(iter_connected_diagrams(6))) == 156
