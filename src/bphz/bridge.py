"""The correspondence between multi-indices and diagrams.

The counting map sends a diagram to the monomial of its vertex arities;
the lift sends a monomial to the weighted sum of connected diagrams
obtained by pairing its half-edges.  The lift generates the isomorphism
classes of those diagrams directly and weights each by S_M / |Aut Gamma|,
the orbit-stabilizer count of the labeled pairings that form it.  The
labeled pairing census (grouped by multiplicity matrix; the tests check it
against labeled brute force) returns a ``collections.Counter`` of labeled
pairings per bucket, memoized per arity tuple.  The unrestricted census
feeds the moments and the orbit-stabilizer check (its one-part buckets);
the connected one is the lift's oracle and serves `bphz pairings`.  The
orbit-stabilizer / adjointness / commuting-square checks tie the two
sides together.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import comb, prod
from typing import Iterator, Sequence, Tuple

from . import pairings
from .feynman import (
    CanonDiagram,
    DiagForest,
    Diagram,
    _canonical_search,
    canonicalize,
    coproduct_reduced_F,
    counting_map,
    insert_F,
    simultaneous_insert_F,
)
from .lincomb import LinComb, apply_linear, multiplicative, product
from .multiindex import (
    DegreeParams,
    MIForest,
    MultiIndex,
    Rule,
    coproduct_reduced,
    inner_product,
    insert,
    sym_factor,
    simultaneous_insert,
)


def _capped_vectors(caps: Sequence[int], total: int) -> Iterator[tuple[int, ...]]:
    """Vectors l with 0 <= l_i <= caps[i] and sum(l) == total, in lexicographic order.

    The census takes them as free legs per vertex; the class generation as
    the split of one vertex's open half-edges among the other open vertices.
    """
    n = len(caps)
    room = [0] * (n + 1)  # room[i] = sum(caps[i:])
    for i in range(n - 1, -1, -1):
        room[i] = room[i + 1] + caps[i]
    out = [0] * n

    def recurse(i: int, left: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            if left == 0:
                yield tuple(out)
            return
        for take in range(max(0, left - room[i + 1]), min(left, caps[i]) + 1):
            out[i] = take
            yield from recurse(i + 1, left - take)

    yield from recurse(0, total)


def _census_key(
    arities: list[int],
    edges: Tuple[Tuple[int, int], ...],
    legs: tuple[int, ...],
    connected_only: bool,
):
    """Bucket of one pairing: canonical diagram, diagram forest, or for a
    pairing with free legs the canonical text of its body decorated with
    per-vertex leg counts (legs are outside the diagram space)."""
    n = len(arities)
    if any(legs):
        canon_edges, _, deco = _canonical_search(n, edges, legs)
        return "n={}; e={}; l={}".format(
            n,
            ",".join("{}-{}".format(u + 1, v + 1) for u, v in canon_edges),
            ",".join(str(c) for c in deco),
        )
    if connected_only and all(a >= 1 for a in arities):
        # _census has checked connectivity; iter_multiplicity_matrices pairs
        # no half-edge with its own vertex.
        return canonicalize(Diagram._unchecked(n, edges))
    parts = []
    for comp in pairings.components(n, edges):
        local = {v: i for i, v in enumerate(comp)}
        comp_edges = [(local[u], local[v]) for u, v in edges if u in local]
        if not comp_edges:
            continue
        # a component with an edge of a loopless pairing is a diagram
        parts.append(canonicalize(Diagram._unchecked(len(comp), comp_edges)))
    return DiagForest(parts)


@cache
def _census(arities: tuple[int, ...], connected_only: bool, free_legs: int) -> Counter:
    """Labeled pairing counts by bucket: the loop over (l, M) pairs.

    Memoized per (arities, connected_only, free_legs); callers get a copy
    from `enumerate_pairings`, so the cached ``Counter`` is never mutated.
    """
    n = len(arities)
    counts = Counter()
    for legs in _capped_vectors(arities, free_legs):
        subsets = prod(map(comb, arities, legs))
        residual = [k - l for k, l in zip(arities, legs)]
        for edges, count in pairings.iter_multiplicity_matrices(residual):
            if connected_only and len(pairings.components(n, edges)) != 1:
                continue
            key = _census_key(arities, edges, legs, connected_only)
            counts[key] += subsets * count
    return counts


def enumerate_pairings(
    m: MultiIndex, connected_only: bool, free_legs: int = 0
) -> Counter:
    """Half-edge pairing census, grouped by multiplicity matrix.

    Counts labeled pairings: vertices sorted by arity, half-edges numbered
    per vertex, every possible free-leg subset designated when free legs
    are requested, and the rest paired into loopless edges.  The outcomes
    are bucketed: connected vacuum pairings by canonical diagram,
    unrestricted vacuum pairings by diagram forest (isolated arity-0
    vertices are dropped: they contribute an empty factor), and legged
    pairings by a leg-decorated canonical key.  The result is a
    ``Counter`` from bucket to labeled count: ``total()`` sums it, and a
    bucket that no pairing reaches reads zero.  Each call returns a fresh
    copy of the memoized census.

    A bucket depends only on the leg vector l (free legs per vertex) and
    the edge multiplicity matrix M of the paired half-edges, so each
    (l, M) is visited once and adds its labeled count
    prod_v C(k_v, l_v) * prod_v (k_v - l_v)! / prod_{u<v} m_uv!.
    Tests check every count against the one-matching-at-a-time census.
    """
    arities = m.arity_list()
    total = sum(arities)
    if free_legs < 0 or free_legs > total or (total - free_legs) % 2:
        return Counter()
    return Counter(_census(arities, connected_only, free_legs))


@cache
def _connected_classes(arities: tuple[int, ...]) -> tuple[CanonDiagram, ...]:
    """The classes of connected loopless multigraphs with these vertex degrees.

    Orderly generation over partial graphs (Read 1978; McKay, Isomorph-free
    exhaustive generation, 1998).  A state is the canonical form of a
    partial multigraph whose vertices are decorated by the half-edges they
    still have open.  A step takes the first open vertex in canonical labels
    and gives all of its open half-edges to the other open vertices, in
    every split their open counts allow.  Every completion of a state fills
    that vertex, and canonical relabeling carries completions to
    completions, so every class is reached from the edgeless start.

    A child is dropped when a component with no open half-edge is not the
    whole graph, or when the open half-edges cannot pair without loops
    (twice the largest count exceeds the sum).  One step can close several
    vertices, so a graph may finish at different depths: states are
    deduplicated in one set across all depths, and each finished state is
    one class, filed from its last search (all-zero decorations make it
    the undecorated one).  Memoized per arity tuple; the classes come as a
    tuple, so the cached value cannot be mutated.
    """
    n = len(arities)
    start, _, residual = _canonical_search(n, (), arities)
    seen = {(start, residual)}
    stack = [(start, residual)]
    classes: list[CanonDiagram] = []
    while stack:
        edges, residual = stack.pop()
        v = next(u for u in range(n) if residual[u])
        targets = [u for u in range(n) if u != v and residual[u]]
        for split in _capped_vectors([residual[u] for u in targets], residual[v]):
            open_ends = list(residual)
            open_ends[v] = 0
            grown = list(edges)
            for u, take in zip(targets, split):
                open_ends[u] -= take
                grown.extend([(v, u) if v < u else (u, v)] * take)
            if 2 * max(open_ends) > sum(open_ends):
                continue
            parts = pairings.components(n, grown)
            if len(parts) > 1 and any(not any(open_ends[w] for w in part) for part in parts):
                continue
            canon_edges, vertex_aut, deco = _canonical_search(n, tuple(grown), tuple(open_ends))
            state = (canon_edges, deco)
            if state in seen:
                continue
            seen.add(state)
            if any(deco):
                stack.append(state)
            else:
                classes.append(CanonDiagram._of_search(n, canon_edges, vertex_aut))
    return tuple(classes)


def lift_P(m: MultiIndex) -> LinComb[CanonDiagram]:
    """Lift to diagrams: sum of N(Gamma) * Gamma over connected pairings.

    N(Gamma) counts the labeled loopless pairings of the half-edges of m
    that form Gamma.  They are one orbit of the group that permutes
    vertices of equal arity and renumbers the half-edges at each vertex,
    of order S_M(m), and the stabilizer of one of them has order
    |Aut Gamma|, so N(Gamma) = S_M(m) / |Aut Gamma|.
    The lift therefore only needs the classes, which `_connected_classes`
    generates once per arity tuple; each call builds a fresh combination
    from them.  The connected census of `enumerate_pairings` is the tests'
    oracle for it.  Arity-0 vertices can never join a connected diagram,
    so any monomial containing them lifts to zero.
    """
    arities = m.arity_list()
    if not arities or 0 in arities:
        return LinComb.zero()
    s_m = sym_factor(m)
    return LinComb((canon, s_m // canon.aut_order) for canon in _connected_classes(arities))


def lift_P_forest(f: MIForest) -> LinComb[DiagForest]:
    """Componentwise lift: the product of the component lifts as forests."""
    return multiplicative(lift_P, f.parts(), LinComb.single(DiagForest.empty()), DiagForest.add)


def orbit_stabilizer_check(g: Diagram) -> bool:
    """S_M(counting_map(g)) == N(g) * S_F(g), with N(g) the one-part bucket
    of the unrestricted pairing census, which the moments read too."""
    m = counting_map(g)
    canon = canonicalize(g)
    n_count = enumerate_pairings(m, connected_only=False)[DiagForest.of(canon)]
    return sym_factor(m) == n_count * canon.aut_order


def adjoint_phi_P_check(g: Diagram, m: MultiIndex) -> bool:
    """<counting_map(g), m> == <g, lift_P(m)> under the two inner products."""
    lhs = inner_product(counting_map(g), m)
    canon = canonicalize(g)
    rhs = lift_P(m).coeff(canon) * canon.aut_order
    return lhs == rhs


def commuting_square_check(
    m: MultiIndex, p: DegreeParams, rule: Rule | None = None
) -> bool:
    """Lift of the monomial coproduct equals the diagram coproduct of the lift.

    Both sides land in combinations over (diagram forest, canonical trunk)
    pairs; the rule, when given, projects trunks on both sides (monomial
    support on the left, trunk vertex arities on the right).
    """
    lhs = apply_linear(
        lambda ft: product(lift_P_forest(ft[0]), lift_P(ft[1])), coproduct_reduced(m, p, rule)
    )
    rhs = apply_linear(
        lambda canon: LinComb(
            ((forest, trunk), coef)
            for (forest, trunk), coef in coproduct_reduced_F(canon.diagram, p).items()
            if rule is None or rule.admits(counting_map(trunk.diagram))
        ),
        lift_P(m),
    )
    return lhs == rhs


def _count(canon: CanonDiagram) -> LinComb[MultiIndex]:
    return LinComb.single(counting_map(canon.diagram))


def morphism_insert_check(g1: Diagram, g2: Diagram, rule: Rule | None = None) -> bool:
    """counting_map is a morphism for single insertion."""
    lhs = apply_linear(_count, insert_F(g1, g2, rule))
    return lhs == insert(counting_map(g1), counting_map(g2), rule)


def morphism_star_check(f: DiagForest, g: Diagram, rule: Rule | None = None) -> bool:
    """counting_map is a morphism for simultaneous insertion."""
    lhs = apply_linear(_count, simultaneous_insert_F(f, g, rule))
    return lhs == simultaneous_insert(counting_map(f), counting_map(g), rule)
