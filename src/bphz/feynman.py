"""Connected loopless multigraphs: canonicalization, extraction, insertion.

Diagrams are connected multigraphs without self-loops in which every
vertex carries at least one edge.  The module provides a deterministic
canonical labeling with automorphism counting, the degree map, divergent
subgraph extraction with contraction (the diagram-side coproduct), and
the simultaneous insertion product adjoint to it; single insertion is its
one-part case.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import permutations, product
from math import factorial
from typing import Iterable, Iterator, Sequence, Tuple

from .lincomb import Forest, LinComb, Scalar
from .multiindex import DegreeParams, ExpressionError, MIForest, MultiIndex, Rule, _skip_ws
from .pairings import components

Edge = Tuple[int, int]

_INT = re.compile(r"\d+")


def _normalize_edges(edges: Iterable[Sequence[int]]) -> tuple[Edge, ...]:
    out: list[Edge] = []
    for edge in edges:
        u, v = edge
        if u == v:
            raise ValueError("self-loops are forbidden")
        out.append((u, v) if u < v else (v, u))
    return tuple(sorted(out))


class Diagram:
    """Connected loopless multigraph; vertices 0..n-1, each incident to an edge."""

    __slots__ = ("_n", "_edges")

    def __init__(self, vertex_count: int, edges: Iterable[Sequence[int]]):
        edges = _normalize_edges(edges)
        if vertex_count < 1:
            raise ValueError("need at least one vertex")
        if not edges:
            raise ValueError("need at least one edge")
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError("edge endpoint out of range")
        covered = {u for e in edges for u in e}
        if len(covered) != vertex_count:
            raise ValueError("every vertex must be incident to an edge")
        if len(components(vertex_count, edges)) != 1:
            raise ValueError("diagram must be connected")
        self._n = vertex_count
        self._edges = edges

    @classmethod
    def parse(cls, text: str) -> "Diagram":
        """Parse 'n=3; e=1-2,1-3,2-3'-style text; endpoints count from 1.

        Syntax errors are ExpressionErrors with the offending byte offset.
        """
        pos = _skip_ws(text, 0)
        if not text.startswith("n=", pos):
            raise ExpressionError(pos, "expected 'n='")
        count = _INT.match(text, pos + 2)
        if not count:
            raise ExpressionError(pos + 2, "expected a vertex count")
        if not text.startswith(";", count.end()):
            raise ExpressionError(count.end(), "expected ';' after the vertex count")
        pos = _skip_ws(text, count.end() + 1)
        if not text.startswith("e=", pos):
            raise ExpressionError(pos, "expected 'e='")
        n = int(count.group())
        edges = []
        pos += 2
        while True:
            pos = _skip_ws(text, pos)
            first = _INT.match(text, pos)
            if not first:
                raise ExpressionError(pos, "expected an edge endpoint")
            if not text.startswith("-", first.end()):
                raise ExpressionError(first.end(), "expected '-' between endpoints")
            second = _INT.match(text, first.end() + 1)
            if not second:
                raise ExpressionError(first.end() + 1, "expected an edge endpoint")
            u, v = int(first.group()), int(second.group())
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError("edge endpoint out of range in {!r}".format(text[pos : second.end()]))
            edges.append((u - 1, v - 1))
            pos = _skip_ws(text, second.end())
            if pos == len(text):
                return cls(n, edges)
            if text[pos] != ",":
                raise ExpressionError(pos, "expected ',' between edges")
            pos += 1

    def to_json(self) -> dict:
        return {"n": self._n, "e": [[u + 1, v + 1] for u, v in self._edges]}

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    def edge_count(self) -> int:
        return len(self._edges)

    def arities(self) -> tuple[int, ...]:
        degs = [0] * self._n
        for u, v in self._edges:
            degs[u] += 1
            degs[v] += 1
        return tuple(degs)

    def multiplicity(self) -> dict[Edge, int]:
        mult: dict[Edge, int] = {}
        for e in self._edges:
            mult[e] = mult.get(e, 0) + 1
        return mult

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Diagram):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __str__(self) -> str:
        pairs = ",".join("{}-{}".format(u + 1, v + 1) for u, v in self._edges)
        return "n={}; e={}".format(self._n, pairs)

    def __repr__(self) -> str:
        return "Diagram({})".format(self)


def _refine_colors(
    n: int, mult: dict[Edge, int], colors: list[int]
) -> list[int]:
    """Iteratively split color classes by colored-neighborhood signatures."""
    while True:
        signatures = []
        for v in range(n):
            neigh: dict[tuple[int, int], int] = {}
            for (a, b), m in mult.items():
                if a == v:
                    key = (colors[b], m)
                elif b == v:
                    key = (colors[a], m)
                else:
                    continue
                neigh[key] = neigh.get(key, 0) + 1
            signatures.append((colors[v], tuple(sorted(neigh.items()))))
        order = sorted(set(signatures))
        new_colors = [order.index(sig) for sig in signatures]
        if new_colors == colors:
            return colors
        colors = new_colors


def _canonical_search(
    n: int, edges: tuple[Edge, ...], decorations: tuple[int, ...] | None = None
) -> tuple[tuple[Edge, ...], tuple[int, ...], int, tuple[int, ...] | None]:
    """Canonical relabeling by exhaustive search over color-respecting maps.

    Returns (canonical edge tuple, the permutation old->new achieving it,
    number of vertex automorphisms, relabeled decorations).  Decorations,
    when given, are per-vertex integers that must be preserved (used for
    pairing outcomes carrying free legs).
    """
    mult: dict[Edge, int] = {}
    for e in edges:
        mult[e] = mult.get(e, 0) + 1
    degs = [0] * n
    for (u, v), m in mult.items():
        degs[u] += m
        degs[v] += m
    base = [
        (degs[v], decorations[v] if decorations is not None else 0) for v in range(n)
    ]
    order = sorted(set(base))
    colors = _refine_colors(n, mult, [order.index(b) for b in base])

    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(colors[v], []).append(v)
    blocks = [classes[c] for c in sorted(classes)]
    offsets = []
    pos = 0
    for block in blocks:
        offsets.append(pos)
        pos += len(block)

    best: tuple | None = None
    best_perm: tuple[int, ...] | None = None
    aut = 0
    for arrangement in product(*(permutations(block) for block in blocks)):
        perm = [0] * n
        for block_old, offset in zip(arrangement, offsets):
            for i, v in enumerate(block_old):
                perm[v] = offset + i
        relabeled = tuple(
            sorted(
                (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
                for u, v in edges
            )
        )
        deco = (
            tuple(
                decorations[v]
                for v in sorted(range(n), key=lambda w: perm[w])
            )
            if decorations is not None
            else None
        )
        candidate = (relabeled, deco)
        # Arrangements achieving the canonical form are a coset of the
        # automorphism group, so counting them counts automorphisms
        # independently of the input labeling.
        if best is None or candidate < best:
            best = candidate
            best_perm = tuple(perm)
            aut = 1
        elif candidate == best:
            aut += 1
    assert best is not None and best_perm is not None
    return best[0], best_perm, aut, best[1]


class CanonDiagram:
    """Canonical form of a diagram: key, representative, automorphism order.

    aut_order counts (vertex permutation, edge permutation) pairs fixing
    the diagram, i.e. the vertex automorphisms times the product of the
    parallel-edge factorials; it equals the symmetry factor S_F.
    """

    __slots__ = ("_key", "_diagram", "_aut_order")
    _interned: dict[str, "CanonDiagram"] = {}

    def __new__(cls, diagram: Diagram):
        canon_edges, _, vertex_aut, _ = _canonical_search(
            diagram.vertex_count, diagram.edges
        )
        representative = Diagram(diagram.vertex_count, canon_edges)
        key = str(representative)
        hit = cls._interned.get(key)
        if hit is not None:
            return hit
        self = object.__new__(cls)
        edge_perms = 1
        for m in representative.multiplicity().values():
            edge_perms *= factorial(m)
        self._key = key
        self._diagram = representative
        self._aut_order = vertex_aut * edge_perms
        cls._interned[key] = self
        return self

    @property
    def key(self) -> str:
        return self._key

    @property
    def diagram(self) -> Diagram:
        return self._diagram

    @property
    def aut_order(self) -> int:
        return self._aut_order

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CanonDiagram):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __lt__(self, other: "CanonDiagram") -> bool:
        return self._key < other._key

    def __str__(self) -> str:
        return self._key

    def __repr__(self) -> str:
        return "CanonDiagram({})".format(self._key)


_canon_cache: dict[tuple[int, tuple[Edge, ...]], CanonDiagram] = {}


def canonicalize(g: Diagram) -> CanonDiagram:
    key = (g.vertex_count, g.edges)
    hit = _canon_cache.get(key)
    if hit is None:
        hit = CanonDiagram(g)
        _canon_cache[key] = hit
    return hit


class DiagForest(Forest):
    """Forest of canonical diagrams; parts are ordered by canonical key."""

    __slots__ = ()

    def sym_factor(self) -> int:
        out = 1
        for part, count in self.counts():
            out *= factorial(count) * part.aut_order**count
        return out


def counting_map(g: Diagram | DiagForest) -> MultiIndex | MIForest:
    """Vertex-arity census: diagram -> monomial, forest -> monomial forest."""
    if isinstance(g, DiagForest):
        return MIForest(counting_map(part.diagram) for part in g.parts())
    acc: dict[int, int] = {}
    for k in g.arities():
        acc[k] = acc.get(k, 0) + 1
    return MultiIndex(acc)


def degree(g: Diagram, p: DegreeParams) -> Scalar:
    """deg Gamma = ell * |edges| + d * (|vertices| - 1)."""
    return p.ell * g.edge_count() + p.d * (g.vertex_count - 1)


def is_divergent(g: Diagram, p: DegreeParams) -> bool:
    return degree(g, p) <= 0


def divergent_extractions(
    g: Diagram, p: DegreeParams
) -> list[tuple[DiagForest, Diagram]]:
    """All proper divergent subgraph extractions with their contractions.

    An extraction keeps an edge subset whose components each have
    non-positive degree, and contracts every component to one vertex.  An
    omitted edge with both ends in one component would become a self-loop,
    so each component keeps every edge between its vertices: it is the
    subgraph induced on its vertex set.  Extractions are therefore exactly
    the families of pairwise disjoint vertex blocks, each of at least two
    vertices inducing a connected subgraph of non-positive degree, other
    than the single block of all vertices (which would extract the whole
    diagram).  A family maps to the edges inside its blocks, whose
    components are the blocks again; an allowed edge subset maps back to
    the vertex sets of its components, so the two are in bijection.

    The blocks are found once per call over all vertex subsets, each
    canonicalized once, and every family of disjoint blocks gives one list
    entry; callers accumulate isomorphism multiplicities.
    """
    n = g.vertex_count
    full = (1 << n) - 1
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    adjacent = [0] * n
    for (u, v), m in g.multiplicity().items():
        rows[u].append((1 << v, m))
        rows[v].append((1 << u, m))
        adjacent[u] |= 1 << v
        adjacent[v] |= 1 << u
    # deg = ell*|E| + d*(|V|-1) <= 0  iff  ell*|E| <= -d*(|V|-1)
    ell_edges = [p.ell * k for k in range(g.edge_count() + 1)]
    bound = [-p.d * (k - 1) for k in range(n + 1)]
    inside = [0] * (full + 1)
    blocks: list[tuple[int, CanonDiagram]] = []
    for mask in range(1, full):
        low = mask & -mask
        rest = mask ^ low
        count = inside[rest]
        for bit, m in rows[low.bit_length() - 1]:
            if rest & bit:
                count += m
        inside[mask] = count
        size = mask.bit_count()
        if size < 2 or ell_edges[count] > bound[size]:
            continue
        reached, frontier = low, low
        while frontier:
            grown = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                grown |= adjacent[bit.bit_length() - 1]
            frontier = grown & mask & ~reached
            reached |= frontier
        if reached != mask:
            continue
        local = {v: i for i, v in enumerate(v for v in range(n) if mask >> v & 1)}
        piece = Diagram(
            size,
            [(local[u], local[v]) for u, v in g.edges if u in local and v in local],
        )
        blocks.append((mask, canonicalize(piece)))

    out: list[tuple[DiagForest, Diagram]] = []
    chosen: list[tuple[int, CanonDiagram]] = []

    def emit() -> None:
        # Each block becomes one trunk vertex, then the vertices outside
        # every block follow; an edge survives unless both ends lie in one
        # block.
        remap = [-1] * n
        for label, (mask, _) in enumerate(chosen):
            for v in range(n):
                if mask >> v & 1:
                    remap[v] = label
        label = len(chosen)
        for v in range(n):
            if remap[v] < 0:
                remap[v] = label
                label += 1
        trunk_edges = [(remap[u], remap[v]) for u, v in g.edges if remap[u] != remap[v]]
        out.append((DiagForest(piece for _, piece in chosen), Diagram(label, trunk_edges)))

    def extend(start: int, used: int) -> None:
        for i in range(start, len(blocks)):
            if blocks[i][0] & used:
                continue
            chosen.append(blocks[i])
            emit()
            extend(i + 1, used | blocks[i][0])
            chosen.pop()

    extend(0, 0)
    return out


def coproduct_reduced_F(
    g: Diagram, p: DegreeParams
) -> LinComb[Tuple[DiagForest, CanonDiagram]]:
    """Reduced diagram coproduct: extraction pairs with iso multiplicities."""
    acc: list[tuple[Tuple[DiagForest, CanonDiagram], Scalar]] = []
    for forest, trunk in divergent_extractions(g, p):
        acc.append(((forest, canonicalize(trunk)), Fraction(1)))
    return LinComb(acc)


def coproduct_full_F(
    g: Diagram, p: DegreeParams
) -> LinComb[Tuple[DiagForest, DiagForest]]:
    """Full diagram coproduct with both legs as forests.

    Forest-valued right legs make the primitive term (g, empty)
    representable; reduced trunks appear as singleton forests.
    """
    me = canonicalize(g)
    acc: list[tuple[Tuple[DiagForest, DiagForest], Scalar]] = [
        ((DiagForest.empty(), DiagForest.of(me)), Fraction(1)),
        ((DiagForest.of(me), DiagForest.empty()), Fraction(1)),
    ]
    for (forest, trunk), coef in coproduct_reduced_F(g, p).items():
        acc.append(((forest, DiagForest.of(trunk)), coef))
    return LinComb(acc)


def _admits(g: Diagram, rule: Rule | None) -> bool:
    return rule is None or all(k in rule.arities for k in g.arities())


def insert_F(
    g1: Diagram, g2: Diagram, rule: Rule | None = None
) -> LinComb[CanonDiagram]:
    """Insertion of g1 into g2: the one-part case of `simultaneous_insert_F`.

    Each vertex of g2 is cut in turn and every edge it had to a survivor
    is reattached at some vertex of g1, in all possible ways.
    """
    return simultaneous_insert_F(DiagForest.of(canonicalize(g1)), g2, rule)


def simultaneous_insert_F(
    f: DiagForest, g: Diagram, rule: Rule | None = None
) -> LinComb[CanonDiagram]:
    """Insert every forest component at a distinct cut vertex of g.

    Sums over ordered injective assignments of components to vertices and
    over all reattachment choices of the cut edges: an edge from a cut
    vertex to a survivor picks a vertex in that component; an edge between
    two cut vertices picks one vertex in each.
    """
    if f.is_empty():
        raise ValueError("simultaneous insertion needs a nonempty forest")
    n = len(f)
    if n > g.vertex_count:
        return LinComb.zero()
    bodies = [part.diagram for part in f.parts()]
    acc: list[tuple[CanonDiagram, Scalar]] = []
    for cut_sites in permutations(range(g.vertex_count), n):
        site_of = {v: i for i, v in enumerate(cut_sites)}
        survivors = [v for v in range(g.vertex_count) if v not in site_of]
        survivor_label = {v: i for i, v in enumerate(survivors)}
        offsets = []
        pos = len(survivors)
        for body in bodies:
            offsets.append(pos)
            pos += body.vertex_count
        base_edges: list[Edge] = []
        for i, body in enumerate(bodies):
            base_edges.extend(
                (offsets[i] + u, offsets[i] + v) for u, v in body.edges
            )
        choice_sets: list[list[Edge]] = []
        for a, b in g.edges:
            if a in site_of and b in site_of:
                i, j = site_of[a], site_of[b]
                choice_sets.append(
                    [
                        (offsets[i] + x, offsets[j] + y)
                        for x in range(bodies[i].vertex_count)
                        for y in range(bodies[j].vertex_count)
                    ]
                )
            elif a in site_of:
                i = site_of[a]
                choice_sets.append(
                    [
                        (survivor_label[b], offsets[i] + x)
                        for x in range(bodies[i].vertex_count)
                    ]
                )
            elif b in site_of:
                i = site_of[b]
                choice_sets.append(
                    [
                        (survivor_label[a], offsets[i] + x)
                        for x in range(bodies[i].vertex_count)
                    ]
                )
            else:
                choice_sets.append([(survivor_label[a], survivor_label[b])])
        for picks in product(*choice_sets):
            merged = Diagram(pos, base_edges + list(picks))
            if not _admits(merged, rule):
                continue
            acc.append((canonicalize(merged), Fraction(1)))
    return LinComb(acc)


def iter_connected_diagrams(max_edges: int) -> Iterator[CanonDiagram]:
    """All connected diagrams with at most max_edges edges, up to isomorphism.

    Grows diagrams edge by edge.  Every connected multigraph has an edge
    whose removal (dropping an isolated endpoint) leaves a connected
    diagram: a parallel copy, a cycle edge, or a leaf edge (a graph with
    neither is a tree, and trees have leaves).  Reversing that step means
    adding an edge between existing vertices or an edge to one fresh
    vertex reaches everything.
    """
    if max_edges < 1:
        return
    seen: set[CanonDiagram] = set()
    frontier: list[CanonDiagram] = []
    single = canonicalize(Diagram(2, [(0, 1)]))
    seen.add(single)
    frontier.append(single)
    yield single
    for _ in range(1, max_edges):
        next_frontier: list[CanonDiagram] = []
        for canon in frontier:
            g = canon.diagram
            n = g.vertex_count
            extensions: list[Diagram] = []
            for u in range(n):
                for v in range(u + 1, n):
                    extensions.append(Diagram(n, list(g.edges) + [(u, v)]))
            for u in range(n):
                extensions.append(Diagram(n + 1, list(g.edges) + [(u, n)]))
            for ext in extensions:
                c = canonicalize(ext)
                if c not in seen:
                    seen.add(c)
                    next_frontier.append(c)
                    yield c
        frontier = next_frontier
