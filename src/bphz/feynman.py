"""Connected loopless multigraphs: canonicalization, extraction, insertion.

Diagrams are connected multigraphs without self-loops in which every
vertex carries at least one edge.  The module provides a deterministic
canonical labeling with automorphism counting, the degree map, divergent
subgraph extraction with contraction (the diagram-side coproduct), and
the simultaneous insertion product adjoint to it; single insertion is its
one-part case.

The canonical form is the least sorted edge tuple over relabelings that
respect refined color classes.  Small classes are searched by trying
every arrangement; larger ones by branch and bound over labels in order,
with automorphism pruning (McKay and Piperno, Practical graph isomorphism
II, 2014), which counts the automorphisms exactly along the way.

`canonicalize` keeps the one table of classes, `_canon_cache`: every
diagram seen so far and every class representative map to the class's
single `CanonDiagram`, so a representative is never searched again.
``CanonDiagram(g)`` returns that same object.  The maps that depend only
on a class are ``functools`` caches keyed by it: `_coproduct_reduced_F`
per (class, params) and `_simultaneous_insert_F` per (forest, host
class, rule), so a relabeled diagram reads the value of its class.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import ceil, factorial, prod
from typing import Iterable, Iterator, Sequence, Tuple

from .lincomb import Forest, LinComb, Scalar
from .multiindex import (
    DegreeParams,
    ExpressionError,
    MIForest,
    MultiIndex,
    Rule,
    _degree,
    _scaled_degree,
    _skip_ws,
)
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
    def _unchecked(cls, vertex_count: int, edges: Iterable[Edge]) -> "Diagram":
        """A diagram from edges derived from an already validated one.

        Runs none of the checks of Diagram(...): the caller guarantees
        that the edges are loopless, cover 0..vertex_count-1 and connect
        them.  Endpoints are still ordered and the edges sorted.
        """
        self = object.__new__(cls)
        self._n = vertex_count
        self._edges = tuple(sorted((u, v) if u < v else (v, u) for u, v in edges))
        return self

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


def _refine_colors(n: int, adj: list[dict[int, int]], colors: list[int]) -> list[int]:
    """Iteratively split color classes by colored-neighborhood signatures.

    A vertex's signature is its color and the multiset of (neighbor color,
    edge multiplicity) pairs; new colors are signature ranks, so a class
    splits into classes numbered in signature order.
    """
    while len(set(colors)) < n:
        signatures = []
        for v in range(n):
            neigh: dict[tuple[int, int], int] = {}
            for u, m in adj[v].items():
                key = (colors[u], m)
                neigh[key] = neigh.get(key, 0) + 1
            signatures.append((colors[v], tuple(sorted(neigh.items()))))
        rank = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new_colors = [rank[sig] for sig in signatures]
        if new_colors == colors:
            break
        colors = new_colors
    return colors


# Color classes admitting at most this many arrangements are enumerated
# outright; the branch and bound pays off only above it.
_ENUMERATION_LIMIT = 120


def _canonical_search(
    n: int, edges: tuple[Edge, ...], decorations: tuple[int, ...] | None = None
) -> tuple[tuple[Edge, ...], int, tuple[int, ...] | None]:
    """Canonical relabeling: the least sorted edge tuple over color-respecting maps.

    Vertices are colored by degree and decoration, the colors are refined,
    and the classes in color order take consecutive label ranges.  Among
    the relabelings that respect those ranges, the canonical form is the
    lexicographically least sorted edge tuple.  Returns (canonical edge
    tuple, number of vertex automorphisms, decorations in label order).
    Decorations, when given, are per-vertex integers that must be
    preserved (pairing outcomes carrying free legs); they are constant on
    each class, so they never decide between two relabelings.

    Classes admitting at most _ENUMERATION_LIMIT arrangements are
    enumerated; larger ones go to `_branch_and_bound`, which reaches the
    same least tuple and the same count.
    """
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for u, v in edges:
        adj[u][v] = adj[u].get(v, 0) + 1
        adj[v][u] = adj[v].get(u, 0) + 1
    base = [
        (sum(adj[v].values()), decorations[v] if decorations is not None else 0)
        for v in range(n)
    ]
    rank = {b: i for i, b in enumerate(sorted(set(base)))}
    colors = _refine_colors(n, adj, [rank[b] for b in base])
    blocks: list[list[int]] = [[] for _ in range(max(colors) + 1)]
    for v in range(n):
        blocks[colors[v]].append(v)
    deco = (
        tuple(decorations[block[0]] for block in blocks for _ in block)
        if decorations is not None
        else None
    )
    if prod(factorial(len(block)) for block in blocks) <= _ENUMERATION_LIMIT:
        key, aut = _enumerate_arrangements(n, edges, blocks)
    else:
        key, aut = _branch_and_bound(n, adj, blocks)
    return key, aut, deco


def _enumerate_arrangements(
    n: int, edges: tuple[Edge, ...], blocks: list[list[int]]
) -> tuple[tuple[Edge, ...], int]:
    """Least relabeled edge tuple over every arrangement of the classes, and
    the number of arrangements reaching it (a coset of the automorphisms)."""
    perm = [0] * n
    moving: list[tuple[int, list[int]]] = []
    offset = 0
    for block in blocks:
        if len(block) == 1:
            perm[block[0]] = offset
        else:
            moving.append((offset, block))
        offset += len(block)
    best: list[int] = []
    aut = 0
    for arrangement in product(*(permutations(block) for _, block in moving)):
        for (offset, _), block in zip(moving, arrangement):
            for label, v in enumerate(block, offset):
                perm[v] = label
        # The code u * n + v of an edge (u, v), u < v, orders edges as pairs do.
        key = sorted(
            [perm[u] * n + perm[v] if perm[u] < perm[v] else perm[v] * n + perm[u] for u, v in edges]
        )
        if not aut or key < best:
            best, aut = key, 1
        elif key == best:
            aut += 1
    return tuple(divmod(code, n) for code in best), aut


def _branch_and_bound(
    n: int, adj: list[dict[int, int]], blocks: list[list[int]]
) -> tuple[tuple[Edge, ...], int]:
    """Least relabeled edge tuple by assigning labels 0..n-1 in order.

    Row i of the sorted edge tuple lists the edges (i, j) with j > i, so
    once labels 0..k-1 are placed, every row whose vertex has no unlabeled
    neighbor is final, and so are the entries to labeled vertices of the
    first unfinished row r; together they are the fixed prefix.  Label k
    must go to an unlabeled vertex of its class, and two cuts apply:

    - only candidates with the most edges to r can give the least tuple,
      since any other leaves an entry (r, j > k) where those have (r, k);
    - a labeling whose fixed prefix exceeds the best tuple found is dropped.

    Two leaves with equal tuples differ by an automorphism, which is
    recorded.  A candidate that the automorphisms fixing the placed
    vertices map to an explored sibling is skipped: its subtree is the
    image of the sibling's, so it has the same least tuple and counts the
    same number of leaves reaching it.  A subtree reports how many of its
    leaves equal the best tuple at the time it returns, tagged with the
    number of times the best has fallen; a later fall zeroes every count
    with an older tag, since those subtrees lie strictly above the new
    best.  The root's count is the number of color-respecting relabelings
    reaching the least tuple, i.e. the number of vertex automorphisms.
    """
    class_of = [block for block in blocks for _ in block]
    label = [-1] * n
    order: list[int] = []
    # Edge ends from each vertex to vertices without a label yet.
    open_ends = [sum(row.values()) for row in adj]
    # Final entries of the rows after r, held until r reaches them.
    pending: list[list[Edge]] = [[] for _ in range(n)]
    prefix: list[Edge] = []
    automorphisms: list[list[int]] = []
    best: list[Edge] = []
    best_order: list[int] = []
    falls = 0

    def descend(k: int, row: int, tight: bool) -> tuple[int, int]:
        # tight: the fixed prefix equals the best tuple's prefix (False
        # before any leaf, and when the prefix is already below the best).
        nonlocal best, best_order, falls
        if k == n:
            if tight:
                automorphisms.append([best_order[label[v]] for v in range(n)])
            else:
                best, best_order = prefix[:], order[:]
                falls += 1
            return falls, 1
        pool = [v for v in class_of[k] if label[v] < 0]
        if row < k:
            anchor = adj[order[row]]
            most = max(anchor.get(v, 0) for v in pool)
            pool = [v for v in pool if anchor.get(v, 0) == most]
        results: dict[int, tuple[int, int]] = {}
        known = -1
        orbit = [0] * n
        for v in pool:
            if results and len(automorphisms) != known:
                known = len(automorphisms)
                fixing = [a for a in automorphisms if all(a[x] == x for x in order)]
                moves = [(w, a[w]) for a in fixing for w in range(n) if a[w] != w]
                for i, orbit_vertices in enumerate(components(n, moves)):
                    for w in orbit_vertices:
                        orbit[w] = i
            twin = next((u for u in results if orbit[u] == orbit[v]), None)
            if twin is not None:
                results[v] = results[twin]
                continue
            mark = len(prefix)
            held = []
            label[v] = k
            order.append(v)
            for u, m in adj[v].items():
                i = label[u]
                if i < 0:
                    continue
                open_ends[u] -= m
                open_ends[v] -= m
                if i == row:
                    prefix.extend([(i, k)] * m)
                else:
                    pending[i].extend([(i, k)] * m)
                    held.append((i, m))
            next_row = row
            while next_row <= k and open_ends[order[next_row]] == 0:
                next_row += 1
                if next_row <= k:
                    prefix.extend(pending[next_row])
            fixed, bound = prefix[mark:], best[mark : len(prefix)]
            if not tight or fixed <= bound:
                before = falls
                results[v] = descend(k + 1, next_row, tight and fixed == bound)
                if falls != before:
                    # The new best extends this node's prefix.
                    tight = True
            del prefix[mark:]
            for i, m in held:
                del pending[i][-m:]
            for u, m in adj[v].items():
                if 0 <= label[u] < k:
                    open_ends[u] += m
                    open_ends[v] += m
            label[v] = -1
            order.pop()
        return falls, sum(count for tag, count in results.values() if tag == falls)

    _, aut = descend(0, 0, False)
    return tuple(best), aut


class CanonDiagram:
    """Canonical form of a diagram: key, representative, automorphism order.

    aut_order counts (vertex permutation, edge permutation) pairs fixing
    the diagram, i.e. the vertex automorphisms times the product of the
    parallel-edge factorials; it equals the symmetry factor S_F.
    """

    __slots__ = ("_key", "_diagram", "_aut_order")

    def __new__(cls, diagram: Diagram):
        return canonicalize(diagram)

    @classmethod
    def _of_search(cls, n: int, canon_edges: tuple[Edge, ...], vertex_aut: int) -> "CanonDiagram":
        """The class of a canonical edge tuple and its vertex automorphism
        count: read from `_canon_cache`, or built and filed there once."""
        self = _canon_cache.get((n, canon_edges))
        if self is not None:
            return self
        self = object.__new__(cls)
        representative = Diagram._unchecked(n, canon_edges)
        edge_perms = 1
        for m in representative.multiplicity().values():
            edge_perms *= factorial(m)
        self._key = str(representative)
        self._diagram = representative
        self._aut_order = vertex_aut * edge_perms
        _canon_cache[n, canon_edges] = self
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
    """The class of g, read from `_canon_cache` by (vertex count, edges).

    A miss runs the canonical search and files the class under g's key and
    (by `CanonDiagram._of_search`) under its representative's: one object.
    """
    key = (g.vertex_count, g.edges)
    hit = _canon_cache.get(key)
    if hit is None:
        canon_edges, vertex_aut, _ = _canonical_search(*key)
        hit = _canon_cache[key] = CanonDiagram._of_search(key[0], canon_edges, vertex_aut)
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


def degree(g: Diagram, p: DegreeParams) -> Fraction:
    """deg Gamma = ell * |edges| + d * (|vertices| - 1), the degree of its census."""
    return _degree(2 * g.edge_count(), g.vertex_count, p)


def is_divergent(g: Diagram, p: DegreeParams) -> bool:
    return _scaled_degree(2 * g.edge_count(), g.vertex_count, p) <= 0


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
    # deg = ell*|E| + d*(|V|-1) <= 0  iff  |E| >= d*(|V|-1)/(-ell) when
    # ell < 0; when ell >= 0 no block of two or more vertices is divergent.
    if p.ell < 0:
        min_edges = [ceil(p.d * (size - 1) / -p.ell) for size in range(n + 1)]
    else:
        min_edges = [g.edge_count() + 1] * (n + 1)
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
        if size < 2 or count < min_edges[size]:
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
        piece = Diagram._unchecked(
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
        out.append((DiagForest(piece for _, piece in chosen), Diagram._unchecked(label, trunk_edges)))

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
    """Reduced diagram coproduct: extraction pairs with iso multiplicities.

    The value depends only on g's class, so it is read from the class memo
    `_coproduct_reduced_F`.
    """
    return _coproduct_reduced_F(canonicalize(g), p)


@cache
def _coproduct_reduced_F(
    canon: CanonDiagram, p: DegreeParams
) -> LinComb[Tuple[DiagForest, CanonDiagram]]:
    """The reduced coproduct of one class, computed on its representative."""
    return LinComb(
        ((forest, canonicalize(trunk)), 1)
        for forest, trunk in divergent_extractions(canon.diagram, p)
    )


def coproduct_full_F(
    g: Diagram, p: DegreeParams
) -> LinComb[Tuple[DiagForest, DiagForest]]:
    """Full diagram coproduct with both legs as forests.

    Forest-valued right legs make the primitive term (g, empty)
    representable; reduced trunks appear as singleton forests.
    """
    me = canonicalize(g)
    acc: list[tuple[Tuple[DiagForest, DiagForest], Scalar]] = [
        ((DiagForest.empty(), DiagForest.of(me)), 1),
        ((DiagForest.of(me), DiagForest.empty()), 1),
    ]
    for (forest, trunk), coef in _coproduct_reduced_F(me, p).items():
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
    over all reattachment choices of the cut edges: an edge end at a
    survivor stays, and an end at a cut vertex moves to any vertex of the
    component inserted there, independently for every end.  The sum runs
    over every cut site and reattachment, so it depends only on g's class
    and is read from the memo `_simultaneous_insert_F`.
    """
    if f.is_empty():
        raise ValueError("simultaneous insertion needs a nonempty forest")
    return _simultaneous_insert_F(f, canonicalize(g), rule)


@cache
def _simultaneous_insert_F(
    f: DiagForest, canon: CanonDiagram, rule: Rule | None
) -> LinComb[CanonDiagram]:
    """The insertion of f into one host class, computed on its representative."""
    g = canon.diagram
    bodies = [part.diagram for part in f.parts()]
    acc: list[tuple[CanonDiagram, Scalar]] = []
    for cut_sites in permutations(range(g.vertex_count), len(bodies)):
        survivors = [v for v in range(g.vertex_count) if v not in cut_sites]
        options: dict[int, Sequence[int]] = {v: (i,) for i, v in enumerate(survivors)}
        base_edges: list[Edge] = []
        pos = len(survivors)
        for v, body in zip(cut_sites, bodies):
            options[v] = range(pos, pos + body.vertex_count)
            base_edges.extend((pos + x, pos + y) for x, y in body.edges)
            pos += body.vertex_count
        choice_sets = [product(options[a], options[b]) for a, b in g.edges]
        for picks in product(*choice_sets):
            merged = Diagram._unchecked(pos, base_edges + list(picks))
            if not _admits(merged, rule):
                continue
            acc.append((canonicalize(merged), 1))
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
            # one more loopless edge, inside g or to a fresh vertex, keeps
            # the diagram connected
            extensions: list[Diagram] = []
            for u in range(n):
                for v in range(u + 1, n):
                    extensions.append(Diagram._unchecked(n, g.edges + ((u, v),)))
            for u in range(n):
                extensions.append(Diagram._unchecked(n + 1, g.edges + ((u, n),)))
            for ext in extensions:
                c = canonicalize(ext)
                if c not in seen:
                    seen.add(c)
                    next_frontier.append(c)
                    yield c
        frontier = next_frontier
