"""Half-edge pairing machinery shared by the graph and monomial layers.

A monomial with vertex arities ``(k_1, ..., k_n)`` describes n labeled
vertices carrying that many half-edges each.  This module enumerates the
ways to pair those half-edges into loopless edges: either one labeled
matching at a time (the ground-truth oracle) or aggregated by edge
multiplicity matrix (the fast path; the two are cross-asserted in tests).
Whether a connected pairing exists at all, free legs allowed, is decided
without enumeration by Hakimi's degree criterion.  No canonicalization
happens here; callers bucket the resulting labeled graphs themselves.
"""

from __future__ import annotations

from math import factorial
from typing import Iterator, Sequence, Tuple

Edge = Tuple[int, int]  # (u, v) with u < v, 0-based vertex indices


def components(vertex_count: int, edges: Sequence[Edge]) -> list[list[int]]:
    """Connected components as sorted vertex lists (isolated vertices included)."""
    parent = list(range(vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    buckets: dict[int, list[int]] = {}
    for v in range(vertex_count):
        buckets.setdefault(find(v), []).append(v)
    return sorted(buckets.values())


def iter_labeled_matchings(arities: Sequence[int]) -> Iterator[Tuple[Edge, ...]]:
    """Yield every loopless perfect matching of the labeled half-edges.

    Half-edges are (vertex, slot) pairs; each matching is reported as its
    edge multiset (sorted tuple of vertex pairs).  Distinct labeled
    matchings are yielded separately even when their edge multisets agree.
    """
    half_edges = [v for v, k in enumerate(arities) for _ in range(k)]
    if len(half_edges) % 2:
        return

    def recurse(free: list[int], acc: list[Edge]) -> Iterator[Tuple[Edge, ...]]:
        if not free:
            yield tuple(sorted(acc))
            return
        first = free[0]
        rest = free[1:]
        for idx, partner in enumerate(rest):
            if partner == first:
                continue
            acc.append((first, partner) if first < partner else (partner, first))
            yield from recurse(rest[:idx] + rest[idx + 1 :], acc)
            acc.pop()

    yield from recurse(half_edges, [])


def iter_multiplicity_matrices(arities: Sequence[int]) -> Iterator[Tuple[Tuple[Edge, ...], int]]:
    """Yield (edge multiset, labeled matching count) per multiplicity matrix.

    Enumerates symmetric loopless edge-multiplicity assignments with row
    sums equal to the arities; the count of labeled matchings realizing a
    matrix is  prod_v k_v! / prod_{u<v} m_uv!.
    """
    n = len(arities)
    if sum(arities) % 2:
        return
    numerator = 1
    for k in arities:
        numerator *= factorial(k)
    remaining = list(arities)
    rows: list[Tuple[int, ...]] = []

    def recurse(u: int) -> Iterator[Tuple[Tuple[Edge, ...], int]]:
        if u == n:
            edges: list[Edge] = []
            denom = 1
            for i, row in enumerate(rows):
                for j, mult in enumerate(row):
                    if mult:
                        edges.extend([(i, i + 1 + j)] * mult)
                        denom *= factorial(mult)
            yield tuple(sorted(edges)), numerator // denom
            return
        targets = list(range(u + 1, n))
        # suffix[pos]: capacity of targets[pos:].  fill lowers remaining[v]
        # only at positions it has passed, so the sums stay valid in this row.
        suffix = [0] * (len(targets) + 1)
        for pos in range(len(targets) - 1, -1, -1):
            suffix[pos] = suffix[pos + 1] + remaining[targets[pos]]
        need = remaining[u]
        if need > suffix[0]:
            return

        def fill(pos: int, left: int, row: list[int]) -> Iterator[Tuple[Tuple[Edge, ...], int]]:
            if pos == len(targets):
                if left == 0:
                    rows.append(tuple(row))
                    yield from recurse(u + 1)
                    rows.pop()
                return
            v = targets[pos]
            low = max(0, left - suffix[pos + 1])
            high = min(left, remaining[v])
            for take in range(low, high + 1):
                remaining[v] -= take
                row.append(take)
                yield from fill(pos + 1, left - take, row)
                row.pop()
                remaining[v] += take

        yield from fill(0, need, [])

    yield from recurse(0)


def matching_exists(arities: Sequence[int], free_legs: int) -> bool:
    """Existence of a connected loopless pairing leaving free_legs unpaired.

    Free legs may sit on any vertices; all vertices must be spanned by the
    paired edges (a single vertex with every leg free counts as connected).

    Decided in closed form.  P = sum(arities) - free_legs half-edges are
    paired; a lone vertex needs P = 0.  For n >= 2 vertices, Hakimi's
    criterion says paired degrees r_v >= 1 form a connected loopless
    multigraph iff P is even, max r_v <= P/2 and P/2 >= n - 1.  Degrees
    1 <= r_v <= min(k_v, P/2) summing to P exist iff every k_v >= 1 and
    sum min(k_v, P/2) >= P (P >= n already follows from P/2 >= n - 1).
    Tests cross-check it against exhaustive matching search.
    """
    n = len(arities)
    paired = sum(arities) - free_legs
    if n <= 1:
        return n == 1 and paired == 0
    half = paired // 2
    return (
        paired >= 0
        and paired % 2 == 0
        and min(arities) >= 1
        and half >= n - 1
        and sum(min(k, half) for k in arities) >= paired
    )
