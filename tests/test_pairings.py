"""Loopless perfect-matching enumeration on labeled half-edges.

Core claims:
    - labeled matching counts match hand checks: two triple vertices pair
      in 3! = 6 ways, two quadruple vertices in 4! = 24, three double
      vertices in 2^3 = 8 (the labeled triangles)
    - multiplicity-matrix enumeration reproduces the same totals through
      the prod k! / prod m! counting formula
    - the component helper and the connected-realization predicate
      (matching_exists with no free legs) agree with small hand-checked
      instances
    - the degree criterion for a connected loopless realization agrees with
      exhaustive matching search on every sequence of at most 5 vertices,
      degrees at most 5 and at most 12 half-edges
    - free-leg matching existence respects parity and self-pairing limits,
      and agrees with a search over every per-vertex leg split on arities
      0..5, at most 4 vertices, at most 10 half-edges and every leg count
"""

from itertools import combinations_with_replacement

from bphz.pairings import (
    components,
    iter_labeled_matchings,
    iter_multiplicity_matrices,
    matching_exists,
)


# -- labeled matchings -------------------------------------------------------

def test_two_triple_vertices_pair_in_six_ways():
    assert sum(1 for _ in iter_labeled_matchings((3, 3))) == 6


def test_two_quadruple_vertices_pair_in_24_ways():
    assert sum(1 for _ in iter_labeled_matchings((4, 4))) == 24


def test_three_double_vertices_pair_in_eight_ways():
    matchings = list(iter_labeled_matchings((2, 2, 2)))
    assert len(matchings) == 8
    # every pairing of three double vertices is a labeled triangle
    triangle = ((0, 1), (0, 2), (1, 2))
    assert all(m == triangle for m in matchings)


def test_mixed_arities_3_3_4():
    # the unique multiplicity matrix is m01=1, m02=2, m12=2, giving
    # 3! 3! 4! / (1! 2! 2!) = 216 labeled matchings
    assert sum(1 for _ in iter_labeled_matchings((3, 3, 4))) == 216


def test_self_pairs_are_excluded():
    assert list(iter_labeled_matchings((2,))) == []
    assert sum(1 for _ in iter_labeled_matchings((1, 1))) == 1


def test_odd_half_edge_total_has_no_matchings():
    assert list(iter_labeled_matchings((3,))) == []
    assert list(iter_labeled_matchings((2, 1))) == []


# -- multiplicity matrices ---------------------------------------------------

def test_matrix_counts_sum_to_labeled_totals():
    for arities in ((3, 3), (4, 4), (2, 2, 2), (3, 3, 4), (4, 4, 4), (2, 4, 2)):
        labeled = sum(1 for _ in iter_labeled_matchings(arities))
        by_matrix = sum(count for _, count in iter_multiplicity_matrices(arities))
        assert labeled == by_matrix


def test_matrix_edge_multisets_are_distinct():
    seen = set()
    for edges, _ in iter_multiplicity_matrices((4, 4, 4)):
        assert edges not in seen
        seen.add(edges)
    # three quadruple vertices admit only the doubled triangle
    assert seen == {((0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2))}


# -- connectivity helpers ----------------------------------------------------

def test_connected_predicate():
    assert len(components(1, [])) == 1
    assert len(components(2, [(0, 1)])) == 1
    assert len(components(3, [(0, 1)])) != 1
    assert len(components(3, [(0, 1), (1, 2)])) == 1


def test_components_include_isolated_vertices():
    assert components(3, [(0, 1)]) == [[0, 1], [2]]
    assert components(5, [(3, 4), (0, 3)]) == [[0, 3, 4], [1], [2]]


def test_degree_feasibility():
    assert matching_exists((0,), 0)
    assert not matching_exists((2,), 0)
    assert matching_exists((1, 1), 0)
    assert not matching_exists((3, 1), 0)
    assert matching_exists((6, 1, 1, 1, 1, 1, 1), 0)


def test_connected_realization():
    assert matching_exists((2, 2), 0)
    assert matching_exists((2, 2, 2), 0)
    assert not matching_exists((1, 1, 1, 1), 0)
    assert matching_exists((3, 3), 0)
    assert not matching_exists((4, 2, 1), 0)


def _search_connected(degrees):
    """Oracle: exhaustive loopless-matching search for a connected one."""
    return any(
        len(components(len(degrees), matching)) == 1
        for matching in iter_labeled_matchings(degrees)
    )


def test_connected_realization_agrees_with_exhaustive_search():
    checked = 0
    for n in range(1, 6):
        for degrees in combinations_with_replacement(range(6), n):
            if sum(degrees) > 12:
                continue
            assert matching_exists(degrees, 0) == _search_connected(degrees), degrees
            checked += 1
    assert checked == 296


def test_matching_exists_with_free_legs():
    assert matching_exists((4,), 4)
    assert not matching_exists((4,), 2)
    assert matching_exists((3, 3), 2)
    assert not matching_exists((3, 3), 1)
    assert not matching_exists((2,), 0)
    assert matching_exists((2, 2), 0)


def _leg_splits(arities, legs):
    """Every way to put `legs` free legs on the vertices, at most k_v on vertex v."""
    if not arities:
        if legs == 0:
            yield ()
        return
    for take in range(min(legs, arities[0]) + 1):
        for rest in _leg_splits(arities[1:], legs - take):
            yield (take,) + rest


def _search_with_legs(arities, legs):
    """Oracle: some leg split whose paired half-edges match into a connected graph."""
    return any(
        _search_connected(tuple(k - l for k, l in zip(arities, split)))
        for split in _leg_splits(arities, legs)
    )


def test_matching_exists_agrees_with_search_over_leg_splits():
    checked = 0
    for n in range(1, 5):
        for arities in combinations_with_replacement(range(6), n):
            if sum(arities) > 10:
                continue
            for legs in range(sum(arities) + 1):
                assert matching_exists(arities, legs) == _search_with_legs(arities, legs), (
                    arities,
                    legs,
                )
                checked += 1
    assert checked == 1028
