"""Lattice valuations, Wick moments, cumulants, and counterterms.

Core claims (hand-checked oracles):
    - the periodic kernel wraps indices and enforces evenness
    - diagram values match direct lattice sums written out longhand, and
      equal the exact placement loop over kernel.at; vertex elimination
      sums a 12-vertex path to its closed form and refuses a dense
      diagram by its work estimate before building a table
    - monomial values pass through the lift; the recursive variant (the
      first-vertex block recursion over sub-monomials) agrees with it and
      equals the moments minus every split set partition on all 88
      populatable monomials of `bphz verify --suite valuation`, at d=1
      and d=2; with w(B) = 1, or with blocks not holding an a0 vertex,
      it does not
    - the Wick moment equals the brute-force pairing sum
    - cumulant series of a quartic coupling: alpha^2/2 on z4^2 and
      -alpha^3/6 on z4^3; under rules {2,4} and {1,3,4} at 12, 16 and 32
      half-edges the series equals the scan of every monomial in the bound
    - counterterm goldens: gamma_4 = 0, gamma_2 = 48 alpha^2 Pi[triple]
      (8 alpha^2 times the lifted z3^2 value), gamma_0 =
      12 alpha^2 Pi[quadruple] - 288 alpha^3 Pi[doubled-triangle]
      (alpha^2/2 and -alpha^3/6 times the lifted z4^2 and z4^3 values),
      stable for any truncation >= 12 half-edges
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb

import pytest

from bphz import valuation
from bphz.bridge import lift_P
from bphz.feynman import Diagram, canonicalize, iter_connected_diagrams
from bphz.multiindex import (
    DegreeParams,
    MultiIndex,
    Rule,
    hat_sym_factor,
    is_populatable,
    iter_monomials_within,
    upsilon,
)
from bphz.pairings import iter_labeled_matchings
from bphz.renorm import RenormOutput
from bphz.symvalue import SymbolicValue
from bphz.valuation import (
    KernelSpec,
    counterterms,
    cumulant_series,
    moment_oracle,
    phi4_couplings,
    phi4_report,
    resummation_check,
    sample_kernel,
    value_F_numeric,
    value_F_symbolic,
    value_M,
    value_M_recursive,
)

P = DegreeParams(Fraction(-1), 3)
RULE = Rule.parse("2,4")
ALPHA = SymbolicValue.symbol("alpha")


def _m(text: str) -> MultiIndex:
    return MultiIndex.parse(text)


# -- kernels ----------------------------------------------------------------------

def test_kernel_wraps_and_reads_flat_values():
    k = sample_kernel(d=1, N=4)
    assert k.at((0,), (0,)) == 1.0
    assert k.at((0,), (1,)) == pytest.approx(0.5)
    assert k.at((0,), (2,)) == pytest.approx(0.2)
    assert k.at((0,), (3,)) == pytest.approx(0.5)
    assert k.at((3,), (0,)) == k.at((0,), (3,))


def test_kernel_json_round_trip():
    k = sample_kernel(d=1, N=4)
    assert KernelSpec.from_json(k.to_json()) == k


def test_kernel_rejects_asymmetric_values():
    with pytest.raises(ValueError):
        KernelSpec(1, 4, [1.0, 0.5, 0.2, 0.4])


# -- diagram values ------------------------------------------------------------------

def test_value_of_single_edge_longhand():
    k = KernelSpec(2, 2, [1.0, 0.5, 0.5, 1.0 / 3.0])
    edge = canonicalize(Diagram.parse("n=2; e=1-2"))
    # sum over x, y in (Z_2)^2 of K(x - y), divided by 4^2
    want = sum(
        k.at((a, b), (c, d))
        for a in range(2)
        for b in range(2)
        for c in range(2)
        for d in range(2)
    ) / 16.0
    assert value_F_numeric(edge, k) == pytest.approx(want, rel=1e-12)


def test_value_of_triple_edge_longhand():
    k = sample_kernel(d=1, N=4)
    triple = canonicalize(Diagram.parse("n=2; e=1-2,1-2,1-2"))
    want = sum(
        k.at((x,), (y,)) ** 3 for x in range(4) for y in range(4)
    ) / 16.0
    assert value_F_numeric(triple, k) == pytest.approx(want, rel=1e-12)


def _lattice_sum_by_kernel_at(diagram: Diagram, kernel: KernelSpec) -> Fraction:
    """The exact placement loop over site tuples, calling kernel.at per edge (the oracle)."""
    sites = list(product(range(kernel.N), repeat=kernel.d))
    total = 0
    for placement in product(sites, repeat=diagram.vertex_count):
        w = 1
        for u, v in diagram.edges:
            w *= kernel.at(placement[u], placement[v])
        total += w
    return total / len(sites) ** diagram.vertex_count


def test_value_F_numeric_equals_the_kernel_at_loop_exactly():
    # __wrapped__ bypasses the cache, so every sum is computed afresh.
    lattice_sum = valuation._lattice_sum.__wrapped__
    cases = 0
    for (d, N), max_edges in (((1, 4), 5), ((2, 3), 3), ((1, 5), 4)):
        k = sample_kernel(d, N)
        for canon in iter_connected_diagrams(max_edges):
            want = _lattice_sum_by_kernel_at(canon.diagram, k)
            assert lattice_sum(canon, k) == want, (d, N, canon.key)
            cases += 1
    assert cases == 81


def test_lattice_sum_of_a_long_path_is_its_tree_closed_form():
    # 4^12 placements are far over the size limit, but eliminating a path
    # costs 11 * 4^2 products; each of its 11 edges averages to sum(K) / S.
    k = sample_kernel(d=1, N=4)
    path = canonicalize(Diagram(12, [(i, i + 1) for i in range(11)]))
    assert len(k.values) ** 12 > valuation._LATTICE_LIMIT
    assert valuation._lattice_sum.__wrapped__(path, k) == (sum(k.values) / 4) ** 11


def test_lattice_sum_refuses_a_dense_diagram_before_building_tables(monkeypatch):
    # K_6 on 25 sites: fixing one vertex leaves K_5, whose first elimination
    # alone costs 25^5 > _LATTICE_LIMIT products.
    k = sample_kernel(d=2, N=5)
    dense = canonicalize(Diagram(6, [(u, v) for u in range(6) for v in range(u + 1, 6)]))

    def no_tables(*args):
        raise AssertionError("a factor table was built")

    monkeypatch.setattr(valuation, "_site_table", no_tables)
    with pytest.raises(ValueError, match="size limit"):
        valuation._lattice_sum.__wrapped__(dense, k)


def test_value_F_symbolic_is_one_symbol_per_class():
    triple = canonicalize(Diagram.parse("n=2; e=1-2,1-2,1-2"))
    assert value_F_symbolic(triple) == SymbolicValue.symbol("Pi[n=2; e=1-2,1-2,1-2]")


# -- monomial values -------------------------------------------------------------------

def test_value_M_through_the_lift():
    k = sample_kernel(d=1, N=4)
    triple = canonicalize(Diagram.parse("n=2; e=1-2,1-2,1-2"))
    assert value_M(_m("z3^2"), k) == pytest.approx(6 * value_F_numeric(triple, k))
    assert value_M(_m("z3^2")) == SymbolicValue.symbol("Pi[n=2; e=1-2,1-2,1-2]") \
        * SymbolicValue.constant(6)
    assert value_M(_m("z2"), k) == 0.0


def test_moment_equals_brute_force_wick_sum():
    k = sample_kernel(d=1, N=4)
    for text in ("z3^2", "z2^2", "z1^4", "z2^3"):
        m = _m(text)
        arities = m.arity_list()
        n = len(arities)
        brute = 0.0
        for matching in iter_labeled_matchings(arities):
            for placement in _placements(n, 4):
                term = 1.0
                for u, v in matching:
                    term *= k.at((placement[u],), (placement[v],))
                brute += term
        brute /= float(4 ** n)
        assert moment_oracle(m, k) == pytest.approx(brute, rel=1e-12), text


def _placements(n: int, size: int):
    if n == 0:
        yield ()
        return
    for rest in _placements(n - 1, size):
        for x in range(size):
            yield rest + (x,)


def test_recursive_value_agrees_with_lift():
    k = sample_kernel(d=1, N=4)
    for text in ("z3^2", "z2^2", "z4^2", "z2^3", "z2 z3^2", "z2^2 z4"):
        m = _m(text)
        assert value_M_recursive(m, k) == value_M(m, k), text


def _set_partitions(items: tuple) -> list[list[tuple]]:
    """All partitions of a labeled tuple into nonempty blocks."""
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for partition in _set_partitions(rest):
        for i in range(len(partition)):
            out.append(partition[:i] + [(first,) + partition[i]] + partition[i + 1 :])
        out.append([(first,)] + partition)
    return out


def _connected_by_set_partitions(m: MultiIndex, kernel: KernelSpec, memo: dict):
    """The moment of m minus the block products of every split set partition
    of its labeled vertices (the oracle, Bell(|m|) partitions)."""
    if m not in memo:
        arities = m.arity_list()
        total = moment_oracle(m, kernel)
        for partition in _set_partitions(tuple(range(len(arities)))):
            if len(partition) > 1:
                w = 1
                for block in partition:
                    sub = MultiIndex(Counter(arities[i] for i in block))
                    w *= _connected_by_set_partitions(sub, kernel, memo)
                total -= w
        memo[m] = total
    return memo[m]


ORACLE_KERNELS = (sample_kernel(), sample_kernel(d=2, N=3))


def _recursion_matches_set_partitions() -> bool:
    """value_M_recursive equals the set-partition oracle on every populatable
    monomial `bphz verify --suite valuation` checks, at both kernels."""
    for kernel in ORACLE_KERNELS:
        memo: dict = {}
        for m in filter(is_populatable, iter_monomials_within(12, 12)):
            if value_M_recursive(m, kernel) != _connected_by_set_partitions(m, kernel, memo):
                return False
    return True


def test_recursive_value_equals_the_set_partition_recursion():
    assert sum(is_populatable(m) for m in iter_monomials_within(12, 12)) == 88
    assert _recursion_matches_set_partitions()


def _planted_block_recursion(fault: str):
    """The first-vertex block recursion with one fault: every w(B) = 1, or B
    not required to hold an a0 vertex (w(B) then counts all its labelings)."""

    @cache
    def kappa(m: MultiIndex, kernel: KernelSpec):
        beta = m.beta()
        first = None if fault == "B_need_not_hold_a0" else min(beta)
        total = moment_oracle(m, kernel)
        for counts in product(*(range(k == first, b + 1) for k, b in beta.items())):
            block = MultiIndex(zip(beta, counts))
            if block == m or block.is_empty():
                continue
            w = 1
            if fault != "w_is_one":
                for (k, b), c in zip(beta.items(), counts):
                    w *= comb(b - (k == first), c - (k == first))
            total -= w * kappa(block, kernel) * moment_oracle(m.minus(block), kernel)
        return total

    return kappa


@pytest.mark.parametrize("fault", ["w_is_one", "B_need_not_hold_a0"])
def test_set_partition_oracle_fails_on_a_planted_block_recursion(monkeypatch, fault):
    monkeypatch.setattr(valuation, "_connected_value", _planted_block_recursion(fault))
    assert not _recursion_matches_set_partitions()


def test_recursive_value_rejects_arity_zero():
    k = sample_kernel(d=1, N=4)
    with pytest.raises(ValueError):
        value_M_recursive(_m("z0"), k)


# -- cumulants and counterterms -----------------------------------------------------------

def test_cumulant_series_quartic():
    series = cumulant_series({4: ALPHA}, P, RULE, max_half_edges=12)
    half = SymbolicValue.constant(Fraction(1, 2))
    sixth = SymbolicValue.constant(Fraction(1, 6))
    assert series.coeff(_m("z4^2")) == ALPHA * ALPHA * half
    assert series.coeff(_m("z4^3")) == -(ALPHA ** 3) * sixth
    assert all(k.get(4) >= 2 for k in series.keys())


def test_cumulant_series_matches_scan_of_all_monomials():
    for rule in (RULE, Rule.parse("1,3,4")):
        couplings = {k: SymbolicValue.symbol("g{}".format(k)) for k in rule.arities}
        for max_half_edges in (12, 16, 32):
            terms = []
            for m in iter_monomials_within(max_half_edges, max_half_edges):
                if rule.admits(m) and is_populatable(m):
                    weight = upsilon(couplings, m) * SymbolicValue.constant(Fraction(1, hat_sym_factor(m)))
                    terms.append((m, weight))
            series = cumulant_series(couplings, P, rule, max_half_edges)
            assert series == RenormOutput(terms), (rule, max_half_edges)


def test_counterterm_goldens():
    gamma = counterterms(phi4_couplings(), P, RULE, max_half_edges=12)
    pi_iii = SymbolicValue.symbol("Pi[n=2; e=1-2,1-2,1-2]")
    pi_iv = SymbolicValue.symbol("Pi[n=2; e=1-2,1-2,1-2,1-2]")
    pi_tt = SymbolicValue.symbol("Pi[n=3; e=1-2,1-2,1-3,1-3,2-3,2-3]")
    a2 = ALPHA * ALPHA
    a3 = ALPHA ** 3
    assert gamma[4].is_zero()
    assert gamma[2] == pi_iii * a2 * SymbolicValue.constant(48)
    assert gamma[0] == pi_iv * a2 * SymbolicValue.constant(12) \
        - pi_tt * a3 * SymbolicValue.constant(288)
    assert set(gamma) == {0, 2, 4}


def test_counterterms_equal_lifted_closed_form():
    # gamma_2 = 8 alpha^2 P(z3^2), gamma_0 = (alpha^2/2) P(z4^2)
    # - (alpha^3/6) P(z4^3), with P the symbolic lifted value
    gamma = counterterms(phi4_couplings(), P, RULE, max_half_edges=12)
    assert gamma[2] == value_M(_m("z3^2")) * ALPHA * ALPHA \
        * SymbolicValue.constant(8)
    assert gamma[0] == value_M(_m("z4^2")) * ALPHA * ALPHA \
        * SymbolicValue.constant(Fraction(1, 2)) \
        - value_M(_m("z4^3")) * (ALPHA ** 3) * SymbolicValue.constant(Fraction(1, 6))


def test_counterterms_stable_above_truncation_12():
    g12 = counterterms(phi4_couplings(), P, RULE, max_half_edges=12)
    g14 = counterterms(phi4_couplings(), P, RULE, max_half_edges=14)
    assert g12 == g14


def test_counterterms_truncate_below_12():
    g8 = counterterms(phi4_couplings(), P, RULE, max_half_edges=8)
    pi_iv = SymbolicValue.symbol("Pi[n=2; e=1-2,1-2,1-2,1-2]")
    assert g8[0] == pi_iv * ALPHA * ALPHA * SymbolicValue.constant(12)
    assert g8[2] == counterterms(phi4_couplings(), P, RULE, max_half_edges=12)[2]


# -- the full example ------------------------------------------------------------------------

def test_resummation_low_order():
    assert resummation_check(P, RULE, order=4)


def test_phi4_report_shape():
    report = phi4_report(P, RULE, max_n=3, trunc=12)
    assert report["params"]["d"] == 3
    assert [row["n"] for row in report["coproduct"]] == [2, 3]
    assert all(row["closed_form_ok"] for row in report["coproduct"])
    assert all(row["closed_form_ok"] for row in report["bphz"])
    assert report["resummation_ok"] is True
    assert set(report["counterterms"]) == {"0", "2", "4"}
