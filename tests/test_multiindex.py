"""Arity monomials: parsing, symmetry factors, degree, and the coproduct.

Core claims (hand-checked oracles):
    - symmetry factors: S(z3^2)=72, S(z4^2)=1152, S(z4^3)=82944,
      S(z2 z4^2)=2304, S(z4 z0)=24; reduced factors via beta! only
    - degrees at (ell=-1, d=3): z2 -> -1, z3^2 -> 0, z4^2 -> -1,
      z4^3 -> 0, z4^4 -> +1, z2^2 -> +1, z0 -> 0
    - populatability: a lone z2 or a z2 z4 pair cannot pair half-edges
      looplessly, while z2^2, z3^2, z4^2, z2 z4^2 can
    - arity-raising operator: D(z3^2) = 2 z3 z4,
      D^2(z3^2) = 2 z4^2 + 2 z3 z5
    - insertion golden: z3^2 into z2^2 under rule {2,4} is 4 z2 z4^2
    - single insertion, the one-part simultaneous insertion, equals the
      formula sum_k (D^k z^b) * (d/dz_k z^a) on every pair of
      iter_monomials_within(10, 4) x iter_monomials_within(8, 3), with and
      without the rule {2,4}
    - simultaneous insertion of forests of iter_monomials_within(6, 2),
      repeats included (every two-part forest, three-part ones up to 10
      half-edges), into iter_monomials_within(8, 3) equals the ordered sum of D^{k_i} gamma_i times the partials
      d/dz_{k_i} applied one at a time, with and without the rule {2,4}
    - extraction candidates: the arity cone of m keeps exactly those
      monomials of the global scan (every populatable divergent monomial
      within m's half-edge and vertex counts) with some D^k image dividing m
    - reduced coproduct goldens: the z4^n closed form for n=2..5 and 12, a
      16-coefficient extraction on z2 z4^2, and the full-extraction term
      that only the unruled coproduct keeps
    - the unruled reduced coproduct is adjoint to simultaneous insertion on
      iter_monomials_within(12, 5) at ell in {-1, -3/2}, d = 3: each term
      (f, t) has coef * S(f) * S(t) = S(m) * [m](f * t), and every forest of
      extraction candidates with a trunk t != z0 where [m](f * t) != 0 is a
      term; at ell = -1 also on z3^3 z4 and z3^2 z4^2, the smallest monomials
      there whose coefficients count the ordered tuples of a component
      repeated at two shifts ([z3^2 . z3^2] (x) [z0 z1] = 12 and
      [z3^2 . z3^2] (x) [z0 z2] = 16, against 6 and 8 without that count)
    - the reduced coproduct over iter_monomials_within(14, 6) at ell in
      {-1, -3/2, -2}, d = 3, with and without the rule {2,4}, hashes to a
      digest recorded from the earlier per-component enumeration
    - every coefficient of the reduced coproduct with trunks in the image
      is stored as an int: 5,473 terms over iter_monomials_within(16, 6)
      at ell in {-1, -3/2, -2}, d = 3, with and without the rule {2,4}
    - the integer divergence test: _scaled_degree is 2 den(ell) times the
      degree on iter_monomials_within(16, 6) at seven ells in [-2, 1/2],
      d = 3, and is_divergent follows the sign of the degree
"""

import hashlib
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from bphz.lincomb import LinComb
from bphz.lincomb import product as lin_product
from bphz.multiindex import (
    DegreeParams,
    MIForest,
    MultiIndex,
    Rule,
    apply_D,
    coproduct_full,
    _scaled_degree,
    coproduct_reduced,
    degree,
    extraction_candidates,
    hat_sym_factor,
    insert,
    is_divergent,
    is_populatable,
    iter_monomials_within,
    simultaneous_insert,
    sym_factor,
    sym_factor_forest,
    upsilon,
)
from bphz.symvalue import SymbolicValue

P = DegreeParams(Fraction(-1), 3)
RULE = Rule.parse("2,4")


def _m(text: str) -> MultiIndex:
    return MultiIndex.parse(text)


# -- parsing and text form ----------------------------------------------------

def test_parse_and_str_round_trip():
    for text in ("z2", "z3^2", "z2 z4^2", "z0", "z1^4"):
        assert str(_m(text)) == text


def test_parse_rejects_garbage():
    for text in ("", "z", "z4^", "4", "z4^0 extra junk"):
        with pytest.raises(ValueError):
            MultiIndex.parse(text)


def test_forest_parse_and_merge():
    f = MIForest.parse("z3^2 . z3^2")
    assert len(f.parts()) == 2
    assert str(f) == "z3^2 . z3^2"
    assert str(MIForest.empty()) == "1"
    assert MIForest.parse("1") == MIForest.empty()
    assert f == MIForest.of(_m("z3^2")).merge(MIForest.of(_m("z3^2")))


def test_monomial_accessors():
    m = _m("z2 z4^2")
    assert m.get(4) == 2
    assert m.get(7) == 0
    assert m.support() == (2, 4)
    assert m.norm() == 3
    assert m.half_edges() == 10
    assert m.max_arity() == 4


# -- symmetry factors ----------------------------------------------------------

def test_sym_factor_goldens():
    assert sym_factor(_m("z3^2")) == 72
    assert sym_factor(_m("z4^2")) == 1152
    assert sym_factor(_m("z4^3")) == 82944
    assert sym_factor(_m("z2 z4^2")) == 2304
    assert sym_factor(_m("z4 z0")) == 24
    assert sym_factor(MultiIndex()) == 1


def test_sym_factor_forest_adds_part_permutations():
    f = MIForest.parse("z3^2 . z3^2")
    assert sym_factor_forest(f) == 2 * 72 * 72


def test_hat_sym_factor_counts_repeats_only():
    assert hat_sym_factor(_m("z4^3")) == 6
    assert hat_sym_factor(_m("z2 z3^2")) == 2
    assert hat_sym_factor(_m("z4")) == 1


def test_upsilon_products_of_negated_couplings():
    alpha = SymbolicValue.symbol("alpha")
    couplings = {4: alpha}
    assert upsilon(couplings, _m("z4^2")) == alpha * alpha
    assert upsilon(couplings, _m("z4^3")) == -(alpha ** 3)
    assert upsilon(couplings, _m("z3^2")).is_zero()
    assert upsilon(couplings, MultiIndex()) == SymbolicValue.one()


# -- degree and divergence ------------------------------------------------------

def test_degree_goldens():
    expected = {
        "z2": Fraction(-1),
        "z3^2": Fraction(0),
        "z4^2": Fraction(-1),
        "z4^3": Fraction(0),
        "z4^4": Fraction(1),
        "z2^2": Fraction(1),
        "z0": Fraction(0),
        "z2 z4^2": Fraction(1),
    }
    for text, want in expected.items():
        assert degree(_m(text), P) == want, text


def test_divergence_follows_degree_sign():
    assert is_divergent(_m("z2"), P)
    assert is_divergent(_m("z3^2"), P)
    assert is_divergent(_m("z4^3"), P)
    assert not is_divergent(_m("z4^4"), P)
    assert not is_divergent(_m("z2^2"), P)


def test_fractional_kernel_degree():
    p = DegreeParams(Fraction(-3, 2), 3)
    # z4^2: (-3/4) * 8 + 3 = -3
    assert degree(_m("z4^2"), p) == Fraction(-3)


# -- populatability --------------------------------------------------------------

def test_populatable_table():
    populatable = ("z2^2", "z3^2", "z4^2", "z2 z4^2", "z2^2 z4", "z1^2", "z0", "z2^3")
    not_populatable = ("z2", "z4", "z2 z4", "z3", "z1 z3", "z3 z5")
    for text in populatable:
        assert is_populatable(_m(text)), text
    for text in not_populatable:
        assert not is_populatable(_m(text)), text


def test_populatable_with_free_legs():
    assert is_populatable(_m("z4"), free_legs=4)
    assert not is_populatable(_m("z4"), free_legs=2)
    assert is_populatable(_m("z3^2"), free_legs=2)
    assert not is_populatable(_m("z3^2"), free_legs=1)


def test_iter_monomials_within_counts_partitions():
    # multisets of positive arities with total half-edges <= 4: 11 of them
    found = list(iter_monomials_within(4, 4))
    assert len(found) == 11
    assert len(set(found)) == 11
    assert all(m.half_edges() <= 4 and m.norm() <= 4 for m in found)
    assert all(min(m.support()) >= 1 for m in found)


# -- arity-raising and insertion --------------------------------------------------

def test_apply_D_goldens():
    once = apply_D(_m("z3^2"), 1)
    assert once == LinComb.single(_m("z3 z4"), 2)
    twice = apply_D(_m("z3^2"), 2)
    assert twice.coeff(_m("z4^2")) == 2
    assert twice.coeff(_m("z3 z5")) == 2
    assert len(twice) == 2
    assert apply_D(_m("z3^2"), 0) == LinComb.single(_m("z3^2"))
    with pytest.raises(ValueError):
        apply_D(_m("z3^2"), -1)


def test_insert_golden_matches_diagram_side():
    got = insert(_m("z3^2"), _m("z2^2"), RULE)
    assert got == LinComb.single(_m("z2 z4^2"), 4)
    unruled = insert(_m("z3^2"), _m("z2^2"), None)
    assert unruled.coeff(_m("z2 z4^2")) == 4
    assert unruled.coeff(_m("z2 z3 z5")) == 4
    assert len(unruled) == 2


def _insert_formula(b, a, rule):
    """Oracle: sum_k (D^k z^b) * (d/dz_k z^a), kept where the rule admits it."""
    acc = []
    for k in a.support():
        stripped = a.shift(k, -1)
        for mono, coef in apply_D(b, k).items():
            product = mono.mul(stripped)
            if rule is None or rule.admits(product):
                acc.append((product, coef * a.get(k)))
    return LinComb(acc)


def test_insert_matches_formula():
    trunks = list(iter_monomials_within(8, 3))
    cases = 0
    for b in iter_monomials_within(10, 4):
        for a in trunks:
            for rule in (None, RULE):
                assert insert(b, a, rule) == _insert_formula(b, a, rule), (b, a, rule)
                cases += 1
    assert cases == 7440


def test_simultaneous_insert_single_component_reduces():
    f = MIForest.of(_m("z3^2"))
    a = _m("z2^2")
    for rule in (None, RULE):
        assert simultaneous_insert(f, a, rule) == _insert_formula(_m("z3^2"), a, rule)


def _stepwise_insert(f, a):
    """Oracle: sum over ordered (k_1, ..., k_n) of (prod_i D^{k_i} gamma_i) times
    d/dz_{k_n} ... d/dz_{k_1} z^a, one partial at a time: each takes the
    current multiplicity of z_{k_i} as its factor and removes one z_{k_i}."""
    total = LinComb.zero()
    parts = f.parts()
    for ks in product(range(a.max_arity() + 1), repeat=len(parts)):
        trunk, weight = a, 1
        for k in ks:
            weight *= trunk.get(k)
            if not weight:
                break
            trunk = trunk.shift(k, -1)
        if not weight:
            continue
        poly = LinComb.single(trunk, weight)
        for gamma, k in zip(parts, ks):
            poly = lin_product(poly, apply_D(gamma, k), MultiIndex.mul)
        total = total + poly
    return total


def test_simultaneous_insert_matches_stepwise_partials():
    pieces = list(iter_monomials_within(6, 2))
    hosts = list(iter_monomials_within(8, 3))
    cases = 0
    for n, max_half_edges in ((2, 12), (3, 10)):
        for parts in combinations_with_replacement(pieces, n):
            f = MIForest(parts)
            if f.product().half_edges() > max_half_edges:
                continue
            for a in hosts:
                expected = _stepwise_insert(f, a)
                assert simultaneous_insert(f, a) == expected, (f, a)
                ruled = LinComb((m, c) for m, c in expected.items() if RULE.admits(m))
                assert simultaneous_insert(f, a, RULE) == ruled, (f, a)
                cases += 2
    assert cases == 23600


# -- extraction candidates ------------------------------------------------------

def _global_scan(max_half_edges, max_vertices, p):
    """Oracle: every populatable divergent monomial with an edge, by full scan."""
    return [
        gamma
        for gamma in iter_monomials_within(max_half_edges, max_vertices)
        if gamma.half_edges() >= 2 and is_divergent(gamma, p) and is_populatable(gamma)
    ]


def _fits(gamma, m):
    """True iff some monomial of some D^k gamma divides m (D^k adds k half-edges)."""
    piece = LinComb.single(gamma)
    for _ in range(m.half_edges() - gamma.half_edges() + 1):
        if any(mono.submonomial_of(m) for mono in piece.keys()):
            return True
        piece = apply_D(piece)
    return False


def test_extraction_candidates_are_the_arity_cone_of_the_global_scan():
    for p in (P, DegreeParams(Fraction(-1), 4), DegreeParams(Fraction(-3, 2), 3)):
        scans = {}
        for m in iter_monomials_within(12, 5):
            key = (m.half_edges(), m.norm())
            if key not in scans:
                scans[key] = _global_scan(*key, p)
            kept = extraction_candidates(m, p)
            assert kept == tuple(g for g in scans[key] if _fits(g, m)), m
            for gamma in set(scans[key]) - set(kept):
                assert not _fits(gamma, m), (m, gamma)


# -- coproduct ----------------------------------------------------------------------

def _z4_closed_form(n: int) -> LinComb:
    from math import factorial

    terms = []
    z32 = _m("z3^2")
    for m_count in range(1, n // 2 + 1):
        forest = MIForest([z32] * m_count)
        trunk = MultiIndex({2: m_count, 4: n - 2 * m_count})
        coef = Fraction(
            2 ** (3 * m_count) * factorial(n),
            factorial(m_count) * factorial(n - 2 * m_count),
        )
        terms.append(((forest, trunk), coef))
    return LinComb(terms)


def test_coproduct_z4_closed_form_small():
    for n in (2, 3, 4, 5, 12):
        got = coproduct_reduced(MultiIndex.single(4, n), P, RULE)
        assert got == _z4_closed_form(n), n


def test_coproduct_on_bridge_monomial():
    got = coproduct_reduced(_m("z2 z4^2"), P, RULE)
    want = LinComb.single((MIForest.of(_m("z3^2")), _m("z2^2")), 16)
    assert got == want


def test_unruled_coproduct_keeps_full_extraction():
    got = coproduct_reduced(_m("z2 z4^2"), P, None)
    assert got.coeff((MIForest.of(_m("z3^2")), _m("z2^2"))) == 16
    assert got.coeff((MIForest.of(_m("z4^2")), _m("z2 z0"))) == 1
    assert len(got) == 2


def test_ruled_coproduct_of_sunset_monomial_is_zero():
    assert coproduct_reduced(_m("z3^2"), P, RULE) == LinComb.zero()
    # contracting the whole sunset leaves z0, which is the primitive term of
    # the full coproduct and not a reduced term, with or without a rule
    assert coproduct_reduced(_m("z3^2"), P, None) == LinComb.zero()


def test_trunk_projection_drops_unpopulatable_trunks():
    plain = coproduct_reduced(_m("z4^2"), P, RULE)
    assert plain == LinComb.single((MIForest.of(_m("z3^2")), _m("z2")), 16)
    projected = coproduct_reduced(_m("z4^2"), P, RULE, trunk_in_image=True)
    assert projected == LinComb.zero()


def test_full_coproduct_adds_primitive_terms():
    m = _m("z4^2")
    full = coproduct_full(m, P, RULE)
    assert full.coeff((MIForest.empty(), MIForest.of(m))) == 1
    assert full.coeff((MIForest.of(m), MIForest.empty())) == 1
    assert full.coeff((MIForest.of(_m("z3^2")), MIForest.of(_m("z2")))) == 16
    assert len(full) == 3


# -- rule and params -------------------------------------------------------------------

def test_rule_parse_and_admits():
    assert RULE.admits(_m("z2 z4^2"))
    assert not RULE.admits(_m("z3^2"))
    assert not RULE.admits(_m("z0"))
    assert RULE.admits(MultiIndex())
    with pytest.raises(ValueError):
        Rule.parse("")
    with pytest.raises(ValueError):
        Rule.parse("2,x")


def test_degree_params_are_frozen():
    with pytest.raises(Exception):
        P.d = 4  # type: ignore[misc]


# -- adjointness of extraction and insertion ----------------------------------------

def _forests_of(candidates, he_left, contractions_left, start=0):
    """Nonempty multisets of candidates within a half-edge and contraction budget."""
    for j in range(start, len(candidates)):
        gamma = candidates[j]
        he, shrink = gamma.half_edges(), gamma.norm() - 1
        if he <= he_left and shrink <= contractions_left:
            yield (gamma,)
            for rest in _forests_of(candidates, he_left - he, contractions_left - shrink, j):
                yield (gamma,) + rest


def _trunks_of(half_edges, vertices):
    """Every monomial with exactly these counts, arity-0 vertices included."""
    if half_edges == 0:
        return [MultiIndex.single(0, vertices)]
    return [
        t.mul(MultiIndex.single(0, vertices - t.norm()))
        for t in iter_monomials_within(half_edges, vertices)
        if t.half_edges() == half_edges
    ]


# At ell = -1 no monomial within 12 half-edges has a coefficient that counts
# the ordered tuples of one component at two shifts; these are the first.
REPEATED_AT_TWO_SHIFTS = (MultiIndex.parse("z3^3 z4"), MultiIndex.parse("z3^2 z4^2"))


def test_coproduct_is_adjoint_to_simultaneous_insertion():
    z0 = MultiIndex.single(0)
    monomials = terms = 0
    for ell in (Fraction(-1), Fraction(-3, 2)):
        p = DegreeParams(ell, 3)
        extra = REPEATED_AT_TWO_SHIFTS if ell == -1 else ()
        for m in (*iter_monomials_within(12, 5), *extra):
            s_m = sym_factor(m)
            reduced = coproduct_reduced(m, p)
            for (forest, trunk), coef in reduced.items():
                dual = simultaneous_insert(forest, trunk).coeff(m)
                assert coef * sym_factor_forest(forest) * sym_factor(trunk) == s_m * dual, (
                    m,
                    forest,
                    trunk,
                )
            keys = set(reduced.keys())
            for parts in _forests_of(extraction_candidates(m, p), m.half_edges(), m.norm() - 1):
                forest = MIForest(parts)
                he_trunk = m.half_edges() - sum(g.half_edges() for g in parts)
                vertices = m.norm() - sum(g.norm() - 1 for g in parts)
                for trunk in _trunks_of(he_trunk, vertices):
                    # m * z0 = m is the full extraction, the primitive term m (x) 1
                    # of the full coproduct and not a reduced term
                    if trunk != z0 and simultaneous_insert(forest, trunk).coeff(m):
                        assert (forest, trunk) in keys, (m, forest, trunk)
            monomials += 1
            terms += len(reduced)
    assert (monomials, terms) == (394, 759)
    p = DegreeParams(Fraction(-1), 3)
    pair = MIForest.parse("z3^2 . z3^2")
    low, high = REPEATED_AT_TWO_SHIFTS
    assert coproduct_reduced(low, p).coeff((pair, MultiIndex.parse("z0 z1"))) == 12
    assert coproduct_reduced(high, p).coeff((pair, MultiIndex.parse("z0 z2"))) == 16


def test_coproduct_digest_is_pinned():
    digest = hashlib.sha256()
    terms = 0
    for ell in (Fraction(-1), Fraction(-3, 2), Fraction(-2)):
        p = DegreeParams(ell, 3)
        for rule in (None, Rule(frozenset({2, 4}))):
            for m in iter_monomials_within(14, 6):
                for (forest, trunk), coef in coproduct_reduced(m, p, rule).items():
                    digest.update("{}|{}|{}|{}|{}\n".format(ell, m, forest, trunk, coef).encode())
                    terms += 1
    assert (terms, digest.hexdigest()) == (
        7615,
        "74a17fe1437e3b0418e098702b1a0c02e2b7e58e43ac59362a5c54069771e6a0",
    )


def test_coproduct_coefficients_are_ints():
    terms = 0
    for ell in (Fraction(-1), Fraction(-3, 2), Fraction(-2)):
        p = DegreeParams(ell, 3)
        for rule in (None, RULE):
            for m in iter_monomials_within(16, 6):
                reduced = coproduct_reduced(m, p, rule, trunk_in_image=True)
                for key, coef in reduced.items():
                    assert type(coef) is int, (ell, rule, m, key, coef)
                    terms += 1
    assert terms == 5473


def test_scaled_degree_is_the_degree_times_twice_the_denominator_of_ell():
    cases = 0
    for ell in ("-1", "-3/2", "-2", "-1/2", "-4/3", "0", "1/2"):
        p = DegreeParams(Fraction(ell), 3)
        for m in iter_monomials_within(16, 6):
            exact = degree(m, p)
            scaled = _scaled_degree(m.half_edges(), m.norm(), p)
            assert type(scaled) is int and scaled == 2 * p.ell.denominator * exact, (ell, m)
            assert is_divergent(m, p) == (exact <= 0), (ell, m)
            cases += 1
    assert cases == 4431
