"""The acceptance gate: eleven criteria, one test and one verdict line each.

Every expected value below is a frozen literal or an explicitly spelled
out combination; the got side comes from the public API only.  C6, C7,
C9 and C10 run the suites and predicates of ``bphz.checks`` that
``bphz verify`` runs, at their own ranges.  Each test prints a single
pass/FAIL line with its wall time (stdout stays visible because ``-s`` is
in the default pytest options) and then asserts, so a plain
``pytest tests/test_acceptance.py`` doubles as the sign-off report.
"""

import time
from fractions import Fraction
from math import factorial

from bphz import bridge, checks, feynman as fy, multiindex as mi, renorm, valuation
from bphz.feynman import DiagForest, Diagram
from bphz.lincomb import LinComb
from bphz.multiindex import DegreeParams, MIForest, MultiIndex, Rule
from bphz.renorm import RenormOutput
from bphz.symvalue import SymbolicValue

P = DegreeParams(Fraction(-1), 3)
RULE = Rule.parse("2,4")

TRIPLE = fy.canonicalize(Diagram.parse("n=2; e=1-2,1-2,1-2"))
DOUBLE = fy.canonicalize(Diagram.parse("n=2; e=1-2,1-2"))
QUAD = fy.canonicalize(Diagram.parse("n=2; e=1-2,1-2,1-2,1-2"))
BRIDGED = fy.canonicalize(Diagram.parse("n=3; e=1-2,1-3,2-3,2-3,2-3"))
DOUBLE_TRIANGLE = fy.canonicalize(Diagram.parse("n=3; e=1-2,1-2,1-3,1-3,2-3,2-3"))

PI_TRIPLE = SymbolicValue.symbol("Pi[{}]".format(TRIPLE.key))
PI_QUAD = SymbolicValue.symbol("Pi[{}]".format(QUAD.key))
PI_DOUBLE_TRIANGLE = SymbolicValue.symbol("Pi[{}]".format(DOUBLE_TRIANGLE.key))

Z32 = MultiIndex.parse("z3^2")


def _verdict(label: str, ok: bool, elapsed: float, budget: float | None = None) -> None:
    window = "" if budget is None else "  (budget {:g}s)".format(budget)
    print("\n{}  {}  {:.2f}s{}".format("pass" if ok else "FAIL", label, elapsed, window))


def _z4(n: int) -> MultiIndex:
    return MultiIndex.single(4, n)


def test_c01_orbit_stabilizer_on_the_triple_edge():
    start = time.perf_counter()
    pairing_count = bridge.enumerate_pairings(Z32, connected_only=True).get(TRIPLE)
    ok = (
        TRIPLE.aut_order == 12
        and pairing_count == 6
        and mi.sym_factor(Z32) == 72
        and bridge.lift_P(Z32) == LinComb.single(TRIPLE, 6)
        and 72 == 6 * 12
    )
    elapsed = time.perf_counter() - start
    _verdict("C1  orbit-stabilizer on the triple edge", ok, elapsed, 1)
    assert ok
    assert elapsed < 1


def test_c02_triple_edge_insertion_and_the_bridged_triple():
    start = time.perf_counter()
    inserted = fy.insert_F(TRIPLE.diagram, DOUBLE.diagram, RULE)
    ok = inserted == LinComb.single(BRIDGED, 4)

    coproduct = fy.coproduct_reduced_F(BRIDGED.diagram, P)
    ok = ok and coproduct == LinComb.single((DiagForest.of(TRIPLE), DOUBLE), 1)

    antipode = renorm.antipode_F(BRIDGED.diagram, P)
    two_terms = LinComb(
        [
            (DiagForest.of(BRIDGED), Fraction(-1)),
            (DiagForest.of(TRIPLE, DOUBLE), Fraction(1)),
        ]
    )
    ok = ok and antipode == two_terms
    elapsed = time.perf_counter() - start
    _verdict("C2  triple-edge insertion and the bridged triple", ok, elapsed, 1)
    assert ok
    assert elapsed < 1


def test_c03_quartic_tower_closed_forms():
    start = time.perf_counter()
    ok = True
    pi_z32 = SymbolicValue.constant(6) * PI_TRIPLE

    for n in range(2, 17):
        expected = LinComb(
            (
                (MIForest([Z32] * m), MultiIndex({2: m, 4: n - 2 * m})),
                Fraction(
                    2 ** (3 * m) * factorial(n),
                    factorial(m) * factorial(n - 2 * m),
                ),
            )
            for m in range(1, n // 2 + 1)
        )
        ok = ok and mi.coproduct_reduced(_z4(n), P, RULE) == expected

    for n in (2, 3):
        negated = LinComb.single(MIForest.of(_z4(n)), -1)
        ok = ok and renorm.antipode_M(_z4(n), P, RULE) == negated
    for n in range(4, 13):
        ok = ok and renorm.antipode_M(_z4(n), P, RULE) == LinComb.zero()

    subtraction_constants = {
        2: SymbolicValue.constant(-24) * PI_QUAD,
        3: SymbolicValue.constant(-1728) * PI_DOUBLE_TRIANGLE,
    }
    for n in (2, 3):
        expected_out = RenormOutput(
            [
                (MIForest.of(_z4(n)), SymbolicValue.one()),
                (MIForest.empty(), subtraction_constants[n]),
            ]
        )
        got = renorm.bphz_M(_z4(n), valuation.pi_character_M(), P, RULE)
        ok = ok and got == expected_out
    for n in range(4, 13):
        terms = []
        for m in range(0, n // 2 + 1):
            trunk = MultiIndex({2: m, 4: n - 2 * m})
            coef = (pi_z32 * SymbolicValue.constant(-8)) ** m
            coef = coef * SymbolicValue.constant(
                Fraction(factorial(n), factorial(m) * factorial(n - 2 * m))
            )
            terms.append((MIForest.of(trunk), coef))
        got = renorm.bphz_M(_z4(n), valuation.pi_character_M(), P, RULE)
        ok = ok and got == RenormOutput(terms)
    elapsed = time.perf_counter() - start
    label = "C3  closed forms along z4^n, n = 2..16 (coproduct), 2..12 (antipode, bphz_M)"
    _verdict(label, ok, elapsed, 5)
    assert ok
    assert elapsed < 5


def test_c04_lift_goldens_and_the_commuting_square_on_z4_4():
    start = time.perf_counter()
    ok = bridge.lift_P(MultiIndex.parse("z2 z4^2")) == LinComb.single(BRIDGED, 192)
    ok = ok and bridge.lift_P(MultiIndex.parse("z2^2")) == LinComb.single(DOUBLE, 2)
    for m in (1, 2, 3):
        expected = LinComb.single(DiagForest([TRIPLE] * m), 6**m)
        ok = ok and bridge.lift_P_forest(MIForest([Z32] * m)) == expected

    chain = fy.canonicalize(Diagram.parse("n=4; e=1-2,1-2,1-2,1-3,2-4,3-4,3-4,3-4"))
    ring = fy.canonicalize(Diagram.parse("n=4; e=1-2,1-2,1-3,1-3,2-4,2-4,3-4,3-4"))
    mixed = fy.canonicalize(Diagram.parse("n=4; e=1-2,1-2,1-3,1-4,2-3,2-4,3-4,3-4"))
    z44 = _z4(4)
    ok = ok and bridge.lift_P(z44) == LinComb(
        [(chain, Fraction(55296)), (ring, Fraction(62208)), (mixed, Fraction(248832))]
    )
    ok = ok and (chain.aut_order, ring.aut_order, mixed.aut_order) == (144, 128, 32)

    lhs: dict = {}
    for (forest, trunk), coef in mi.coproduct_reduced(z44, P, RULE).items():
        for df, ca in bridge.lift_P_forest(forest).items():
            for dt, cb in bridge.lift_P(trunk).items():
                lhs[(df, dt)] = lhs.get((df, dt), Fraction(0)) + coef * ca * cb
    rhs: dict = {}
    for canon, weight in bridge.lift_P(z44).items():
        for (forest, trunk), coef in fy.coproduct_reduced_F(canon.diagram, P).items():
            if not RULE.admits(fy.counting_map(trunk.diagram)):
                continue
            rhs[(forest, trunk)] = rhs.get((forest, trunk), Fraction(0)) + weight * coef
    lhs = {k: v for k, v in lhs.items() if v}
    rhs = {k: v for k, v in rhs.items() if v}
    unit = 4 * factorial(4) ** 3
    expected_square = {
        (DiagForest.of(TRIPLE), BRIDGED): Fraction(2 * unit),
        (DiagForest.of(TRIPLE, TRIPLE), DOUBLE): Fraction(unit),
    }
    ok = ok and unit == 55296 and lhs == expected_square and rhs == expected_square
    elapsed = time.perf_counter() - start
    _verdict("C4  lift goldens and the commuting square on z4^4", ok, elapsed, 30)
    assert ok
    assert elapsed < 30


def test_c05_counterterm_table():
    start = time.perf_counter()
    alpha = SymbolicValue.symbol("alpha")
    pi_z32 = SymbolicValue.constant(6) * PI_TRIPLE
    pi_z42 = SymbolicValue.constant(24) * PI_QUAD
    pi_z43 = SymbolicValue.constant(1728) * PI_DOUBLE_TRIANGLE
    expected = {
        0: alpha**2 * pi_z42 * SymbolicValue.constant(Fraction(1, 2))
        - alpha**3 * pi_z43 * SymbolicValue.constant(Fraction(1, 6)),
        2: SymbolicValue.constant(8) * alpha**2 * pi_z32,
        4: SymbolicValue.zero(),
    }
    ok = True
    for trunc in (12, 13):
        gamma = valuation.counterterms(
            valuation.phi4_couplings(), P, RULE, max_half_edges=trunc
        )
        ok = ok and gamma == expected
    elapsed = time.perf_counter() - start
    _verdict("C5  counterterm table at truncation 12 and 13", ok, elapsed, 60)
    assert ok
    assert elapsed < 60


def test_c06_coproduct_star_adjointness_to_six_edges():
    start = time.perf_counter()
    rows = list(checks.adjointness_terms(P, max_edges=6))
    checked = sum(len(verdicts) for _, verdicts in rows)
    ok = all(all(verdicts) for _, verdicts in rows)
    ok = ok and len(rows) == 156 + 16 and checked == 29 + 22
    elapsed = time.perf_counter() - start
    _verdict("C6  coproduct/star adjointness to six edges", ok, elapsed, 300)
    assert ok
    assert elapsed < 300


def test_c07_lifting_intertwines_the_two_coproducts():
    start = time.perf_counter()
    bounds = checks.Bounds(max_he=12, max_verts=4)
    verdicts = [ok for rule in (None, RULE) for _, ok in checks.square(P, rule, bounds)]
    ok = all(verdicts) and len(verdicts) == 2 * 46
    elapsed = time.perf_counter() - start
    _verdict("C7  lifting intertwines the coproducts", ok, elapsed, 300)
    assert ok
    assert elapsed < 300


def test_c08_counting_map_is_a_morphism_for_insertion_and_star():
    start = time.perf_counter()
    diagrams = list(fy.iter_connected_diagrams(5))
    ok = True
    checked = 0
    for g1 in diagrams:
        for g2 in diagrams:
            if g1.diagram.edge_count() + g2.diagram.edge_count() > 6:
                continue
            for rule in (None, RULE):
                ok = ok and bridge.morphism_insert_check(g1.diagram, g2.diagram, rule)
                checked += 1

    small = [c for c in diagrams if c.diagram.edge_count() <= 3]
    forests = [DiagForest.of(c) for c in small]
    forests += [DiagForest.of(a, b) for i, a in enumerate(small) for b in small[i:]]
    for forest in forests:
        f_edges = sum(part.diagram.edge_count() for part in forest.parts())
        for host in diagrams:
            if f_edges + host.diagram.edge_count() > 6:
                continue
            for rule in (None, RULE):
                ok = ok and bridge.morphism_star_check(forest, host.diagram, rule)
                checked += 1
    ok = ok and checked == 2 * (202 + 203)
    elapsed = time.perf_counter() - start
    _verdict("C8  counting map is a morphism for insert and star", ok, elapsed)
    assert ok


def test_c09_three_valuations_agree_on_a_lattice_kernel():
    start = time.perf_counter()
    bounds = checks.Bounds(max_he=8)
    verdicts = [ok for _, ok in checks.valuation_agreement(P, RULE, bounds)]
    ok = all(verdicts) and len(verdicts) == 19
    elapsed = time.perf_counter() - start
    _verdict("C9  valuations agree on a d=1 lattice kernel", ok, elapsed, 120)
    assert ok
    assert elapsed < 120


def test_c10_antipode_counit_identity_and_transport_composition():
    start = time.perf_counter()
    verdicts = [
        checks.antipode_identity(m, P, RULE)
        for m in mi.iter_monomials_within(14, 6)
        if renorm.in_negative_part_M(m, P)
    ]
    verdicts += [checks.antipode_identity(c, P) for c in fy.iter_connected_diagrams(4)]
    composes = checks.transport_composition(P, RULE)
    verdicts += [composes(_z4(n)) for n in range(2, 7)]
    ok = all(verdicts) and len(verdicts) == 18 + 20 + 5
    elapsed = time.perf_counter() - start
    _verdict("C10 antipode counit identity and transport composition", ok, elapsed)
    assert ok


def test_c11_subtracted_series_resums_to_shifted_couplings():
    start = time.perf_counter()
    ok = valuation.resummation_check(P, RULE, order=8)
    elapsed = time.perf_counter() - start
    _verdict("C11 subtracted series resums to shifted couplings", ok, elapsed)
    assert ok
