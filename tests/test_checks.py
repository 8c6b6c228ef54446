"""The shared sign-off predicates report False on planted faults.

The acceptance gate and ``bphz verify`` both read their verdicts from
``bphz.checks``, so each predicate there must be able to fail.  Every test
first sees the predicate pass, then plants one fault with monkeypatch and
sees it fail.  A fault in a memoized antipode is planted by wrapping the
cached function; the antipodes built from it land in the caches, and
every bphz cache is cleared at teardown so they do not outlive the test.
"""

from fractions import Fraction

import pytest
from conftest import memoized_maps

from bphz import checks, cli, feynman as fy, multiindex as mi, renorm, valuation
from bphz.feynman import Diagram
from bphz.multiindex import DegreeParams, MultiIndex, Rule

P = DegreeParams(Fraction(-1), 3)
RULE = Rule.parse("2,4")
Z32 = MultiIndex.parse("z3^2")
TRIPLE = fy.canonicalize(Diagram.parse("n=2; e=1-2,1-2,1-2"))


@pytest.fixture
def planted(monkeypatch):
    """Plant a doubled value for one argument tuple of a cached renorm map.

    Yields plant(name, args); at teardown the patch is undone and every
    bphz cache is cleared of the values built from the fault.
    """

    def plant(name: str, key: tuple) -> None:
        original = getattr(renorm, name)

        def doubled(*args):
            value = original(*args)
            return value.scale(2) if args == key else value

        monkeypatch.setattr(renorm, name, doubled)

    yield plant
    monkeypatch.undo()
    for fn in memoized_maps():
        fn.cache_clear()


def test_antipode_identity_fails_on_a_perturbed_monomial_antipode(planted):
    assert checks.antipode_identity(Z32, P, RULE)
    planted("antipode_M", (Z32, P, RULE))
    assert not checks.antipode_identity(Z32, P, RULE)


def test_antipode_identity_fails_on_a_perturbed_diagram_antipode(planted):
    assert checks.antipode_identity(TRIPLE, P)
    planted("_antipode_F", (TRIPLE, P))
    assert not checks.antipode_identity(TRIPLE, P)


def test_adjointness_fails_on_a_scaled_star_product(cold_memos, monkeypatch):
    rows = list(checks.adjointness_terms(P, max_edges=4))
    assert all(all(verdicts) for _, verdicts in rows)
    star = fy.simultaneous_insert_F
    monkeypatch.setattr(
        fy, "simultaneous_insert_F", lambda forest, host, rule: star(forest, host, rule).scale(2)
    )
    rows = list(checks.adjointness_terms(P, max_edges=4))
    verdicts = [ok for _, row in rows for ok in row]
    assert verdicts and not any(verdicts)
    assert not all(ok for _, ok in checks.adjointness(P, RULE, checks.Bounds(max_edges=4)))


def test_valuations_agree_fails_on_a_miscounted_lift(monkeypatch):
    kernel = valuation.sample_kernel()
    assert checks.valuations_agree(Z32, kernel)
    lift = valuation.lift_P
    monkeypatch.setattr(valuation, "lift_P", lambda m: lift(m).scale(2))
    assert not checks.valuations_agree(Z32, kernel)


def test_valuations_agree_fails_on_a_perturbed_recursion(monkeypatch):
    kernel = valuation.sample_kernel()
    assert checks.valuations_agree(Z32, kernel)
    recursive = valuation.value_M_recursive
    monkeypatch.setattr(
        valuation, "value_M_recursive", lambda *args: recursive(*args) * (1 + 1e-6)
    )
    assert not checks.valuations_agree(Z32, kernel)


def test_valuations_agree_fails_on_a_recursion_off_by_one_part_in_a_trillion(monkeypatch):
    # A relative error of 1e-12 passed the old 1e-9 float tolerance; the
    # exact values must still tell it apart.
    kernel = valuation.sample_kernel()
    direct = valuation.value_M(Z32, kernel)
    assert checks.valuations_agree(Z32, kernel)
    recursive = valuation.value_M_recursive
    factor = Fraction(10**12 + 1, 10**12)
    monkeypatch.setattr(valuation, "value_M_recursive", lambda *args: recursive(*args) * factor)
    perturbed = valuation.value_M_recursive(Z32, kernel)
    assert abs(direct - perturbed) <= Fraction(1, 10**9) * abs(direct)
    assert not checks.valuations_agree(Z32, kernel)


def test_transport_composition_fails_without_the_convolution_cross_terms(monkeypatch):
    # At ell = -3/2 the reduced coproduct of z2 z3^2 has a divergent trunk,
    # so the convolution's cross terms g(forest) * f(trunk) show.
    p = DegreeParams(Fraction(-3, 2), 3)
    m = MultiIndex.parse("z2 z3^2")
    assert checks.transport_composition(p, RULE)(m)
    monkeypatch.setattr(
        renorm, "convolve", lambda f, g, *_: renorm.Character(lambda x: f(x) + g(x))
    )
    assert not checks.transport_composition(p, RULE)(m)


SWEEP_ELLS = (Fraction(-1), Fraction(-1, 2), Fraction(-3, 2), Fraction(-2))


def _composition_failures(ell: Fraction, rule) -> list[str]:
    composes = checks.transport_composition(DegreeParams(ell, 3), rule)
    return [str(m) for m in mi.iter_monomials_within(10, 4) if not composes(m)]


def test_transport_composition_holds_over_the_sweep():
    for ell in SWEEP_ELLS:
        for rule in (RULE, None):
            assert _composition_failures(ell, rule) == [], (ell, rule)


def test_transport_composition_sweep_fails_without_the_cross_terms(monkeypatch):
    monkeypatch.setattr(
        renorm, "convolve", lambda f, g, *_: renorm.Character(lambda x: f(x) + g(x))
    )
    for ell in (Fraction(-3, 2), Fraction(-2)):
        for rule in (RULE, None):
            assert _composition_failures(ell, rule), (ell, rule)


def test_transport_composition_tells_the_convolution_order(monkeypatch):
    # On z2 z4^2 at ell = -3/2, g * f - f * g is
    # 16 f[z2^2] g[z3^2] - 16 f[z3^2] g[z2^2], and only g * f composes.
    p = DegreeParams(Fraction(-3, 2), 3)
    m = MultiIndex.parse("z2 z4^2")
    f, g = checks._symbol_character("f"), checks._symbol_character("g")
    gap = renorm.convolve(g, f, p, RULE)(m) - renorm.convolve(f, g, p, RULE)(m)
    assert str(gap) == "16*f[z2^2]*g[z3^2] - 16*f[z3^2]*g[z2^2]"
    assert checks.transport_composition(p, RULE)(m)
    convolve = renorm.convolve
    monkeypatch.setattr(renorm, "convolve", lambda f, g, *rest: convolve(g, f, *rest))
    assert not checks.transport_composition(p, RULE)(m)


def test_verify_reports_a_planted_fault_and_exits_one(planted, capsys):
    planted("antipode_M", (Z32, P, RULE))
    rc = cli.main(["verify", "--suite", "hopf"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert "FAIL  antipode identity z3^2" in lines
    failures = sum(line.startswith("FAIL") for line in lines)
    assert lines[-1] == "{} checks, {} failures".format(len(lines) - 1, failures)
