"""Exact linear combinations over hashable basis keys.

Core claims:
    - construction merges duplicate keys and drops exact zeros
    - arithmetic (+, -, negation, scaling) is exact over Fraction
    - equality, hashing, and iteration order are deterministic
    - product and apply_linear behave bilinearly / linearly
    - forests are sorted multisets whose equality is type-strict, and
      multiplicative extends a map on parts to forests
    - the public API (bphz.__all__) is pinned, and every name the
      benchmark tracer (bench/spans.py) wraps or counts still resolves
    - JSON round-trips coefficients as numerator/denominator pairs
    - as_scalar returns an int for an integral value and a Fraction
      otherwise, and refuses floats; DegreeParams.ell and degree() stay
      Fractions
"""

import importlib.util
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import bphz
from bphz.feynman import DiagForest, Diagram, canonicalize
from bphz.lincomb import Forest, LinComb, apply_linear, as_scalar, multiplicative, product
from bphz.multiindex import DegreeParams, MIForest, MultiIndex, degree


def test_as_scalar_accepts_ints_strings_fractions():
    assert as_scalar(3) == Fraction(3)
    assert as_scalar("-1/2") == Fraction(-1, 2)
    assert as_scalar(Fraction(7, 3)) == Fraction(7, 3)


def test_as_scalar_is_an_int_when_integral_and_refuses_floats():
    assert type(as_scalar(Fraction(6, 3))) is int
    two = as_scalar("4/2")
    assert two == 2 and type(two) is int
    half = as_scalar("-3/2")
    assert half == Fraction(-3, 2) and type(half) is Fraction
    # a bool is coerced, so it never prints as True
    assert type(as_scalar(True)) is int and str(LinComb.single("a", True)) == "1*(a)"
    with pytest.raises(TypeError):
        as_scalar(0.5)
    with pytest.raises(TypeError):
        LinComb.single("a", 0.5)
    p = DegreeParams(-1, 3)
    assert type(p.ell) is Fraction
    assert type(degree(MultiIndex.parse("z4^3"), p)) is Fraction


def test_construction_merges_and_prunes():
    c = LinComb([("a", 2), ("b", 1), ("a", -2)])
    assert c.coeff("a") == 0
    assert c.coeff("b") == 1
    assert len(c) == 1
    assert list(c.keys()) == ["b"]


def test_zero_and_bool():
    assert not LinComb.zero()
    assert LinComb.single("x")
    assert LinComb.single("x") - LinComb.single("x") == LinComb.zero()


def test_arithmetic_is_exact():
    c = LinComb.single("a", Fraction(1, 3)) + LinComb.single("a", Fraction(1, 6))
    assert c.coeff("a") == Fraction(1, 2)
    assert (-c).coeff("a") == Fraction(-1, 2)
    assert c.scale(4).coeff("a") == 2


def test_items_sorted_by_key_text():
    c = LinComb([("b", 1), ("a", 1), ("c", 1)])
    assert [k for k, _ in c.items()] == ["a", "b", "c"]


def test_equality_and_hash():
    c1 = LinComb([("a", 1), ("b", 2)])
    c2 = LinComb([("b", 2), ("a", 1)])
    assert c1 == c2
    assert hash(c1) == hash(c2)
    assert c1 != LinComb.single("a")


def test_product_is_bilinear():
    c1 = LinComb([("a", 2), ("b", 1)])
    c2 = LinComb([("x", 3)])
    t = product(c1, c2)
    assert t.coeff(("a", "x")) == 6
    assert t.coeff(("b", "x")) == 3


def test_apply_linear_maps_keys_through():
    c = LinComb([("a", 1), ("b", 2)])
    image = apply_linear(lambda k: LinComb.single(k.upper(), 2), c)
    assert image == LinComb([("A", 2), ("B", 4)])


def test_to_json_and_str():
    c = LinComb.single("a", Fraction(-1, 2))
    assert c.to_json() == [{"key": "a", "num": -1, "den": 2}]
    assert str(LinComb.zero()) == "0"
    assert "a" in str(c)


def test_scale_by_zero_is_zero():
    assert LinComb.single("a", 5).scale(0) == LinComb.zero()


def test_rejects_bad_scalar():
    with pytest.raises((ValueError, TypeError, ZeroDivisionError)):
        LinComb.single("a", "not-a-number")


# -- forests and the multiplicative extension ---------------------------------

def test_forest_equality_is_type_strict():
    assert MIForest.empty() != DiagForest.empty()
    assert not MIForest.empty() == DiagForest.empty()
    assert MIForest.empty() == MIForest()
    z4 = MultiIndex.parse("z4")
    assert Forest.of(z4) != MIForest.of(z4)


def test_forest_is_a_sorted_multiset():
    z2, z4 = MultiIndex.parse("z2"), MultiIndex.parse("z4")
    f = MIForest.of(z4, z2, z4)
    assert f == MIForest.of(z4, z4, z2)
    assert hash(f) == hash(MIForest.of(z2, z4, z4))
    assert f.parts() == (z2, z4, z4)
    assert f.counts() == [(z2, 1), (z4, 2)]
    assert len(f) == 3 and not f.is_empty() and MIForest.empty().is_empty()
    assert MIForest.of(z2) < MIForest.of(z4)


def test_merge_and_add_keep_the_subclass():
    z4 = MultiIndex.parse("z4")
    merged = MIForest.of(z4).merge(MIForest.of(z4))
    assert type(merged) is MIForest and merged == MIForest.of(z4, z4)
    assert type(MIForest.empty().add(z4)) is MIForest
    triple = canonicalize(Diagram(2, [(0, 1)] * 3))
    assert type(DiagForest.empty().add(triple)) is DiagForest
    assert type(DiagForest.of(triple).merge(DiagForest.of(triple))) is DiagForest


def test_miforest_rejects_the_empty_monomial():
    with pytest.raises(ValueError):
        MIForest.of(MultiIndex.unit())
    with pytest.raises(ValueError):
        MIForest.empty().add(MultiIndex.unit())


def test_forest_str_and_repr():
    assert str(MIForest.empty()) == "1"
    f = MIForest.parse("z4^2 . z2")
    assert str(f) == "z2 . z4^2"
    assert repr(f) == "MIForest(z2 . z4^2)"
    assert repr(DiagForest.empty()) == "DiagForest(1)"
    triple = canonicalize(Diagram(2, [(0, 1)] * 3))
    assert str(DiagForest.of(triple, triple)) == "n=2; e=1-2,1-2,1-2 . n=2; e=1-2,1-2,1-2"


def test_multiplicative_on_the_empty_forest_is_the_unit():
    unit = LinComb.single(Forest.empty())
    calls = []
    out = multiplicative(calls.append, Forest.empty().parts(), unit, Forest.merge)
    assert out is unit and calls == []


def test_multiplicative_on_two_parts_multiplies_the_images():
    def fn(part):
        return LinComb([(Forest.of(part), 2), (Forest.of(part + "'"), -1)])

    unit = LinComb.single(Forest.empty())
    out = multiplicative(fn, Forest.of("a", "b").parts(), unit, Forest.merge)
    assert out == LinComb(
        [
            (Forest.of("a", "b"), 4),
            (Forest.of("a", "b'"), -2),
            (Forest.of("a'", "b"), -2),
            (Forest.of("a'", "b'"), 1),
        ]
    )


def test_public_api_is_pinned():
    assert bphz.__all__ == [
        "CanonDiagram",
        "Character",
        "DegreeParams",
        "DiagForest",
        "Diagram",
        "KernelSpec",
        "LinComb",
        "MIForest",
        "MultiIndex",
        "RenormOutput",
        "Rule",
        "SymbolicValue",
        "adjoint_phi_P_check",
        "antipode_F",
        "antipode_M",
        "apply_D",
        "as_scalar",
        "bphz_F",
        "bphz_M",
        "canonicalize",
        "character_inverse",
        "commuting_square_check",
        "convolve",
        "convolve_F",
        "coproduct_full",
        "coproduct_full_F",
        "coproduct_full_forest",
        "coproduct_reduced",
        "coproduct_reduced_F",
        "counterterms",
        "counting_map",
        "cumulant_series",
        "degree",
        "enumerate_pairings",
        "hat_sym_factor",
        "in_negative_part_F",
        "in_negative_part_M",
        "insert",
        "insert_F",
        "is_divergent",
        "is_populatable",
        "iter_connected_diagrams",
        "iter_monomials_within",
        "lift_P",
        "lift_P_forest",
        "moment_oracle",
        "morphism_insert_check",
        "morphism_star_check",
        "orbit_stabilizer_check",
        "phi4_couplings",
        "phi4_report",
        "pi_character_F",
        "pi_character_M",
        "renorm_map",
        "renorm_map_forest",
        "renorm_map_output",
        "resummation_check",
        "simultaneous_insert",
        "simultaneous_insert_F",
        "sym_factor",
        "sym_factor_forest",
        "sample_kernel",
        "upsilon",
        "value_F_numeric",
        "value_F_symbolic",
        "value_M",
        "value_M_recursive",
    ]


def test_the_only_module_level_dicts_are_the_suites_and_the_class_table():
    # Memoized maps use functools caches, which have cache_clear and sizes;
    # a new hand-written dict cache, at module or class level, fails here.
    found = set()
    for info in pkgutil.iter_modules(bphz.__path__):
        module = importlib.import_module("bphz." + info.name)
        owners = [(info.name, module)] + [
            ("{}.{}".format(info.name, name), value)
            for name, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
        for owner, namespace in owners:
            for name, value in vars(namespace).items():
                if isinstance(value, dict) and not name.startswith("__"):
                    found.add("{}.{}".format(owner, name))
    assert found == {"checks.SUITES", "feynman._canon_cache"}


def test_bench_tracer_names_resolve():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for short, functions in spans.SPANNED.items():
        module = importlib.import_module("bphz." + short)
        for name in functions:
            assert callable(getattr(module, name, None)), "bphz.{}.{}".format(short, name)
    for short, name in spans.COUNTED.items():
        module = importlib.import_module("bphz." + short)
        assert isinstance(getattr(module, name, None), type), "bphz.{}.{}".format(short, name)
