"""End-to-end checks of the command-line surface.

Each test drives ``cli.main`` in process and freezes the observable
contract: exit codes, JSON payload shape and byte stability, aligned-text
rendering, and byte offsets in syntax diagnostics.  The numeric content
of every golden here is established independently in the unit suites;
these tests pin how the CLI serializes it.
"""

import hashlib
import json

import pytest
from conftest import memoized_maps

from bphz import cli, feynman


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert err == ""
    return rc, json.loads(out)


def test_coproduct_reduced_json_golden(capsys):
    rc, payload = run_json(capsys, "coproduct", "--expr", "z4^2", "--json")
    assert rc == 0
    assert payload == {
        "command": "coproduct",
        "input": "z4^2",
        "terms": [{"den": 1, "left": "z3^2", "num": 16, "right": "z2"}],
    }


def test_coproduct_full_adds_primitive_terms(capsys):
    rc, payload = run_json(capsys, "coproduct", "--expr", "z4^2", "--full", "--json")
    assert rc == 0
    assert payload["terms"] == [
        {"den": 1, "left": "1", "num": 1, "right": "z4^2"},
        {"den": 1, "left": "z3^2", "num": 16, "right": "z2"},
        {"den": 1, "left": "z4^2", "num": 1, "right": "1"},
    ]


def test_coproduct_text_rendering(capsys):
    rc, out, err = run(capsys, "coproduct", "--expr", "z4^2")
    assert rc == 0
    assert out == "          16  [z3^2] (x) [z2]\n"
    rc, out, err = run(capsys, "coproduct", "--expr", "z3^2")
    assert rc == 0
    assert out == "0\n"


def test_json_output_is_byte_stable(capsys):
    rc1, out1, _ = run(capsys, "bphz", "--expr", "z4^3", "--json")
    rc2, out2, _ = run(capsys, "bphz", "--expr", "z4^3", "--json")
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1 == json.dumps(json.loads(out1), sort_keys=True, indent=2) + "\n"


def test_antipode_diagram_json_golden(capsys):
    rc, payload = run_json(
        capsys, "antipode", "--expr", "n=3; e=1-2,1-3,2-3,2-3,2-3", "--json"
    )
    assert rc == 0
    assert payload["terms"] == [
        {"den": 1, "key": "n=2; e=1-2,1-2 . n=2; e=1-2,1-2,1-2", "num": 1},
        {"den": 1, "key": "n=3; e=1-2,1-3,2-3,2-3,2-3", "num": -1},
    ]


def test_antipode_monomial_json_golden(capsys):
    rc, payload = run_json(capsys, "antipode", "--expr", "z4^3", "--json")
    assert rc == 0
    assert payload["terms"] == [{"den": 1, "key": "z4^3", "num": -1}]


def test_bphz_json_golden(capsys):
    rc, payload = run_json(capsys, "bphz", "--expr", "z4^2", "--json")
    assert rc == 0
    assert payload["terms"] == [
        {"basis": "1", "coefficient": "-24*Pi[n=2; e=1-2,1-2,1-2,1-2]"},
        {"basis": "z4^2", "coefficient": "1"},
    ]


def test_insert_diagram_into_diagram(capsys):
    rc, payload = run_json(
        capsys,
        "insert",
        "--expr",
        "n=2; e=1-2,1-2,1-2",
        "--into",
        "n=2; e=1-2,1-2",
        "--json",
    )
    assert rc == 0
    assert payload["terms"] == [
        {"den": 1, "key": "n=3; e=1-2,1-3,2-3,2-3,2-3", "num": 4}
    ]


def test_insert_monomial_into_monomial(capsys):
    rc, payload = run_json(
        capsys, "insert", "--expr", "z3^2", "--into", "z2^2", "--json"
    )
    assert rc == 0
    assert payload["terms"] == [{"den": 1, "key": "z2 z4^2", "num": 4}]


def test_lift_golden(capsys):
    rc, payload = run_json(capsys, "lift", "--expr", "z2 z4^2", "--json")
    assert rc == 0
    assert payload["terms"] == [
        {"den": 1, "key": "n=3; e=1-2,1-3,2-3,2-3,2-3", "num": 192}
    ]


def test_lift_z4_7_is_pinned(capsys):
    """The 50 classes of z4^7, as the labeled census printed them."""
    rc, out, err = run(capsys, "lift", "--expr", "z4^7", "--json")
    assert rc == 0 and err == ""
    digest = "095688d3f15569064773d40c92c5ce5626bd6b19fbcc3143cff30be6d0c12f92"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_lift_z4_8_lists_its_classes(capsys):
    rc, payload = run_json(capsys, "lift", "--expr", "z4^8", "--json")
    assert rc == 0
    assert len(payload["terms"]) == 204


def test_degree_respects_parameters(capsys):
    rc, out, _ = run(capsys, "degree", "--expr", "z4^2")
    assert rc == 0 and out == "-1\n"
    rc, out, _ = run(capsys, "degree", "--expr", "z4^2", "--ell=-3/2")
    assert rc == 0 and out == "-3\n"
    rc, payload = run_json(capsys, "degree", "--expr", "z2 . z3^2", "--json")
    assert rc == 0
    assert payload["degree"] == "-1"


def test_pairings_disconnected_census(capsys):
    rc, payload = run_json(capsys, "pairings", "--expr", "z1^4", "--all", "--json")
    assert rc == 0
    assert payload["connected_only"] is False
    assert payload["total"] == 3
    assert payload["classes"] == [{"count": 3, "key": "n=2; e=1-2 . n=2; e=1-2"}]
    rc, payload = run_json(capsys, "pairings", "--expr", "z1^4", "--json")
    assert rc == 0
    assert payload["total"] == 0
    assert payload["classes"] == []


def test_pairings_with_free_legs(capsys):
    rc, payload = run_json(
        capsys, "pairings", "--expr", "z3^2", "--free", "2", "--json"
    )
    assert rc == 0
    assert payload["total"] == 18
    assert payload["classes"] == [{"count": 18, "key": "n=2; e=1-2,1-2; l=1,1"}]


def test_pairings_with_several_classes_json_golden(capsys):
    rc, payload = run_json(
        capsys, "pairings", "--expr", "z4^3", "--free", "4", "--json"
    )
    assert rc == 0
    assert payload["total"] == 15264
    assert payload["classes"] == [
        {"count": 10368, "key": "n=3; e=1-2,1-3,2-3,2-3; l=2,1,1"},
        {"count": 2592, "key": "n=3; e=1-3,1-3,2-3,2-3; l=2,2,0"},
        {"count": 2304, "key": "n=3; e=1-3,2-3,2-3,2-3; l=3,1,0"},
    ]
    rc, payload = run_json(capsys, "pairings", "--expr", "z1^2 z2^2", "--all", "--json")
    assert rc == 0
    assert payload["total"] == 10
    assert payload["classes"] == [
        {"count": 2, "key": "n=2; e=1-2 . n=2; e=1-2,1-2"},
        {"count": 8, "key": "n=4; e=1-3,2-4,3-4"},
    ]


def test_pairings_with_several_classes_text_golden(capsys):
    rc, out, err = run(capsys, "pairings", "--expr", "z4^3", "--free", "4")
    assert rc == 0 and err == ""
    assert out == (
        "     10368  n=3; e=1-2,1-3,2-3,2-3; l=2,1,1\n"
        "      2592  n=3; e=1-3,1-3,2-3,2-3; l=2,2,0\n"
        "      2304  n=3; e=1-3,2-3,2-3,2-3; l=3,1,0\n"
        "     15264  total\n"
    )


def test_counterterms_table(capsys):
    rc, payload = run_json(capsys, "counterterms", "--json")
    assert rc == 0
    assert payload["trunc"] == 12
    assert payload["gamma"] == {
        "0": "12*Pi[n=2; e=1-2,1-2,1-2,1-2]*alpha^2"
        " - 288*Pi[n=3; e=1-2,1-2,1-3,1-3,2-3,2-3]*alpha^3",
        "2": "48*Pi[n=2; e=1-2,1-2,1-2]*alpha^2",
        "4": "0",
    }


def test_verify_suite_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "orbit-stabilizer", "--max-edges", "4")
    assert rc == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("ok  ") for line in lines[:-1])
    assert lines[-1].endswith("checks, 0 failures")


def test_verify_json_lists_every_check(capsys):
    argv = ("verify", "--suite", "orbit-stabilizer", "--max-edges", "4")
    _, text, _ = run(capsys, *argv)
    ok_lines = [line for line in text.splitlines() if line.startswith("ok  ")]
    rc, payload = run_json(capsys, *argv, "--json")
    assert rc == 0
    assert payload["command"] == "verify"
    assert payload["suite"] == "orbit-stabilizer"
    assert payload["total"] == len(ok_lines) == len(payload["checks"])
    assert payload["failures"] == 0
    assert [check["label"] for check in payload["checks"]] == [line[4:].strip() for line in ok_lines]
    assert all(check["ok"] is True for check in payload["checks"])


@pytest.mark.parametrize(
    "flag,digest",
    [
        ((), "f71c456646c05a5977f061fab8c266e3a954820c59997e15777c6a906d19965b"),
        (("--json",), "78793abdbe99c2d3cfe5847ab76cabc974210d063e619ce0f93905b397adec16"),
    ],
)
def test_verify_all_output_is_pinned(capsys, flag, digest):
    """Every label, its order and the summary of the full sign-off run."""
    rc, out, err = run(capsys, "verify", "--suite", "all", *flag)
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_outputs_survive_clearing_every_cache(capsys):
    # The orbit-stabilizer and valuation suites share the census memo, so
    # each must print the same whichever of them fills it first.
    shared = (("verify", "--suite", "orbit-stabilizer"), ("verify", "--suite", "valuation"))
    argvs = (("verify", "--suite", "hopf"), ("phi4", "--json")) + shared
    first = {argv: run(capsys, *argv) for argv in argvs}
    maps = memoized_maps()
    assert {fn.__name__ for fn in maps} >= {
        "antipode_M",
        "_antipode_F",
        "_lattice_sum",
        "_D_power",
        "_census",
        "_connected_value",
        "_coproduct_reduced_F",
        "_simultaneous_insert_F",
        "_connected_classes",
    }
    for order in (argvs, shared[::-1]):
        for fn in maps:
            fn.cache_clear()
        feynman._canon_cache.clear()
        assert all(fn.cache_info().currsize == 0 for fn in maps)
        assert {argv: run(capsys, *argv) for argv in order} == {argv: first[argv] for argv in order}


def test_phi4_report(capsys):
    rc, out, _ = run(capsys, "phi4", "--max-n", "4")
    assert rc == 0
    assert "gamma_2 = 48*Pi[n=2; e=1-2,1-2,1-2]*alpha^2" in out
    assert "resummation to order 8: ok" in out


@pytest.mark.parametrize(
    "expr,message",
    [
        ("z4^^2", "syntax error at byte 2: expected token like z4 or z4^2"),
        ("n=2; e=1-2,,1-2", "syntax error at byte 11: expected an edge endpoint"),
        ("q", "syntax error at byte 0: expected token like z4 or z4^2"),
        ("n=2 ; e=1-2,1-2,1-2", "syntax error at byte 3: expected ';' after the vertex count"),
        ("z3z3", "syntax error at byte 2: expected whitespace between tokens"),
        ("z4^0", "syntax error at byte 3: expected a positive multiplicity"),
    ],
)
def test_syntax_errors_report_byte_offsets(capsys, expr, message):
    rc, out, err = run(capsys, "coproduct", "--expr", expr)
    assert rc == 2
    assert out == ""
    assert err == "error: {}\n".format(message)


def test_type_mismatches_exit_two(capsys):
    rc, _, err = run(capsys, "bphz", "--expr", "z2 . z4^2")
    assert rc == 2
    assert "bphz expects a monomial or a diagram" in err
    rc, _, err = run(capsys, "insert", "--expr", "n=2; e=1-2", "--into", "z4^2")
    assert rc == 2
    assert "insert expects" in err


BRIDGE = "n=3; e=1-2,1-3,2-3,2-3,2-3"


def test_coproduct_of_a_diagram(capsys):
    rc, out, err = run(capsys, "coproduct", "--expr", BRIDGE)
    assert rc == 0 and err == ""
    assert out == "           1  [n=2; e=1-2,1-2,1-2] (x) [n=2; e=1-2,1-2]\n"
    rc, payload = run_json(capsys, "coproduct", "--expr", BRIDGE, "--full", "--json")
    assert rc == 0
    assert payload == {
        "command": "coproduct",
        "input": BRIDGE,
        "terms": [
            {"den": 1, "left": "1", "num": 1, "right": BRIDGE},
            {"den": 1, "left": "n=2; e=1-2,1-2,1-2", "num": 1, "right": "n=2; e=1-2,1-2"},
            {"den": 1, "left": BRIDGE, "num": 1, "right": "1"},
        ],
    }


def test_bphz_and_degree_of_a_diagram(capsys):
    rc, out, err = run(capsys, "bphz", "--expr", BRIDGE)
    assert rc == 0 and err == ""
    assert out == "(-Pi[n=2; e=1-2,1-2,1-2])  [n=2; e=1-2,1-2]\n(1)  [{}]\n".format(BRIDGE)
    rc, payload = run_json(capsys, "bphz", "--expr", BRIDGE, "--json")
    assert rc == 0
    assert payload["terms"] == [
        {"basis": "n=2; e=1-2,1-2", "coefficient": "-Pi[n=2; e=1-2,1-2,1-2]"},
        {"basis": BRIDGE, "coefficient": "1"},
    ]
    rc, out, _ = run(capsys, "degree", "--expr", BRIDGE)
    assert rc == 0 and out == "1\n"
    rc, out, _ = run(capsys, "degree", "--expr", BRIDGE, "--ell=-3/2")
    assert rc == 0 and out == "-3/2\n"


def test_lift_of_a_forest(capsys):
    rc, payload = run_json(capsys, "lift", "--expr", "z3^2 . z3^2", "--json")
    assert rc == 0
    assert payload["terms"] == [
        {"den": 1, "key": "n=2; e=1-2,1-2,1-2 . n=2; e=1-2,1-2,1-2", "num": 36}
    ]


def test_insert_forest_into_monomial(capsys):
    rc, payload = run_json(
        capsys, "insert", "--expr", "z3^2 . z3^2", "--into", "z2^2", "--json"
    )
    assert rc == 0
    assert payload["piece"] == "z3^2 . z3^2"
    assert payload["terms"] == [{"den": 1, "key": "z4^4", "num": 8}]


@pytest.mark.parametrize(
    "command,expr,message",
    [
        ("coproduct", "z2 . z4^2", "coproduct expects a monomial or a diagram"),
        ("antipode", "z2 . z4^2", "antipode expects a monomial or a diagram"),
        ("lift", BRIDGE, "lift expects a monomial or a forest"),
        ("pairings", BRIDGE, "pairings expects a monomial"),
        ("pairings", "z3^2 . z3^2", "pairings expects a monomial"),
    ],
)
def test_each_command_refuses_the_wrong_type(capsys, command, expr, message):
    rc, out, err = run(capsys, command, "--expr", expr)
    assert rc == 2
    assert out == ""
    assert err == "error: {}\n".format(message)


def test_bad_rule_exits_two(capsys):
    rc, _, err = run(capsys, "antipode", "--expr", "z4^2", "--rule", "2,x")
    assert rc == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("lift", "--expr", "z4", "--rule", "x"),
        ("pairings", "--expr", "z4", "--ell=5"),
        ("degree", "--expr", "n=2; e=1-2", "--rule", ","),
        ("coproduct", "--expr", "n=2; e=1-2", "--rule", "0"),
    ],
    ids=["lift-rule", "pairings-ell", "degree-rule", "coproduct-diagram-rule"],
)
def test_bad_common_option_exits_two_where_unread(capsys, argv):
    """Every command checks --ell, --dim and --rule, including those that
    do not use them for the given input."""
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("pairings", "--expr", "z4^2", "--free", "-1"),
        ("counterterms", "--trunc", "-5"),
        ("phi4", "--trunc", "-1"),
        ("phi4", "--max-n", "-1"),
        ("verify", "--suite", "orbit-stabilizer", "--max-edges", "-1"),
        ("verify", "--suite", "square", "--max-he", "-1"),
        ("verify", "--suite", "square", "--max-verts", "-1"),
    ],
)
def test_negative_count_exits_two(capsys, argv):
    """The count and bound options take non-negative integers only."""
    with pytest.raises(SystemExit) as exit_info:
        cli.main(list(argv))
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.out == ""
    assert "error: argument {}: expected a non-negative integer".format(argv[-2]) in captured.err
