"""Batch command-line interface over every pipeline stage.

One command per process, results on stdout (aligned text, or stable JSON
with --json), diagnostics on stderr.  Exit codes: 0 ok, 1 verification
failure, 2 usage or syntax error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bridge, checks, feynman as fy, multiindex as mi, renorm, valuation
from .feynman import Diagram
from .lincomb import LinComb, Scalar, as_scalar
from .multiindex import DegreeParams, MIForest, MultiIndex, Rule
from .multiindex import ExpressionError  # noqa: F401  (importable from here too)


def parse_expression(text: str) -> MultiIndex | MIForest | Diagram:
    """Parse monomial, forest, or diagram text, sniffing by shape.

    'n=' starts a diagram, a '.' separates forest components, '1' is the
    empty forest, and anything else is a single monomial.  Syntax errors
    report the byte offset of the first offending character.
    """
    stripped = text.strip()
    if stripped.startswith("n="):
        return Diagram.parse(text)
    if stripped == "1" or "." in text:
        return MIForest.parse(text)
    return MultiIndex.parse(text)


def _count(text: str) -> int:
    """argparse type of the count and bound options: a non-negative int."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError("expected a non-negative integer, got {!r}".format(text))
    return value


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--ell", default="-1", help="kernel degree, a rational like -1 or -3/2")
    sp.add_argument("--dim", type=int, default=3, help="ambient dimension d")
    sp.add_argument("--rule", default="2,4", help="allowed arities, comma-separated")
    sp.add_argument("--json", action="store_true", help="emit JSON instead of text")


def _print(payload: dict, lines: list[str], args) -> None:
    if args.json:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(lines) + "\n")


def _frac_json(coef: Scalar) -> dict:
    return {"num": coef.numerator, "den": coef.denominator}


def _pair_terms(comb: LinComb) -> tuple[list[dict], list[str]]:
    """Render a combination over (left, right) tensor keys."""
    rows = []
    lines = []
    for (left, right), coef in comb.items():
        rows.append({"left": str(left), "right": str(right), **_frac_json(coef)})
        lines.append("{:>12}  [{}] (x) [{}]".format(str(coef), left, right))
    if not lines:
        lines = ["0"]
    return rows, lines


def _comb_terms(comb: LinComb) -> tuple[list[dict], list[str]]:
    lines = ["{:>12}  {}".format(str(coef), key) for key, coef in comb.items()] or ["0"]
    return comb.to_json(), lines


def _output_terms(out: renorm.RenormOutput) -> tuple[list[dict], list[str]]:
    rows = out.to_json()
    lines = ["({})  [{}]".format(v, k) for k, v in out.items()] or ["0"]
    return rows, lines


def _cmd_coproduct(args) -> int:
    value = parse_expression(args.expr)
    p = args.params
    if isinstance(value, Diagram):
        comb = (
            fy.coproduct_full_F(value, p) if args.full else fy.coproduct_reduced_F(value, p)
        )
    elif isinstance(value, MultiIndex):
        comb = (
            mi.coproduct_full(value, p, args.rule)
            if args.full
            else mi.coproduct_reduced(value, p, args.rule)
        )
    else:
        raise ValueError("coproduct expects a monomial or a diagram")
    rows, lines = _pair_terms(comb)
    _print({"command": "coproduct", "input": str(value), "terms": rows}, lines, args)
    return 0


def _cmd_antipode(args) -> int:
    value = parse_expression(args.expr)
    p = args.params
    if isinstance(value, Diagram):
        comb = renorm.antipode_F(value, p)
    elif isinstance(value, MultiIndex):
        comb = renorm.antipode_M(value, p, args.rule)
    else:
        raise ValueError("antipode expects a monomial or a diagram")
    rows, lines = _comb_terms(comb)
    _print({"command": "antipode", "input": str(value), "terms": rows}, lines, args)
    return 0


def _cmd_bphz(args) -> int:
    value = parse_expression(args.expr)
    p = args.params
    if isinstance(value, Diagram):
        out = renorm.bphz_F(value, valuation.pi_character_F(), p)
    elif isinstance(value, MultiIndex):
        out = renorm.bphz_M(value, valuation.pi_character_M(), p, args.rule)
    else:
        raise ValueError("bphz expects a monomial or a diagram")
    rows, lines = _output_terms(out)
    _print({"command": "bphz", "input": str(value), "terms": rows}, lines, args)
    return 0


def _cmd_insert(args) -> int:
    piece = parse_expression(args.expr)
    host = parse_expression(args.into)
    if isinstance(piece, Diagram) and isinstance(host, Diagram):
        comb = fy.insert_F(piece, host, args.rule)
    elif isinstance(piece, MultiIndex) and isinstance(host, MultiIndex):
        comb = mi.insert(piece, host, args.rule)
    elif isinstance(piece, MIForest) and isinstance(host, MultiIndex):
        comb = mi.simultaneous_insert(piece, host, args.rule)
    else:
        raise ValueError("insert expects two monomials, a forest and a monomial, or two diagrams")
    rows, lines = _comb_terms(comb)
    _print(
        {"command": "insert", "piece": str(piece), "into": str(host), "terms": rows},
        lines,
        args,
    )
    return 0


def _cmd_lift(args) -> int:
    value = parse_expression(args.expr)
    if isinstance(value, MultiIndex):
        comb = bridge.lift_P(value)
    elif isinstance(value, MIForest):
        comb = bridge.lift_P_forest(value)
    else:
        raise ValueError("lift expects a monomial or a forest")
    rows, lines = _comb_terms(comb)
    _print({"command": "lift", "input": str(value), "terms": rows}, lines, args)
    return 0


def _cmd_degree(args) -> int:
    value = parse_expression(args.expr)
    p = args.params
    if isinstance(value, Diagram):
        deg = fy.degree(value, p)
    elif isinstance(value, MultiIndex):
        deg = mi.degree(value, p)
    else:
        deg = sum((mi.degree(part, p) for part in value.parts()), Fraction(0))
    _print(
        {"command": "degree", "input": str(value), "degree": str(deg)},
        [str(deg)],
        args,
    )
    return 0


def _cmd_pairings(args) -> int:
    value = parse_expression(args.expr)
    if not isinstance(value, MultiIndex):
        raise ValueError("pairings expects a monomial")
    outcome = bridge.enumerate_pairings(
        value, connected_only=not args.all, free_legs=args.free
    )
    items = sorted(outcome.items(), key=lambda kv: str(kv[0]))
    rows = [{"key": str(k), "count": v} for k, v in items]
    lines = ["{:>10}  {}".format(v, k) for k, v in items]
    lines.append("{:>10}  total".format(outcome.total()))
    _print(
        {
            "command": "pairings",
            "input": str(value),
            "connected_only": not args.all,
            "free_legs": args.free,
            "total": outcome.total(),
            "classes": rows,
        },
        lines,
        args,
    )
    return 0


def _cmd_counterterms(args) -> int:
    p, rule = args.params, args.rule
    gamma = valuation.counterterms(
        valuation.phi4_couplings(), p, rule, max_half_edges=args.trunc
    )
    lines = ["gamma_{} = {}".format(k, v) for k, v in sorted(gamma.items())]
    _print(
        {
            "command": "counterterms",
            "trunc": args.trunc,
            "gamma": {str(k): str(v) for k, v in sorted(gamma.items())},
        },
        lines,
        args,
    )
    return 0


def _cmd_phi4(args) -> int:
    p, rule = args.params, args.rule
    report = valuation.phi4_report(p, rule, max_n=args.max_n, trunc=args.trunc)
    lines = [
        "params: ell={} d={} rule={}".format(
            report["params"]["ell"], report["params"]["d"], report["params"]["rule"]
        ),
        "coproduct closed form: "
        + "  ".join(
            "n={} {}".format(row["n"], "ok" if row["closed_form_ok"] else "FAIL")
            for row in report["coproduct"]
        ),
    ]
    for row in report["antipode"]:
        lines.append("antipode z4^{}: {}".format(row["n"], row["antipode"]))
    lines.append(
        "bphz closed form: "
        + "  ".join(
            "n={} {}".format(row["n"], "ok" if row["closed_form_ok"] else "FAIL")
            for row in report["bphz"]
        )
    )
    for k, v in sorted(report["counterterms"].items()):
        lines.append("gamma_{} = {}".format(k, v))
    lines.append(
        "resummation to order {}: {}".format(
            report["resummation_order"],
            "ok" if report["resummation_ok"] else "FAIL",
        )
    )
    _print(report, lines, args)
    ok = (
        all(row["closed_form_ok"] for row in report["coproduct"])
        and all(row["closed_form_ok"] for row in report["bphz"])
        and report["resummation_ok"]
    )
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    p, rule = args.params, args.rule
    bounds = checks.Bounds(args.max_edges, args.max_he, args.max_verts)
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    rows = []
    total = failures = 0
    for name in names:
        for label, ok in checks.SUITES[name](p, rule, bounds):
            total += 1
            failures += not ok
            if args.json:
                rows.append({"label": label, "ok": bool(ok)})
            else:
                sys.stdout.write("{}  {}\n".format("ok  " if ok else "FAIL", label))
    payload = {
        "command": "verify",
        "suite": args.suite,
        "checks": rows,
        "total": total,
        "failures": failures,
    }
    _print(payload, ["{} checks, {} failures".format(total, failures)], args)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bphz",
        description="Exact extraction-contraction renormalisation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("coproduct", help="reduced (or full) coproduct of an expression")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--full", action="store_true", help="include the primitive terms")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_coproduct)

    sp = sub.add_parser("antipode", help="recursive antipode of an expression")
    sp.add_argument("--expr", required=True)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_antipode)

    sp = sub.add_parser("bphz", help="twisted-antipode subtraction of an expression")
    sp.add_argument("--expr", required=True)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_bphz)

    sp = sub.add_parser("insert", help="insert one expression into another")
    sp.add_argument("--expr", required=True, help="the inserted piece")
    sp.add_argument("--into", required=True, help="the host expression")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_insert)

    sp = sub.add_parser("lift", help="lift a monomial or forest to diagrams")
    sp.add_argument("--expr", required=True)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_lift)

    sp = sub.add_parser("degree", help="degree of an expression")
    sp.add_argument("--expr", required=True)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_degree)

    sp = sub.add_parser("pairings", help="labeled pairing census of a monomial")
    sp.add_argument("--expr", required=True)
    sp.add_argument("--free", type=_count, default=0, help="number of free legs")
    sp.add_argument("--all", action="store_true", help="include disconnected pairings")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_pairings)

    sp = sub.add_parser("verify", help="run a property suite; exit 1 on failure")
    sp.add_argument("--suite", required=True, choices=sorted(checks.SUITES) + ["all"])
    sp.add_argument(
        "--max-edges",
        type=_count,
        default=checks.Bounds.max_edges,
        help="edge bound of orbit-stabilizer and adjointness",
    )
    sp.add_argument(
        "--max-he",
        type=_count,
        default=checks.Bounds.max_he,
        help="half-edge bound of square; valuation's half-edge and vertex bound",
    )
    sp.add_argument(
        "--max-verts",
        type=_count,
        default=checks.Bounds.max_verts,
        help="vertex bound of square (morphism and hopf use fixed ranges)",
    )
    _add_common(sp)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("counterterms", help="renormalised-measure counterterm table")
    sp.add_argument("--trunc", type=_count, default=12, help="half-edge truncation")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_counterterms)

    sp = sub.add_parser("phi4", help="the quartic running example end to end")
    sp.add_argument("--max-n", type=_count, default=6)
    sp.add_argument("--trunc", type=_count, default=12, help="half-edge truncation")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_phi4)

    args = parser.parse_args(argv)
    try:
        # every command takes the common options; a bad one is a usage
        # error even where the command does not read it
        args.params = DegreeParams(as_scalar(args.ell), args.dim)
        args.rule = Rule.parse(args.rule)
        return args.fn(args)
    except (ValueError, ZeroDivisionError) as exc:
        sys.stderr.write("error: {}\n".format(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
