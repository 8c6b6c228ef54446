"""Batch command-line interface over every pipeline stage.

One command per process, results on stdout (aligned text, or stable JSON
with --json), diagnostics on stderr.  Exit codes: 0 ok, 1 verification
failure, 2 usage or syntax error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import bridge, feynman as fy, multiindex as mi, renorm, valuation
from .feynman import DiagForest, Diagram
from .lincomb import LinComb, as_scalar
from .multiindex import DegreeParams, MIForest, MultiIndex, Rule
from .symvalue import SymbolicValue


class ExpressionError(ValueError):
    """Syntax error carrying the byte offset of the offending input."""

    def __init__(self, offset: int, reason: str):
        self.offset = offset
        self.reason = reason
        super().__init__("syntax error at byte {}: {}".format(offset, reason))


_MONO_TOKEN = re.compile(r"z\d+(\^\d+)?")
_INT = re.compile(r"\d+")


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _scan_monomial(text: str, start: int, end: int) -> None:
    pos = _skip_ws(text, start)
    if pos >= end:
        raise ExpressionError(pos, "expected a monomial")
    while pos < end:
        match = _MONO_TOKEN.match(text, pos)
        if not match or match.end() > end:
            raise ExpressionError(pos, "expected token like z4 or z4^2")
        pos = _skip_ws(text, match.end())


def _scan_diagram(text: str) -> None:
    pos = _skip_ws(text, 0)
    if not text.startswith("n=", pos):
        raise ExpressionError(pos, "expected 'n='")
    pos += 2
    match = _INT.match(text, pos)
    if not match:
        raise ExpressionError(pos, "expected a vertex count")
    pos = _skip_ws(text, match.end())
    if pos >= len(text) or text[pos] != ";":
        raise ExpressionError(pos, "expected ';' after the vertex count")
    pos = _skip_ws(text, pos + 1)
    if not text.startswith("e=", pos):
        raise ExpressionError(pos, "expected 'e='")
    pos += 2
    while True:
        pos = _skip_ws(text, pos)
        match = _INT.match(text, pos)
        if not match:
            raise ExpressionError(pos, "expected an edge endpoint")
        pos = match.end()
        if pos >= len(text) or text[pos] != "-":
            raise ExpressionError(pos, "expected '-' between endpoints")
        match = _INT.match(text, pos + 1)
        if not match:
            raise ExpressionError(pos + 1, "expected an edge endpoint")
        pos = _skip_ws(text, match.end())
        if pos >= len(text):
            return
        if text[pos] != ",":
            raise ExpressionError(pos, "expected ',' between edges")
        pos += 1


def parse_expression(text: str) -> MultiIndex | MIForest | Diagram:
    """Parse monomial, forest, or diagram text, sniffing by shape.

    'n=' starts a diagram, a '.' separates forest components, '1' is the
    empty forest, and anything else is a single monomial.  Syntax errors
    report the byte offset of the first offending character.
    """
    stripped = text.strip()
    if stripped.startswith("n="):
        _scan_diagram(text)
        return Diagram.parse(text)
    if stripped == "1":
        return MIForest.empty()
    if "." in text:
        pos = 0
        for chunk in text.split("."):
            _scan_monomial(text, pos, pos + len(chunk))
            pos += len(chunk) + 1
        return MIForest.parse(text)
    _scan_monomial(text, 0, len(text))
    return MultiIndex.parse(text)


def _params(args) -> DegreeParams:
    return DegreeParams(as_scalar(args.ell), args.dim)


def _rule(args) -> Rule:
    return Rule.parse(args.rule)


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


def _frac_json(coef: Fraction) -> dict:
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
    rows = []
    lines = []
    for key, coef in comb.items():
        rows.append({"key": str(key), **_frac_json(coef)})
        lines.append("{:>12}  {}".format(str(coef), key))
    if not lines:
        lines = ["0"]
    return rows, lines


def _output_terms(out: renorm.RenormOutput) -> tuple[list[dict], list[str]]:
    rows = out.to_json()
    lines = ["({})  [{}]".format(v, k) for k, v in out.items()] or ["0"]
    return rows, lines


def _cmd_coproduct(args) -> int:
    value = parse_expression(args.expr)
    p = _params(args)
    if isinstance(value, Diagram):
        comb = (
            fy.coproduct_full_F(value, p) if args.full else fy.coproduct_reduced_F(value, p)
        )
    elif isinstance(value, MultiIndex):
        rule = _rule(args)
        comb = (
            mi.coproduct_full(value, p, rule)
            if args.full
            else mi.coproduct_reduced(value, p, rule)
        )
    else:
        raise ValueError("coproduct expects a monomial or a diagram")
    rows, lines = _pair_terms(comb)
    _print({"command": "coproduct", "input": str(value), "terms": rows}, lines, args)
    return 0


def _cmd_antipode(args) -> int:
    value = parse_expression(args.expr)
    p = _params(args)
    if isinstance(value, Diagram):
        comb = renorm.antipode_F(value, p)
    elif isinstance(value, MultiIndex):
        comb = renorm.antipode_M(value, p, _rule(args))
    else:
        raise ValueError("antipode expects a monomial or a diagram")
    rows, lines = _comb_terms(comb)
    _print({"command": "antipode", "input": str(value), "terms": rows}, lines, args)
    return 0


def _cmd_bphz(args) -> int:
    value = parse_expression(args.expr)
    p = _params(args)
    if isinstance(value, Diagram):
        out = renorm.bphz_F(value, valuation.pi_character_F(), p)
    elif isinstance(value, MultiIndex):
        out = renorm.bphz_M(value, valuation.pi_character_M(), p, _rule(args))
    else:
        raise ValueError("bphz expects a monomial or a diagram")
    rows, lines = _output_terms(out)
    _print({"command": "bphz", "input": str(value), "terms": rows}, lines, args)
    return 0


def _cmd_insert(args) -> int:
    piece = parse_expression(args.expr)
    host = parse_expression(args.into)
    rule = _rule(args)
    if isinstance(piece, Diagram) and isinstance(host, Diagram):
        comb = fy.insert_F(piece, host, rule)
    elif isinstance(piece, MultiIndex) and isinstance(host, MultiIndex):
        comb = mi.insert(piece, host, rule)
    elif isinstance(piece, MIForest) and isinstance(host, MultiIndex):
        comb = mi.simultaneous_insert(piece, host, rule)
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
    p = _params(args)
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
    items = sorted(outcome.counts.items(), key=lambda kv: str(kv[0]))
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
    p = _params(args)
    rule = _rule(args)
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
    p = _params(args)
    rule = _rule(args)
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


def _suite_orbit_stabilizer(args, p: DegreeParams, rule: Rule):
    for canon in fy.iter_connected_diagrams(args.max_edges):
        yield (
            "orbit-stabilizer {}".format(canon.key),
            bridge.orbit_stabilizer_check(canon.diagram),
        )


def _adjoint_inner_check(
    comb: LinComb,
    forest: DiagForest,
    trunk,
    gamma,
    star: LinComb,
) -> bool:
    lhs = comb.coeff((forest, trunk)) * forest.sym_factor() * trunk.aut_order
    rhs = star.coeff(gamma) * gamma.aut_order
    return lhs == rhs


def _suite_adjointness(args, p: DegreeParams, rule: Rule):
    diagrams = list(fy.iter_connected_diagrams(args.max_edges))
    star_cache: dict = {}

    def star_of(forest: DiagForest, trunk) -> LinComb:
        key = (forest, trunk)
        if key not in star_cache:
            star_cache[key] = fy.simultaneous_insert_F(forest, trunk.diagram, None)
        return star_cache[key]

    for gamma in diagrams:
        comb = fy.coproduct_reduced_F(gamma.diagram, p)
        ok = all(
            _adjoint_inner_check(comb, forest, trunk, gamma, star_of(forest, trunk))
            for (forest, trunk), _ in comb.items()
        )
        yield ("adjointness from coproduct {}".format(gamma.key), ok)

    small = [c for c in diagrams if c.diagram.edge_count() <= 3]
    divergent_small = [c for c in small if fy.is_divergent(c.diagram, p)]
    forests = [DiagForest.of(c) for c in divergent_small]
    forests += [
        DiagForest.of(a, b)
        for i, a in enumerate(divergent_small)
        for b in divergent_small[i:]
    ]
    hosts = [c for c in diagrams if c.diagram.edge_count() <= 3]
    for forest in forests:
        for host in hosts:
            star = star_of(forest, host)
            comb_cache: dict = {}
            ok = True
            for gamma, _ in star.items():
                if gamma.diagram.edge_count() > args.max_edges:
                    continue
                if gamma not in comb_cache:
                    comb_cache[gamma] = fy.coproduct_reduced_F(gamma.diagram, p)
                if not _adjoint_inner_check(
                    comb_cache[gamma], forest, host, gamma, star
                ):
                    ok = False
            yield ("adjointness from star [{}] into {}".format(forest, host.key), ok)


def _suite_square(args, p: DegreeParams, rule: Rule):
    for m in mi.iter_monomials_within(args.max_he, args.max_verts):
        if not mi.is_populatable(m):
            continue
        yield (
            "commuting square {}".format(m),
            bridge.commuting_square_check(m, p, rule),
        )


def _suite_morphism(args, p: DegreeParams, rule: Rule):
    small = list(fy.iter_connected_diagrams(3))
    for g1 in small:
        for g2 in small:
            for r in (None, rule):
                ok = bridge.morphism_insert_check(g1.diagram, g2.diagram, r)
                yield (
                    "insert morphism {} into {} rule={}".format(g1.key, g2.key, r),
                    ok,
                )
    tiny = [c for c in small if c.diagram.edge_count() <= 2]
    forests = [DiagForest.of(c) for c in tiny]
    forests += [DiagForest.of(a, b) for a in tiny[:2] for b in tiny[:2]]
    for forest in forests:
        for g in small:
            for r in (None, rule):
                ok = bridge.morphism_star_check(forest, g.diagram, r)
                yield (
                    "star morphism [{}] into {} rule={}".format(forest, g.key, r),
                    ok,
                )


def _suite_valuation(args, p: DegreeParams, rule: Rule):
    kernel = valuation.sample_kernel()
    for m in mi.iter_monomials_within(args.max_he, args.max_he):
        if not mi.is_populatable(m):
            continue
        via_lift = sum(
            (
                float(coef) * valuation.value_F_numeric(canon, kernel)
                for canon, coef in bridge.lift_P(m).items()
            ),
            start=0.0,
        )
        direct = valuation.value_M(m, kernel)
        recursive = valuation.value_M_recursive(m, kernel)
        scale = max(abs(via_lift), abs(direct), abs(recursive), 1e-30)
        ok = (
            abs(direct - recursive) <= 1e-9 * scale
            and abs(direct - via_lift) <= 1e-9 * scale
        )
        yield ("valuation {}".format(m), ok)


def _suite_hopf(args, p: DegreeParams, rule: Rule):
    for m in mi.iter_monomials_within(10, 4):
        if not renorm.in_negative_part_M(m, p):
            continue
        acc = renorm.antipode_M(m, p, rule) + LinComb.single(MIForest.of(m))
        for (forest, trunk), coef in mi.coproduct_reduced(
            m, p, rule, trunk_in_image=True
        ).items():
            part = renorm.antipode_M_forest(forest, p, rule)
            acc = acc + LinComb(
                ((fa.add(trunk), ca * coef) for fa, ca in part.items())
            )
        yield ("antipode identity {}".format(m), not acc)
    for canon in fy.iter_connected_diagrams(4):
        acc = renorm.antipode_F(canon.diagram, p) + LinComb.single(DiagForest.of(canon))
        for (forest, trunk), coef in fy.coproduct_reduced_F(canon.diagram, p).items():
            part = renorm.antipode_F_forest(forest, p)
            acc = acc + LinComb(
                ((fa.add(trunk), ca * coef) for fa, ca in part.items())
            )
        yield ("antipode identity {}".format(canon.key), not acc)

    f = renorm.Character(
        lambda m: SymbolicValue.symbol("f[{}]".format(m)), name="f"
    )
    g = renorm.Character(
        lambda m: SymbolicValue.symbol("g[{}]".format(m)), name="g"
    )
    fg = renorm.convolve(f, g, p, rule)
    for n in range(2, 7):
        m = MultiIndex.single(4, n)
        inner = renorm.renorm_map(g, m, p, rule)
        composed = renorm.renorm_map_output(f, inner, p, rule)
        direct = renorm.renorm_map(fg, m, p, rule)
        yield ("transport composition z4^{}".format(n), composed == direct)


_SUITES = {
    "orbit-stabilizer": _suite_orbit_stabilizer,
    "adjointness": _suite_adjointness,
    "square": _suite_square,
    "morphism": _suite_morphism,
    "valuation": _suite_valuation,
    "hopf": _suite_hopf,
}


def _cmd_verify(args) -> int:
    p = _params(args)
    rule = _rule(args)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    checks = []
    total = failures = 0
    for name in names:
        for label, ok in _SUITES[name](args, p, rule):
            total += 1
            failures += not ok
            if args.json:
                checks.append({"label": label, "ok": bool(ok)})
            else:
                sys.stdout.write("{}  {}\n".format("ok  " if ok else "FAIL", label))
    payload = {
        "command": "verify",
        "suite": args.suite,
        "checks": checks,
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
    sp.add_argument("--free", type=int, default=0, help="number of free legs")
    sp.add_argument("--all", action="store_true", help="include disconnected pairings")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_pairings)

    sp = sub.add_parser("verify", help="run a property suite; exit 1 on failure")
    sp.add_argument("--suite", required=True, choices=sorted(_SUITES) + ["all"])
    sp.add_argument("--max-edges", type=int, default=6)
    sp.add_argument("--max-he", type=int, default=12)
    sp.add_argument("--max-verts", type=int, default=4)
    _add_common(sp)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("counterterms", help="renormalised-measure counterterm table")
    sp.add_argument("--trunc", type=int, default=12, help="half-edge truncation")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_counterterms)

    sp = sub.add_parser("phi4", help="the quartic running example end to end")
    sp.add_argument("--max-n", type=int, default=6)
    sp.add_argument("--trunc", type=int, default=12, help="half-edge truncation")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_phi4)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ExpressionError as exc:
        sys.stderr.write("error: {}\n".format(exc))
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        sys.stderr.write("error: {}\n".format(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
