"""The benchmark workloads: seeded inputs, timed ops and output checks.

A workload is built from its seed in the worker's set-up (inputs are
plain tuples and strings; bphz objects are constructed inside the timed
ops), then ``run`` performs every op and ``check`` compares the outputs
with oracles outside the timed region.

- verify-all: ``bphz verify --suite all`` in-process; each check line is
  one op.  The seed is unused.
- phi4-tower: the quartic model on the monomial side; every output has a
  closed form, an identity or a recorded value to meet.  The tower stops
  at z4^9: z4^10 alone (about 5 s) would leave room for only two
  repetitions per run, too few for a steady median.  The seed is unused.
- diagram-mix: a seeded stream over a fixed pool of diagram-side queries,
  half of them exact repeats and a quarter relabelings of an input class
  already seen, checked against goldens recorded per input class.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from fractions import Fraction
from math import factorial
from time import perf_counter

import bphz
from bphz import bridge, cli, feynman, multiindex, renorm, valuation
from bphz.feynman import DiagForest, Diagram
from bphz.multiindex import DegreeParams, MultiIndex, Rule

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GOLDENS = os.path.join(DATA, "goldens.json")

P = DegreeParams(Fraction(-1), 3)
P_ANTIPODE = DegreeParams(Fraction(-3, 2), 3)
RULE = Rule(frozenset({2, 4}))
TRIPLE_EDGE = "Pi[n=2; e=1-2,1-2,1-2]"


def text(obj) -> str:
    """Canonical text of an output: equal outputs give equal text."""
    if isinstance(obj, tuple):
        return "(" + ", ".join(text(x) for x in obj) + ")"
    if isinstance(obj, feynman.CanonDiagram):
        return "{} aut={}".format(obj.key, obj.aut_order)
    if hasattr(obj, "items"):
        return "; ".join(sorted("{} * {}".format(v, text(k)) for k, v in obj.items()))
    return str(obj)


def digest(obj) -> str:
    return hashlib.sha256(text(obj).encode()).hexdigest()[:20]


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


def run_ops(ops: list, on_op) -> tuple[list[float], list]:
    """Time each op; an op that raises yields its exception as output."""
    latencies: list[float] = []
    outputs: list = []
    for i, (fn, args) in enumerate(ops):
        on_op(i)
        t = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed op is counted, the run goes on
            out = exc
        latencies.append(perf_counter() - t)
        outputs.append(out)
    return latencies, outputs


# --------------------------------------------------------------------------
# verify-all


class _LineClock:
    """Stand-in for stdout that timestamps each completed line."""

    def __init__(self, on_line):
        self.lines: list[str] = []
        self.times: list[float] = []
        self._partial = ""
        self._on_line = on_line

    def write(self, chunk: str) -> int:
        now = perf_counter()
        *done, self._partial = (self._partial + chunk).split("\n")
        for line in done:
            self.lines.append(line)
            self.times.append(now)
            self._on_line(len(self.lines))
        return len(chunk)

    def flush(self) -> None:
        pass


class VerifyAll:
    CHECKS = 730

    def __init__(self, seed: int):
        self.info: dict = {}

    def run(self, on_op):
        clock = _LineClock(on_op)
        on_op(0)
        saved = sys.stdout
        sys.stdout = clock
        start = perf_counter()
        try:
            rc = cli.main(["verify", "--suite", "all"])
        except Exception as exc:  # the remaining checks count as failed
            rc = exc
        finally:
            sys.stdout = saved
        stamps = [start] + clock.times
        latencies = [b - a for a, b in zip(stamps, stamps[1:])]
        check_lines = [ln for ln in clock.lines if ln.startswith(("ok", "FAIL"))]
        return latencies[: len(check_lines)], (rc, clock.lines, check_lines)

    def describe(self, op: int) -> str:
        return "check line {} of bphz verify --suite all".format(op + 1)

    def check(self, outputs) -> tuple[list[bool], list[str]]:
        rc, lines, check_lines = outputs
        oks = [ln.startswith("ok  ") for ln in check_lines]
        oks += [False] * (self.CHECKS - len(oks))
        problems = []
        if rc != 0:
            problems.append("exit code {!r}".format(rc))
        if len(check_lines) != self.CHECKS:
            problems.append("{} check lines, expected {}".format(len(check_lines), self.CHECKS))
        summary = "{} checks, 0 failures".format(self.CHECKS)
        if not lines or lines[-1] != summary:
            problems.append("summary line {!r}".format(lines[-1] if lines else None))
        return oks, problems


# --------------------------------------------------------------------------
# phi4-tower


def _z4(n: int) -> MultiIndex:
    return MultiIndex.single(4, n)


def _beta(m) -> tuple:
    return tuple(sorted(m.beta().items()))


def _forest(f) -> tuple:
    return tuple(sorted(_beta(part) for part in f.parts()))


def coproduct_closed_form(n: int) -> dict:
    """[z3^2]^m (x) z2^m z4^(n-2m) with coefficient 2^(3m) n! / (m! (n-2m)!)."""
    return {
        (((((3, 2),),) * m), _beta(MultiIndex({2: m, 4: n - 2 * m}))): Fraction(
            2 ** (3 * m) * factorial(n), factorial(m) * factorial(n - 2 * m)
        )
        for m in range(1, n // 2 + 1)
    }


def bphz_closed_form(n: int) -> dict:
    """Twisted subtraction of z4^n, basis forest -> {symbol monomial: coefficient}.

    n = 2, 3: z4^n minus its lift value (24 and 1728 labeled pairings of
    the fourfold edge and of the doubled triangle).  n >= 4: the antipode
    of z4^n vanishes and each extraction of m copies of z3^2 (lift value
    6 Pi[triple edge]) leaves z2^m z4^(n-2m) with weight
    (-8 * 6 Pi)^m n! / (m! (n-2m)!).
    """
    if n == 2:
        return {((_beta(_z4(2)),)): {(): 1}, (): {(("Pi[n=2; e=1-2,1-2,1-2,1-2]", 1),): -24}}
    if n == 3:
        return {
            ((_beta(_z4(3)),)): {(): 1},
            (): {(("Pi[n=3; e=1-2,1-2,1-3,1-3,2-3,2-3]", 1),): -1728},
        }
    out = {}
    for m in range(0, n // 2 + 1):
        trunk = (_beta(MultiIndex({2: m, 4: n - 2 * m})),)
        mono = ((TRIPLE_EDGE, m),) if m else ()
        coef = (-48) ** m * Fraction(factorial(n), factorial(m) * factorial(n - 2 * m))
        out[trunk] = {mono: coef}
    return out


def _coproduct_data(comb) -> dict:
    return {(_forest(f), _beta(t)): c for (f, t), c in comb.items()}


def _renorm_data(out) -> dict:
    return {_forest(f): dict(v.terms()) for f, v in out.items()}


def antipode_identity_holds(m: MultiIndex, antipode) -> bool:
    """A(m) + m + sum over reduced-coproduct terms of A(forest) . trunk == 0."""
    acc = antipode + bphz.LinComb.single(bphz.MIForest.of(m))
    reduced = multiindex.coproduct_reduced(m, P_ANTIPODE, RULE, trunk_in_image=True)
    for (forest, trunk), coef in reduced.items():
        part = renorm.antipode_M_forest(forest, P_ANTIPODE, RULE)
        acc = acc + bphz.LinComb(((fa.add(trunk), ca * coef) for fa, ca in part.items()))
    return not acc


# Functions are looked up at call time, so the traced run sees its wrappers.
PHI4_OPS = {
    "coproduct": lambda n: multiindex.coproduct_reduced(_z4(n), P, RULE),
    "bphz": lambda n: renorm.bphz_M(_z4(n), valuation.pi_character_M(), P, RULE),
    "counterterms": lambda t: valuation.counterterms(valuation.phi4_couplings(), P, RULE, t),
    "resummation": lambda order: valuation.resummation_check(P, RULE, order),
    "antipode": lambda n: renorm.antipode_M(_z4(n), P_ANTIPODE, RULE),
}


class Phi4Tower:
    def __init__(self, seed: int):
        self.info: dict = {}
        self.expect = [(kind, n) for n in range(2, 10) for kind in ("coproduct", "bphz")]
        self.expect += [("counterterms", 16), ("resummation", 8)]
        self.expect += [("antipode", n) for n in range(2, 9)]
        self.ops = [(PHI4_OPS[kind], (n,)) for kind, n in self.expect]

    def run(self, on_op):
        return run_ops(self.ops, on_op)

    def describe(self, op: int) -> str:
        return "{} of z4^n, n={}".format(*self.expect[op])

    def check(self, outputs) -> tuple[list[bool], list[str]]:
        goldens = load_goldens()["phi4-tower"]
        oks = []
        for (kind, n), out in zip(self.expect, outputs):
            if isinstance(out, Exception):
                oks.append(False)
            elif kind == "coproduct":
                oks.append(_coproduct_data(out) == coproduct_closed_form(n))
            elif kind == "bphz":
                oks.append(_renorm_data(out) == bphz_closed_form(n))
            elif kind == "counterterms":
                oks.append({str(k): str(v) for k, v in out.items()} == goldens["counterterms_16"])
            elif kind == "resummation":
                oks.append(out is True)
            else:
                oks.append(antipode_identity_holds(_z4(n), out))
        return oks, []


# --------------------------------------------------------------------------
# diagram-mix

PI_F = valuation.pi_character_F()


def _diagram(spec) -> Diagram:
    n, edges = spec
    return Diagram(n, edges)


def _parse(key: str) -> tuple:
    g = Diagram.parse(key)
    return g.vertex_count, g.edges


OP_FUNCTIONS = {
    "canonicalize": lambda g: feynman.canonicalize(_diagram(g)),
    "coproduct_reduced_F": lambda g: feynman.coproduct_reduced_F(_diagram(g), P),
    "antipode_F": lambda g: renorm.antipode_F(_diagram(g), P),
    "bphz_F": lambda g: renorm.bphz_F(_diagram(g), PI_F, P),
    "lift_P": lambda m: bridge.lift_P(MultiIndex.parse(m)),
    "insert_F": lambda g1, g2: feynman.insert_F(_diagram(g1), _diagram(g2)),
    "simultaneous_insert_F": lambda parts, host: feynman.simultaneous_insert_F(
        DiagForest([feynman.canonicalize(_diagram(p)) for p in parts]), _diagram(host)
    ),
}


def relabel(rng: random.Random, spec: tuple) -> tuple:
    """A uniformly random vertex relabeling, edges listed in random order."""
    n, edges = spec
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(out)
    return n, tuple(out)


def mix_classes(pool: dict) -> list[tuple[str, tuple]]:
    """Every (op kind, input class) of the pool; classes are canonical texts."""
    classes = []
    for i, d in enumerate(pool["diagrams"]):
        # Every diagram is canonicalized and given an antipode; coproduct
        # and subtraction alternate along the pool to keep a run short.
        for kind in ("canonicalize", "antipode_F", ("coproduct_reduced_F", "bphz_F")[i % 2]):
            classes.append((kind, (d,)))
    classes += [("lift_P", (m,)) for m in pool["monomials"]]
    classes += [("insert_F", (a, b)) for a in pool["small"] for b in pool["small"]]
    classes += [
        ("simultaneous_insert_F", (tuple(f), h)) for f in pool["forests"] for h in pool["small"]
    ]
    return classes


def golden_key(kind: str, inputs: tuple) -> str:
    return kind + "|" + json.dumps(inputs)


def labeled(rng: random.Random, kind: str, inputs: tuple) -> tuple:
    if kind == "lift_P":
        return inputs
    if kind == "simultaneous_insert_F":
        parts, host = inputs
        return tuple(relabel(rng, _parse(p)) for p in parts), relabel(rng, _parse(host))
    return tuple(relabel(rng, _parse(g)) for g in inputs)


class DiagramMix:
    """Each class gets two random labelings, each asked twice, in random order.

    Half of the ops repeat an earlier op exactly and about a quarter ask
    an earlier class under a new labeling (fewer where a diagram has few
    distinct labelings, and lifts have none); both shares are measured.
    """

    def __init__(self, seed: int):
        rng = random.Random(seed)
        pool = load_goldens()["diagram-mix"]
        self.goldens = pool["goldens"]
        stream = []
        for kind, inputs in mix_classes(pool):
            labelings = [labeled(rng, kind, inputs) for _ in range(2)]
            if kind == "lift_P":
                labelings = labelings[:1]
            for args in labelings:
                stream += [(kind, inputs, args)] * 2
        rng.shuffle(stream)
        self.stream = stream
        self.ops = [(OP_FUNCTIONS[kind], args) for kind, _, args in stream]
        seen_ops, seen_classes = set(), set()
        repeats = relabels = 0
        for kind, inputs, args in stream:
            if (kind, args) in seen_ops:
                repeats += 1
            elif (kind, inputs) in seen_classes:
                relabels += 1
            seen_ops.add((kind, args))
            seen_classes.add((kind, inputs))
        self.info = {
            "ops": len(stream),
            "repeat_share": repeats / len(stream),
            "relabel_share": relabels / len(stream),
        }

    def run(self, on_op):
        return run_ops(self.ops, on_op)

    def describe(self, op: int) -> str:
        kind, _, args = self.stream[op]
        return "{}{}".format(kind, args)

    def check(self, outputs) -> tuple[list[bool], list[str]]:
        oks = []
        for (kind, inputs, _), out in zip(self.stream, outputs):
            want = self.goldens[golden_key(kind, inputs)]
            oks.append(not isinstance(out, Exception) and digest(out) == want)
        return oks, []


WORKLOADS = {"verify-all": VerifyAll, "phi4-tower": Phi4Tower, "diagram-mix": DiagramMix}
