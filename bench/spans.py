"""Span tracer that wraps bphz's public functions from outside the package.

Each wrapped function records one span per call (per yielded item for
generators) in flat arrays: function id, start, end, parent span and op
id.  Classes whose constructors run in inner loops are counted only.
Wrappers replace the function in every ``bphz`` module namespace that
binds it, so names imported with ``from .x import f`` are traced too, and
``uninstall`` puts every original back.  Nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from time import perf_counter

# Functions recorded as spans, by module.
SPANNED = {
    "feynman": [
        "canonicalize",
        "coproduct_reduced_F",
        "simultaneous_insert_F",
        "iter_connected_diagrams",
    ],
    "pairings": ["iter_multiplicity_matrices", "matching_exists"],
    "bridge": ["enumerate_pairings", "lift_P"],
    "multiindex": [
        "coproduct_reduced",
        "extraction_candidates",
        "is_populatable",
        "iter_monomials_within",
    ],
    "renorm": ["antipode_M", "bphz_M", "antipode_F"],
    "valuation": ["value_F_numeric", "moment_oracle", "counterterms"],
    "cli": ["main"],
}

# Classes whose constructions are counted without spans (inner-loop calls).
COUNTED = {"feynman": "Diagram", "lincomb": "LinComb", "symvalue": "SymbolicValue"}

# Functions whose distinct argument keys are kept, for distinct_ratio.
DISTINCT = {"feynman.canonicalize", "renorm.antipode_M", "renorm.antipode_F"}


# Per-layer metrics as module.function.stat, with unit and how each is
# obtained: an exact count, computed from exact counts, or timed.
LAYER_METRICS = [
    ("feynman.canonicalize.calls", "count", "exact"),
    ("feynman.canonicalize.self_s", "s", "timed"),
    ("feynman.canonicalize.distinct_ratio", "ratio", "computed"),
    ("feynman.Diagram.constructions", "count", "exact"),
    ("feynman.coproduct_reduced_F.self_s", "s", "timed"),
    ("feynman.simultaneous_insert_F.self_s", "s", "timed"),
    ("feynman.iter_connected_diagrams.self_s", "s", "timed"),
    ("pairings.iter_multiplicity_matrices.yielded", "count", "exact"),
    ("pairings.iter_multiplicity_matrices.self_s", "s", "timed"),
    ("pairings.matching_exists.calls", "count", "exact"),
    ("bridge.enumerate_pairings.calls", "count", "exact"),
    ("bridge.enumerate_pairings.self_s", "s", "timed"),
    ("bridge.enumerate_pairings.pairings", "count", "exact"),
    ("bridge.lift_P.self_s", "s", "timed"),
    ("bridge.lift_P.terms", "count", "exact"),
    ("multiindex.coproduct_reduced.calls", "count", "exact"),
    ("multiindex.coproduct_reduced.self_s", "s", "timed"),
    ("multiindex.coproduct_reduced.terms_per_candidate", "ratio", "computed"),
    ("multiindex.extraction_candidates.candidates", "count", "exact"),
    ("multiindex.is_populatable.calls", "count", "exact"),
    ("multiindex.iter_monomials_within.yielded", "count", "exact"),
    ("renorm.antipode_M.self_s", "s", "timed"),
    ("renorm.antipode_M.distinct_ratio", "ratio", "computed"),
    ("renorm.bphz_M.self_s", "s", "timed"),
    ("renorm.antipode_F.self_s", "s", "timed"),
    ("renorm.antipode_F.distinct_ratio", "ratio", "computed"),
    ("valuation.value_F_numeric.calls", "count", "exact"),
    ("valuation.value_F_numeric.self_s", "s", "timed"),
    ("valuation.value_F_numeric.placements", "count", "computed"),
    ("valuation.moment_oracle.self_s", "s", "timed"),
    ("valuation.counterterms.self_s", "s", "timed"),
    ("lincomb.LinComb.constructions", "count", "exact"),
    ("symvalue.SymbolicValue.constructions", "count", "exact"),
    ("cli.main.self_s", "s", "timed"),
]


def _arg_key(args: tuple, kwargs: dict):
    return args + tuple(sorted(kwargs.items())) if kwargs else args


class Tracer:
    """In-memory span store plus the per-function counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.fid = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.current_op = -1
        self.calls: dict[str, int] = {}
        self.yielded: dict[str, int] = {}
        self.sums: dict[str, float] = {}
        self.keys: dict[str, set] = {name: set() for name in DISTINCT}
        self.numeric_seen: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- span store -------------------------------------------------------
    def set_op(self, op: int) -> None:
        self.current_op = op

    def _open(self, fid: int) -> int:
        idx = len(self.start)
        self.fid.append(fid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def add(self, stat: str, amount: float) -> None:
        self.sums[stat] = self.sums.get(stat, 0) + amount

    # -- wrappers ---------------------------------------------------------
    def _wrap_function(self, name: str, fn, after):
        fid = len(self.names)
        self.names.append(name)
        calls = self.calls
        keys = self.keys.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            if keys is not None:
                keys.add(_arg_key(args, kwargs))
            idx = self._open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        calls, yielded = self.calls, self.yielded
        yielded[name] = 0

        def drive(it):
            while True:
                idx = self._open(fid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yielded[name] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return drive(fn(*args, **kwargs))

        return wrapper

    def _wrap_init(self, name: str, cls) -> None:
        original = cls.__init__
        calls = self.calls
        calls[name] = 0

        @functools.wraps(original)
        def counting_init(obj, *args, **kwargs):
            calls[name] += 1
            original(obj, *args, **kwargs)

        self._restore.append((cls, "__init__", original))
        cls.__init__ = counting_init

    def install(self) -> None:
        """Wrap every listed function in every bphz namespace that binds it."""
        modules = [m for n, m in sys.modules.items() if n == "bphz" or n.startswith("bphz.")]
        for short, functions in SPANNED.items():
            module = sys.modules["bphz." + short]
            for fname in functions:
                name = "{}.{}".format(short, fname)
                original = getattr(module, fname)
                if inspect.isgeneratorfunction(inspect.unwrap(original)):
                    wrapper = self._wrap_generator(name, original)
                else:
                    wrapper = self._wrap_function(name, original, _AFTER.get(name))
                self.calls.setdefault(name, 0)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for short, cls_name in COUNTED.items():
            cls = getattr(sys.modules["bphz." + short], cls_name)
            self._wrap_init("{}.{}".format(short, cls_name), cls)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Span duration minus the part covered by its child spans, per function."""
        n = len(self.start)
        covered = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        out = dict.fromkeys(self.names, 0.0)
        names = self.names
        fid = self.fid
        for i in range(n):
            out[names[fid[i]]] += end[i] - start[i] - covered[i]
        return out

    def metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS value; a ratio over zero calls reads 0."""
        self_s = self.self_times()
        out: dict[str, float] = {}
        for metric, _, _ in LAYER_METRICS:
            fn, stat = metric.rsplit(".", 1)
            if stat in ("calls", "constructions"):
                value = self.calls[fn]
            elif stat == "yielded":
                value = self.yielded[fn]
            elif stat == "self_s":
                value = self_s[fn]
            elif stat == "distinct_ratio":
                value = len(self.keys[fn]) / self.calls[fn] if self.calls[fn] else 0.0
            elif stat == "terms_per_candidate":
                scanned = self.sums.get("multiindex.extraction_candidates.candidates", 0)
                value = self.sums.get(fn + ".terms", 0) / scanned if scanned else 0.0
            else:
                value = self.sums.get(metric, 0)
            out[metric] = value
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            names = self.names
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(
                    "{}\t{}\t{:.9f}\t{:.9f}\t{}\t{}\n".format(
                        i,
                        names[self.fid[i]],
                        self.start[i] - t0,
                        self.end[i] - t0,
                        self.parent[i],
                        self.op[i],
                    )
                )


def _after_enumerate_pairings(tracer: Tracer, args, result) -> None:
    tracer.add("bridge.enumerate_pairings.pairings", result.total())


def _after_lift(tracer: Tracer, args, result) -> None:
    tracer.add("bridge.lift_P.terms", len(result))


def _after_coproduct(tracer: Tracer, args, result) -> None:
    tracer.add("multiindex.coproduct_reduced.terms", len(result))


def _after_candidates(tracer: Tracer, args, result) -> None:
    tracer.add("multiindex.extraction_candidates.candidates", len(result))


def _after_value_numeric(tracer: Tracer, args, result) -> None:
    # A miss sums over every placement of the diagram's vertices on the
    # torus; forests are evaluated through one call per component.
    g, kernel = args[0], args[1]
    diagram = getattr(g, "diagram", g)
    if not hasattr(diagram, "vertex_count"):
        return
    key = (getattr(g, "key", None) or (diagram.vertex_count, diagram.edges), kernel)
    if key in tracer.numeric_seen:
        return
    tracer.numeric_seen.add(key)
    tracer.add(
        "valuation.value_F_numeric.placements",
        (kernel.N**kernel.d) ** diagram.vertex_count,
    )


_AFTER = {
    "bridge.enumerate_pairings": _after_enumerate_pairings,
    "bridge.lift_P": _after_lift,
    "multiindex.coproduct_reduced": _after_coproduct,
    "multiindex.extraction_candidates": _after_candidates,
    "valuation.value_F_numeric": _after_value_numeric,
}
