"""Record the input pools and golden outputs the benchmark checks against.

Run from the repository root, at a commit whose outputs are trusted:

    python3 bench/make_goldens.py

It writes bench/data/goldens.json: the diagram-mix pool (canonical
texts, so any seed's relabelings can be checked) with one output digest
per (op kind, input class), and the phi4-tower counterterm table, which
has no closed form in the benchmark.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from bphz import feynman, multiindex  # noqa: E402

import workloads as wl  # noqa: E402

# Monomials over 14 half-edges that the lift must still handle.
LARGE_MONOMIALS = ["z3^6", "z4^5", "z5^4", "z2 z4^5"]


def diagram_pool() -> dict:
    diagrams = list(feynman.iter_connected_diagrams(7))
    small = [c for c in diagrams if c.diagram.edge_count() <= 3]
    divergent = [c for c in small if feynman.is_divergent(c.diagram, wl.P)]
    forests = [[c.key] for c in divergent]
    forests += [[a.key, b.key] for i, a in enumerate(divergent) for b in divergent[i:]]
    monomials = [
        str(m)
        for m in multiindex.iter_monomials_within(14, 6)
        if m.norm() >= 4 and min(m.arity_list()) >= 1 and multiindex.is_populatable(m)
    ]
    return {
        "diagrams": [c.key for c in diagrams if 5 <= c.diagram.edge_count() <= 7],
        "small": [c.key for c in small],
        "forests": forests,
        "monomials": monomials + LARGE_MONOMIALS,
    }


def main() -> int:
    pool = diagram_pool()
    goldens = {}
    for kind, inputs in wl.mix_classes(pool):
        args = inputs if kind == "lift_P" else wl.labeled(_Identity(), kind, inputs)
        goldens[wl.golden_key(kind, inputs)] = wl.digest(wl.OP_FUNCTIONS[kind](*args))
    pool["goldens"] = goldens
    ct = wl.valuation.counterterms(wl.valuation.phi4_couplings(), wl.P, wl.RULE, 16)
    out = {
        "diagram-mix": pool,
        "phi4-tower": {"counterterms_16": {str(k): str(v) for k, v in ct.items()}},
    }
    os.makedirs(wl.DATA, exist_ok=True)
    with open(wl.GOLDENS, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("{} goldens written to {}".format(len(goldens), wl.GOLDENS))
    return 0


class _Identity:
    """Stands in for the random generator: goldens use the canonical labeling."""

    def shuffle(self, items: list) -> None:
        pass


if __name__ == "__main__":
    sys.exit(main())
