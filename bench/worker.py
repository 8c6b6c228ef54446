"""One repetition of one workload, in a fresh process.

    python3 bench/worker.py WORKLOAD SEED TRACE T0 [SPANS_PATH]

T0 is the parent's CLOCK_MONOTONIC reading just before it started this
process, so set-up time counts interpreter start, the bphz import and
input generation.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv: list[str]) -> int:
    workload, seed, trace, t0 = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    spans_path = argv[4] if len(argv) > 4 else None
    sys.path.insert(0, SRC)
    import bphz

    if not os.path.abspath(bphz.__file__).startswith(SRC + os.sep):
        raise SystemExit("bphz was imported from {}, not {}".format(bphz.__file__, SRC))
    import workloads

    plan = workloads.WORKLOADS[workload](seed)
    setup_s = time.monotonic() - t0

    tracer = None
    on_op = _ignore
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        on_op = tracer.set_op

    start = perf_counter()
    latencies, outputs = plan.run(on_op)
    wall_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
    oks, problems = plan.check(outputs)
    failed = [i for i, ok in enumerate(oks) if not ok]
    if failed:
        problems.append(
            "{} of {} ops gave a wrong result or raised; first: {}".format(
                len(failed), len(oks), "; ".join(plan.describe(i) for i in failed[:3])
            )
        )
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies_s": latencies,
        "attempted": len(oks),
        "failed": len(failed),
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
        "info": plan.info,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if spans_path:
            tracer.write_spans(spans_path)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def _ignore(op: int) -> None:
    pass


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
