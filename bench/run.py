"""Benchmark for bphz: three workloads, end-to-end metrics, a traced per-layer run.

Run from the repository root (the standard library is all it needs):

    python3 bench/run.py                      # every workload, one row each
    python3 bench/run.py --workload diagram-mix --seed 7 --seconds 42 --trace 0
    python3 bench/run.py --workload phi4-tower --trace 1

Each repetition of a workload runs in a fresh worker process
(bench/worker.py), one at a time, so caches start cold every time.

--trace 0 repeats the workload while another repetition still fits in
--seconds (at least one).  It reports setup_s, wall_s and peak_rss_mb as
medians over the repetitions, and op_p50_ms and op_tail_ms as percentiles
over the ops of each op's median latency.  op_tail_ms is the highest
percentile, to 0.1, that leaves at least ten ops above it.

--trace 1 runs one untraced repetition and two traced ones with the same
seed, checks that the two give identical per-layer counts, and reports
every per-layer metric (time medians, exact counts) together with
trace.overhead_s, the traced minus the untraced wall_s.

Every op's output is checked after the timed region.  The last line of
stdout is one JSON object with keys correct, attempted, failed, metrics;
a per-run record with the machine stamp, the raw repetitions and the
tail percentile goes to bench/results/.  Exit status: 0 all checks pass,
1 an output check failed, 2 the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("verify-all", "phi4-tower", "diagram-mix")
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
# A run must end within this many seconds, whatever --seconds says.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def worker(workload: str, seed: int, trace: bool, deadline: float, spans: str = "") -> dict:
    """One repetition in a fresh process; returns its JSON record."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    args = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        workload,
        str(seed),
        "1" if trace else "0",
    ]
    t0 = time.monotonic()
    timeout = deadline - t0
    if timeout <= 0:
        raise BenchError("out of time before a {} repetition".format(workload))
    try:
        proc = subprocess.run(
            args + [repr(t0)] + ([spans] if spans else []),
            capture_output=True,
            text=True,
            timeout=timeout,
            env=env,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a {} repetition did not finish in time".format(workload)) from None
    if proc.returncode != 0:
        raise BenchError(
            "worker for {} exited with {}:\n{}".format(workload, proc.returncode, proc.stderr[-4000:])
        )
    record = json.loads(proc.stdout.splitlines()[-1])
    record["duration_s"] = time.monotonic() - t0
    return record


def tail(sorted_ms: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples above) at the highest 0.1-step percentile
    that leaves at least ten samples above its nearest-rank value."""
    n = len(sorted_ms)
    if n <= 10:
        return 100.0, sorted_ms[-1], 0
    q10 = 1000 * (n - 10) // n
    rank = -(-q10 * n // 1000)
    return q10 / 10, sorted_ms[rank - 1], n - rank


def summarize(reps: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced repetitions, and the tail detail.

    Repetitions share their seed, so op i is the same call in each; its
    latency is the median over the repetitions, which damps one-off
    stalls of a shared host before percentiles are taken over the ops.
    """
    n = min(len(r["latencies_s"]) for r in reps)
    per_op = sorted(statistics.median(r["latencies_s"][i] for r in reps) * 1e3 for i in range(n))
    q, value, above = tail(per_op)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "op_p50_ms": statistics.median(per_op),
        "op_tail_ms": value,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    detail = {"tail_percentile": q, "tail_samples_above": above, "ops": n, "repetitions": len(reps)}
    return metrics, detail


def stamp(workload: str, seed: int, ops: int, reps: int) -> dict:
    return {
        "python": platform.python_version(),
        "hostname": socket.gethostname(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "ops_per_repetition": ops,
        "repetitions": reps,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def untraced(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    reps = []
    start = time.monotonic()
    while True:
        reps.append(worker(workload, seed, False, deadline))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(reps) > seconds:
            break
    return {"reps": reps, "untraced": reps, "problems": []}


def traced(workload: str, seed: int, deadline: float) -> dict:
    os.makedirs(RESULTS, exist_ok=True)
    base = worker(workload, seed, False, deadline)
    runs = [
        worker(
            workload,
            seed,
            True,
            deadline,
            os.path.join(RESULTS, "spans-{}-seed{}-{}.tsv.gz".format(workload, seed, k)),
        )
        for k in (1, 2)
    ]
    problems = []
    metrics = {}
    for name, unit, how in spans.LAYER_METRICS:
        a, b = (r["layers"][name] for r in runs)
        if how != "timed" and a != b:
            problems.append("{} differs between two traced runs: {} vs {}".format(name, a, b))
        metrics[name] = {"value": (a + b) / 2 if how == "timed" else a, "unit": unit}
    overhead = statistics.median(r["wall_s"] for r in runs) - base["wall_s"]
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return {"reps": [base] + runs, "untraced": [base], "layers": metrics, "problems": problems}


def run_workload(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    out = traced(workload, seed, deadline) if trace else untraced(workload, seed, seconds, deadline)
    reps = out["reps"]
    out["end_to_end"], out["latency"] = summarize(out.pop("untraced"))
    out["metrics"] = out["layers"] if trace else out["end_to_end"]
    for r in reps:
        out["problems"] += r["problems"]
    out["attempted"] = sum(r["attempted"] for r in reps)
    out["failed"] = sum(r["failed"] for r in reps)
    out["correct"] = out["failed"] == 0 and not out["problems"]
    out["stamp"] = stamp(workload, seed, out["latency"]["ops"], len(reps))
    out["info"] = reps[0]["info"]
    return out


def save(workload: str, seed: int, trace: bool, out: dict) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "{}-seed{}-trace{}.json".format(workload, seed, int(trace)))
    record = {k: v for k, v in out.items() if k not in ("reps", "metrics")}
    record["repetitions"] = [
        {k: v for k, v in r.items() if k not in ("latencies_s", "layers")} for r in out["reps"]
    ]
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return path


def print_rows(results: dict) -> None:
    cols = ["setup_s [s]", "wall_s [s]", "op_p50_ms [ms]", "op_tail_ms [ms]", "fail_share", "peak_rss_mb [MB]"]
    print("{:<12} ".format("workload") + " ".join("{:>16}".format(c) for c in cols) + "  tail percentile")
    for workload, out in results.items():
        m = {k: v["value"] for k, v in out["end_to_end"].items()}
        lat = out["latency"]
        share = out["failed"] / out["attempted"]
        print(
            "{:<12} {:>16.4f} {:>16.3f} {:>16.3f} {:>16.3f} {:>16.4f} {:>16.1f}  p{} ({} of {} ops above, {} reps)".format(
                workload,
                m["setup_s"],
                m["wall_s"],
                m["op_p50_ms"],
                m["op_tail_ms"],
                share,
                m["peak_rss_mb"],
                lat["tail_percentile"],
                lat["tail_samples_above"],
                lat["ops"],
                lat["repetitions"],
            )
        )


def print_bypasses(results: dict) -> None:
    """The per-layer counts predicted to read zero on a workload."""
    with open(os.path.join(HERE, "predictions.json")) as fh:
        bypasses = json.load(fh)["bypasses"]
    for workload, out in results.items():
        for name in bypasses.get(workload, []):
            value = out["layers"][name]["value"]
            verdict = "confirmed" if value == 0 else "NOT confirmed"
            print("{}: predicted bypass {} = 0 {} (read {})".format(workload, name, verdict, value))


def print_layers(results: dict) -> None:
    kinds = {name: how for name, _, how in spans.LAYER_METRICS}
    kinds["trace.overhead_s"] = "timed"
    print("{:<52}{:>9}".format("per-layer metric", "kind") + "".join("{:>16}".format(w) for w in results))
    for name in kinds:
        row = "{:<52}{:>9}".format(name, kinds[name])
        for out in results.values():
            row += "{:>16.6g}".format(out["layers"][name]["value"])
        print(row)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=42)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "bphz", "__init__.py")):
        sys.stderr.write("error: no bphz sources under {}\n".format(os.path.join(ROOT, "src")))
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    results = {}
    try:
        for workload in names:
            out = run_workload(workload, args.seed, args.seconds, bool(args.trace), deadline)
            out["record"] = save(workload, args.seed, bool(args.trace), out)
            results[workload] = out
    except BenchError as exc:
        sys.stderr.write("error: {}\n".format(exc))
        return 2

    print_rows(results)
    if args.trace:
        print_layers(results)
        print_bypasses(results)
    for workload, out in results.items():
        print("{}: stamp {}".format(workload, json.dumps(out["stamp"], sort_keys=True)))
        print("{}: record {}".format(workload, os.path.relpath(out["record"], ROOT)))
        if out["info"]:
            print("{}: inputs {}".format(workload, json.dumps(out["info"], sort_keys=True)))
        for problem in out["problems"]:
            print("{}: CHECK FAILED {}".format(workload, problem))
    if len(results) == 1:
        (out,) = results.values()
        metrics = out["metrics"]
    else:
        metrics = {
            "{}.{}".format(w, name): m for w, out in results.items() for name, m in out["metrics"].items()
        }
    correct = all(out["correct"] for out in results.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(out["attempted"] for out in results.values()),
                "failed": sum(out["failed"] for out in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
