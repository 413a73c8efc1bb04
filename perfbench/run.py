"""linkage-lab benchmark: three DSL workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from src/.
Every pass runs in a fresh interpreter (memo.clear() leaves the Hilbert
numerator cache and the store hook warm), with LINKAGE_LAB_CACHE removed
from the environment; a store-backed workload gets a new disk store.

--trace 0: passes run while the next one is expected to end within S
seconds (at least one runs); set-up is timed SETUP_PROBES times, half
before the passes and half after.  Each pass is followed by the
workload's warm reruns: memo cleared, same interpreter and store.
Prints the end-to-end metrics; times are medians, in seconds at the
reference speed of calib.py, so that the shared machine's drifting
speed does not show in them.

--trace 1: one untraced pass, then a traced pass and a traced warm
rerun; prints the per-layer metrics and writes the spans to
.perfbench_out/.

Every pass is checked: the report is byte-identical across passes and
reruns, verdicts hold against the seed ledger in perfbench/ledger/, the
resolutions pass the oracles, and the exit code matches the report.  The
last line of standard output is one JSON object; the exit code is 1 if a
check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402
import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 24
RUN_LIMIT_S = 170  # a run must end within 180 s
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)  # metric names and units


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child(mode: str, workload: str, seed: int, workdir: str,
           deadline: float) -> dict:
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ)
    env.pop("LINKAGE_LAB_CACHE", None)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), mode, workload,
             str(seed), workdir],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} ran out of time")
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _verify(name: str, passes: list) -> tuple:
    """(problems, ops attempted, upgrades) over all passes of a run."""
    with open(os.path.join(HERE, "ledger", f"{name}.json"),
              encoding="utf-8") as fh:
        ledger = json.load(fh)
    problems, upgrades, attempted = [], set(), 0
    if len({p["report_sha256"] for p in passes}) > 1:
        problems.append("reports of repeated passes differ")
    for p in passes:
        found, up = checks.compare_ledger(ledger, p["summary"])
        upgrades.update(up)
        problems += found + p["problems"]
        ops, _, _ = checks.op_counts(p["summary"])
        attempted += ops * (1 + len(p.get("warm_s", ())))
        want = checks.expected_exit(p["summary"])
        if p["exit_code"] != want:
            problems.append(f"exit code {p['exit_code']}, expected {want}")
    return problems, attempted, sorted(upgrades)


def _end_to_end(name: str, seed: int, seconds: int, work: str,
                deadline: float) -> tuple:
    setup, speed = [], calib.Probe()

    def probe_setup(n):
        for _ in range(n):
            speed.burst()
            start = speed.mark()
            _child("setup", name, seed,
                   os.path.join(work, f"setup{len(setup)}"), deadline)
            setup.append(speed.interval(start))
            speed.burst()

    # The first probe warms the file cache and is dropped.  Half the rest
    # run after the passes, so the median sees the machine at two times.
    probe_setup(1 + SETUP_PROBES // 2)
    passes, last = [], 0.0
    stop = time.monotonic() + seconds
    while not passes or time.monotonic() + last < stop:
        t0 = time.monotonic()
        passes.append(_child("pass", name, seed,
                             os.path.join(work, f"pass{len(passes)}"),
                             deadline))
        last = time.monotonic() - t0
    probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
    ops, failed, exact = checks.op_counts(passes[0]["summary"])
    metrics = {
        "wall_s": statistics.median([p["wall_s"] for p in passes]),
        "setup_s": statistics.median(map(speed.seconds, setup[1:])),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
        "slowest_op_s": statistics.median([p["slowest_op_s"] for p in passes]),
        "warm_rerun_s": statistics.median([t for p in passes for t in p["warm_s"]]),
        "ops_complete_share": (ops - failed) / ops,
        "exact_share": exact / ops,
    }
    return passes, metrics


def _per_layer(name: str, seed: int, work: str, deadline: float) -> tuple:
    base = _child("cold", name, seed, os.path.join(work, "cold"), deadline)
    traced = _child("trace", name, seed, os.path.join(work, "trace"),
                    deadline)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    shutil.move(traced.pop("spans"),
                os.path.join(out_dir, f"{name}-spans.jsonl"))
    metrics = dict(traced["metrics"])
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead"] = traced["wall_s"] / base["raw_wall_s"]
    return [base, traced], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "linkage_lab",
                                       "__init__.py")):
        print("error: src/linkage_lab not found; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            passes, metrics = _per_layer(args.workload, args.seed, work,
                                         deadline)
        else:
            passes, metrics = _end_to_end(args.workload, args.seed,
                                          args.seconds, work, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems, attempted, upgrades = _verify(args.workload, passes)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if upgrades:
        print(f"{len(upgrades)} verdicts upgraded from the seed ledger",
              file=sys.stderr)
    section = SPEC["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in section},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
