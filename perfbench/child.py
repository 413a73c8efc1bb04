"""One benchmark pass in a fresh interpreter; run.py starts it.

    python3 perfbench/child.py MODE WORKLOAD SEED WORKDIR

MODE is `setup` (import, parse, rings, modules and corpora, nothing
else), `cold` (one timed pass), `pass` (a timed pass, then the
workload's warm reruns) or `trace` (a traced pass and one traced warm
rerun).  A pass runs the public parse -> execute -> report_json path of
`linkage-lab run --json`, against a new disk store in WORKDIR if the
workload is store-backed.  In `cold` and `pass` mode the reported times
are seconds at calib.py's reference speed (`raw_wall_s` is as measured).
The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import calib  # noqa: E402
import checks  # noqa: E402
from workloads import KOSZUL, WORKLOADS  # noqa: E402

# A warm rerun is short and the machine's speed changes within a second,
# so each rerun is scaled by the probe bursts right before and after it.
WARM_BURST = 4
WARM_PAD_S = 0.05


def _setup(workload, seed: int) -> dict:
    from linkage_lab import generate_corpus, parse
    from linkage_lab.dsl import SuiteStmt
    from linkage_lab.runner import RunConfig, _Runner

    script = parse(workload.script(seed))
    runner = _Runner(RunConfig())
    runner.run(parse(workload.declarations()))
    for s in script.statements:
        if isinstance(s, SuiteStmt):
            generate_corpus(runner.rings[s.ring], s.size)
    return {}


class _OpTimer:
    """Times each theorem check and each non-suite statement."""

    def __init__(self, probe):
        from linkage_lab import runner, theorems

        self.intervals: list = []
        check, statement = theorems.check, runner._Runner._statement

        def timed_check(*args, **kwargs):
            start = probe.mark()
            try:
                return check(*args, **kwargs)
            finally:
                self.intervals.append(probe.interval(start))

        def timed_statement(runner_self, s):
            if type(s).__name__ == "SuiteStmt":
                return statement(runner_self, s)
            start = probe.mark()
            try:
                return statement(runner_self, s)
            finally:
                self.intervals.append(probe.interval(start))

        theorems.check = timed_check
        runner._Runner._statement = timed_statement


def _run_script(source: str, probe):
    """(report text, exit code, probe interval) of parse -> execute ->
    report."""
    from linkage_lab import RunConfig, execute, parse, report_json

    start = probe.mark()
    result = execute(parse(source), RunConfig())
    text = report_json(result)
    return text, result.exit_code(), probe.interval(start)


class _ResolutionLog:
    """The longest resolution a pass computed of each module.

    Wraps the public minimal_free_resolution at every name that binds it.
    A Resolution is a snapshot, so later calls do not change a logged one.
    """

    def __init__(self):
        import tracer
        from linkage_lab import resolutions

        self.longest: dict = {}  # module content key -> Resolution
        fn = resolutions.minimal_free_resolution

        def logged(M, length, *args, **kwargs):
            res = fn(M, length, *args, **kwargs)
            key = res.module.content_key()
            old = self.longest.get(key)
            if old is None or len(res.twists) > len(old.twists):
                self.longest[key] = res
            return res

        tracer.rebind({id(fn): logged}, tracer.linkage_modules())

    def ranks(self) -> list:
        """The ranks of F_1, F_2, ... of every logged resolution."""
        return [len(t) for res in self.longest.values()
                for t in res.twists[1:]]

    def problems(self, workload) -> list:
        """d_i d_{i+1} = 0 mod I and no unit entries, for every logged
        resolution; Froberg's ranks for the Koszul module."""
        rings = {(r.field, r.variables): r for r in workload.rings}
        problems = []
        for res in self.longest.values():
            ring = rings.get((res.ring.field.name, tuple(res.ring.names)))
            if ring is None:
                problems.append(f"resolution over unexpected ring "
                                f"{res.ring.key()}")
                continue
            problems += checks.check_resolution(res.maps, ring)
        if workload.name in KOSZUL:
            problems += _koszul_problems(*KOSZUL[workload.name])
        return problems


def _koszul_problems(label: str, ring, length: int) -> list:
    from linkage_lab import field_from_name, from_matrix, make_ring
    from linkage_lab import minimal_free_resolution

    R = make_ring(field_from_name(ring.field), list(ring.variables),
                  ["*".join(r) for r in ring.relations])
    k = from_matrix(R, [0], [list(ring.variables)])
    res = minimal_free_resolution(k, length)
    want = checks.froberg_ranks(ring, length)
    problems = []
    for i in range(1, length + 1):
        got = res.twists_at(i)
        if len(got) != want[i] or any(d != i for d in got):
            problems.append(f"{label}: F_{i} has rank {len(got)} in degrees "
                            f"{sorted(set(got))}, Froberg gives rank "
                            f"{want[i]} in degree {i}")
    return problems


def _install_store(workload, workdir: str):
    """A new disk store for a store-backed workload; none otherwise, as
    `linkage-lab run` without LINKAGE_LAB_CACHE."""
    from linkage_lab.cache import install_cache

    if workload.store:
        install_cache(os.path.join(workdir, "store"))


def _pass(workload, seed: int, workdir: str, warm: bool) -> dict:
    from linkage_lab import memo

    _install_store(workload, workdir)
    probe = calib.Probe()
    timer = _OpTimer(probe)
    log = _ResolutionLog()
    source = workload.script(seed)
    probe.burst()
    probe.start()
    try:
        text, exit_code, wall = _run_script(source, probe)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = log.problems(workload)
        warm_intervals = []
        for _ in range(workload.warm_reruns if warm else 0):
            memo.clear()
            log.longest.clear()
            probe.burst(WARM_BURST)
            again, _, interval = _run_script(source, probe)
            warm_intervals.append(interval)
            if again != text:
                problems.append("warm rerun report differs")
    finally:
        probe.stop()
    probe.burst()
    if warm:
        # check the last rerun's resolutions too; with a store, they came
        # from it
        problems += log.problems(workload)
    return {
        "wall_s": probe.seconds(wall),
        "raw_wall_s": wall[2],
        "slowest_op_s": max(map(probe.seconds, timer.intervals)),
        "peak_rss_mb": rss,
        "exit_code": exit_code,
        "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "summary": checks.summarize(json.loads(text)),
        "problems": problems,
        "warm_s": [probe.seconds(iv, WARM_PAD_S) for iv in warm_intervals],
    }


def _trace(workload, seed: int, workdir: str) -> dict:
    import tracer as tr
    from linkage_lab import memo

    t = tr.Tracer()
    t.install()
    log = _ResolutionLog()
    _install_store(workload, workdir)
    source = workload.script(seed)
    spans_path = os.path.join(workdir, "spans.jsonl")
    clock = calib.Probe()  # never started: plain wall time
    t.start_sampler()
    try:
        text, exit_code, (_, _, wall) = _run_script(source, clock)
    finally:
        t.stop_sampler()
    metrics = tr.cold_metrics(t, len(memo._TABLE), log.ranks())
    t.dump(spans_path, "cold")
    problems = log.problems(workload)
    memo.clear()
    log.longest.clear()
    t.reset()
    again, _, _ = _run_script(source, clock)
    metrics.update(tr.warm_metrics(t))
    t.dump(spans_path, "warm")
    if again != text:
        problems.append("warm rerun report differs")
    return {
        "wall_s": wall,
        "exit_code": exit_code,
        "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "summary": checks.summarize(json.loads(text)),
        "problems": problems,
        "metrics": metrics,
        "spans": spans_path,
    }


def main(argv) -> int:
    mode, name, seed, workdir = argv
    os.environ.pop("LINKAGE_LAB_CACHE", None)
    workload, seed = WORKLOADS[name], int(seed)
    if mode == "setup":
        out = _setup(workload, seed)
    elif mode == "trace":
        out = _trace(workload, seed, workdir)
    else:
        out = _pass(workload, seed, workdir, warm=mode == "pass")
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
