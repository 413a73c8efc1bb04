"""Outside-in tracer for linkage_lab: spans, counters and a stack sampler.

Nothing under src/ changes.  `Tracer.install()` wraps every public
function of every linkage_lab module, and the public methods of its
classes, at every module name that binds it: callers use
`from .x import f`, so one function can be bound in several modules
(`ext` is bound in homops, invariants, theorems and runner).  Each call
appends a span [name, start, end, parent, info, error] to an in-memory
list.  `memo.get` gets a counting wrapper instead of a span.

fields, monomials and polynomials run millions of tiny calls per pass;
a span each would cost more than the call.  A SIGPROF timer samples the
main thread's stack instead and charges each sample to the module of the
innermost linkage_lab frame.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import signal
import statistics
import time
from collections import Counter

SAMPLED = ("fields", "monomials", "polynomials")
COUNTED = ("memo",)
# Accessors and per-term helpers outside the sampled modules, called so
# often that a span would cost more than the call; the sampler sees them.
UNSPANNED = frozenset({
    "groebner.term_key",
    "groebner.flat_from_column",
    "groebner.column_from_flat",
    "groebner.column_degree",
    "groebner.ModuleGB.leading_terms",
    "hilbert.HilbertSeries.shift",
    "modules.ModulePresentation.n_gens",
    "modules.ModulePresentation.n_rels",
    "modules.ModulePresentation.is_zero",
    "rings.GradedRing.key",
    "rings.GradedRing.nf",
})
SAMPLE_INTERVAL_S = 0.001


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _theorem_id(args, kwargs, result):
    tid = args[0] if args else kwargs["tid"]
    return getattr(tid, "value", str(tid))


def _ext_index(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs["i"]


def _gb_shape(args, kwargs, result):
    gb = args[0]
    return (gb.track, len(gb._input_columns), len(gb._elems),
            len(gb.syzygies))


def _mingens_shape(args, kwargs, result):
    return len(args[1]), len(result)


def _iso_resolved(args, kwargs, result):
    return result.resolved()


def _load_bytes(args, kwargs, result):
    store, key = args[0], args[1]
    return -1 if result is None else os.path.getsize(store._path(key))


def _saved_file(args, kwargs, result):
    path = args[0]._path(args[1])
    return path, os.path.getsize(path)


# Per-span details recorded after a successful call.  They read a few
# internals; if the program renames one, the traced run fails.
INFO = {
    "theorems.check": _theorem_id,
    "homops.ext": _ext_index,
    "groebner.ModuleGB.__init__": _gb_shape,
    "modules.mingens_columns": _mingens_shape,
    "isomorphism.is_isomorphic": _iso_resolved,
    "cache.DiskStore.load": _load_bytes,
    "cache.DiskStore.save": _saved_file,
}


def linkage_modules() -> list:
    """The linkage_lab package and all its modules."""
    import linkage_lab

    return [linkage_lab] + [
        importlib.import_module(f"linkage_lab.{m.name}")
        for m in pkgutil.iter_modules(linkage_lab.__path__)]


def rebind(wrappers: dict, modules) -> None:
    """Replace every module-level name bound to a wrapped object.

    `wrappers` maps id(original) to its wrapper; callers use
    `from .x import f`, so one function can be bound in several modules.
    """
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None and not attr.startswith("__"):
                setattr(mod, attr, wrapper)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.memo_calls: Counter = Counter()
        self.memo_hits: Counter = Counter()
        self.samples: Counter = Counter()

    # -- recording ----------------------------------------------------------

    def reset(self):
        """Start a new phase: clear spans, counters and samples."""
        self.spans.clear()
        self.stack.clear()
        self.memo_calls.clear()
        self.memo_hits.clear()
        self.samples.clear()

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[5] = type(e).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def _memo_get(self, fn):
        calls, hits = self.memo_calls, self.memo_hits

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            value = fn(*args, **kwargs)
            op = args[0] if args else kwargs.get("op")
            calls[op] += 1
            hits[op] += value is not None
            return value

        return counted

    def install(self):
        """Wrap linkage_lab's public functions and methods in place."""
        modules = linkage_modules()
        wrapped: dict = {}  # id(original) -> wrapper
        for mod in modules:
            short = _short(mod.__name__)
            if short in SAMPLED:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(short, obj)
                elif inspect.isfunction(obj) and short not in COUNTED:
                    name = f"{short}.{attr}"
                    if name not in UNSPANNED:
                        wrapped[id(obj)] = self._span(name, obj)
        memo_get = importlib.import_module("linkage_lab.memo").get
        wrapped[id(memo_get)] = self._memo_get(memo_get)
        rebind(wrapped, modules)

    def _wrap_class(self, short: str, cls):
        for attr, obj in list(vars(cls).items()):
            public = not attr.startswith("_") or (
                attr == "__init__" and "__dataclass_fields__" not in vars(cls))
            name = f"{short}.{cls.__name__}.{attr}"
            if not public or not inspect.isfunction(obj) or name in UNSPANNED:
                continue
            setattr(cls, attr, self._span(name, obj))

    # -- sampling -------------------------------------------------------------

    def _sample(self, signum, frame):
        while frame is not None:
            mod = frame.f_globals.get("__name__", "")
            if mod.startswith("linkage_lab."):
                self.samples[_short(mod)] += 1
                return
            frame = frame.f_back
        self.samples["other"] += 1

    def start_sampler(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop_sampler(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def dump(self, path: str, phase: str):
        """Append this phase's spans to `path` as one JSON line."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        rows = [[ids[s[0]], round(s[1], 7), round(s[2], 7), s[3]]
                for s in self.spans]
        with open(path, "a", encoding="utf-8") as fh:
            json.dump({"phase": phase, "names": names,
                       "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")


# -- metrics --------------------------------------------------------------------


def _outer_time(spans, member) -> tuple:
    """(calls, inclusive seconds) of spans selected by `member`, counting
    a span's time only when no enclosing span is selected too."""
    calls, total = 0, 0.0
    inside = [False] * len(spans)
    for i, s in enumerate(spans):
        parent_inside = s[3] >= 0 and inside[s[3]]
        if member(s):
            calls += 1
            if not parent_inside:
                total += s[2] - s[1]
            inside[i] = True
        else:
            inside[i] = parent_inside
    return calls, total


def _self_times(spans) -> Counter:
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    out: Counter = Counter()
    for i, s in enumerate(spans):
        out[s[0].split(".", 1)[0]] += s[2] - s[1] - child[i]
    return out


def _share(num, den) -> float:
    return num / den if den else 0.0


def cold_metrics(tracer: Tracer, memo_entries: int, ranks: list) -> dict:
    """Per-layer metrics of a cold pass; `ranks` are those of F_1, F_2, ...
    of the longest resolution of each module."""
    spans = tracer.spans
    self_s = _self_times(spans)
    m: dict = {}

    def named(*names):
        return _outer_time(spans, lambda s: s[0] in names)

    def layer(prefix):
        return _outer_time(spans, lambda s: s[0].startswith(prefix + "."))

    checks = [s for s in spans if s[0] == "theorems.check"]
    durations = sorted(s[2] - s[1] for s in checks)
    m["theorems.check.n"] = len(checks)
    m["theorems.self_s"] = self_s["theorems"]
    m["theorems.check.max_s"] = durations[-1] if durations else 0.0
    m["theorems.check.p90_ms"] = 1000 * (
        statistics.quantiles(durations, n=10)[8] if len(durations) > 1
        else sum(durations))
    for tid in ("G3_AB_FORMULA", "PROP_T13"):
        m[f"theorems.{tid}.s"] = sum(s[2] - s[1] for s in checks
                                     if s[4] == tid)

    m["invariants.n"], m["invariants.s"] = layer("invariants")
    m["invariants.self_s"] = self_s["invariants"]
    m["invariants.probe_primes.n"] = named("invariants.probe_primes")[0]
    m["invariants.serre_tilde.s"] = named("invariants.serre_tilde")[1]

    ext = [s for s in spans if s[0] == "homops.ext"]
    m["homops.ext.n"], m["homops.ext.s"] = named("homops.ext")
    m["homops.ext.max_i"] = max((s[4] for s in ext if s[4] is not None),
                                default=0)
    m["homops.hom.s"] = named("homops.hom_module",
                              "homops.hom_with_realizations")[1]
    m["homops.tor.s"] = named("homops.tor")[1]
    m["homops.transpose.s"] = named("homops.transpose")[1]
    m["homops.self_s"] = self_s["homops"]

    m["linkage.n"], m["linkage.s"] = layer("linkage")
    m["isomorphism.n"], m["isomorphism.s"] = layer("isomorphism")
    iso = [s[4] for s in spans if s[0] == "isomorphism.is_isomorphic"]
    m["isomorphism.resolved_share"] = _share(sum(bool(r) for r in iso),
                                             len(iso))

    m["resolutions.n"], m["resolutions.s"] = layer("resolutions")
    m["resolutions.self_s"] = self_s["resolutions"]
    m["resolutions.max_rank"] = max(ranks, default=0)
    m["resolutions.rank_sum"] = sum(ranks)
    m["resolutions.budget_errors"] = sum(
        1 for s in spans if s[0] == "resolutions.minimal_free_resolution"
        and s[5] == "BudgetError")

    for metric, fn in (("minimalize", "minimalize"),
                       ("subquotient", "subquotient"),
                       ("column_syzygies", "column_syzygies"),
                       ("mingens", "mingens_columns")):
        m[f"modules.{metric}.n"], m[f"modules.{metric}.s"] = named(
            f"modules.{fn}")
    shapes = [s[4] for s in spans
              if s[0] == "modules.mingens_columns" and s[4] is not None]
    m["modules.mingens.kept_share"] = _share(sum(k for _, k in shapes),
                                             sum(n for n, _ in shapes))
    m["modules.self_s"] = self_s["modules"]

    gbs = [s for s in spans if s[0] == "groebner.ModuleGB.__init__"]
    for mode, track in (("tracked", True), ("plain", False)):
        m[f"groebner.{mode}.n"], m[f"groebner.{mode}.s"] = _outer_time(
            spans, lambda s, t=track: s[0] == "groebner.ModuleGB.__init__"
            and s[4] is not None and s[4][0] == t)
    shapes = [s[4] for s in gbs if s[4] is not None]
    m["groebner.syzygies"] = sum(sh[3] for sh in shapes)
    m["groebner.basis_size"] = sum(sh[2] for sh in shapes)
    m["groebner.input_columns"] = sum(sh[1] for sh in shapes)
    m["groebner.self_s"] = self_s["groebner"]

    m["hilbert.numerator.n"], m["hilbert.numerator.s"] = named(
        "hilbert.monomial_quotient_numerator")

    total = sum(tracer.samples.values())
    for mod in SAMPLED + ("groebner",):
        m[f"{mod}.sample_share"] = _share(tracer.samples[mod], total)
    m["trace.samples"] = total

    calls, hits = tracer.memo_calls, tracer.memo_hits
    m["memo.get.n"] = sum(calls.values())
    m["memo.hit_share"] = _share(sum(hits.values()), sum(calls.values()))
    for op in ("span-gb", "ext", "minimalize"):
        m[f"memo.{op}.hit_share"] = _share(hits[op], calls[op])
    m["memo.entries"] = memo_entries

    m["cache.save.n"], m["cache.save.s"] = named("cache.DiskStore.save")
    written = dict(s[4] for s in spans if s[0] == "cache.DiskStore.save")
    m["cache.bytes_written"] = sum(written.values())
    m["runner.parse_s"] = named("dsl.parse")[1]
    m["runner.report_s"] = named("runner.report_json")[1]
    return m


def warm_metrics(tracer: Tracer) -> dict:
    """Disk-store metrics of a warm rerun (memo cleared, store filled)."""
    loads = [s for s in tracer.spans if s[0] == "cache.DiskStore.load"]
    read = [s[4] for s in loads if s[4] is not None and s[4] >= 0]
    n, secs = _outer_time(tracer.spans,
                          lambda s: s[0] == "cache.DiskStore.load")
    return {"cache.load.n": n, "cache.load.s": secs,
            "cache.load.hit_share": _share(len(read), len(loads)),
            "cache.bytes_read": sum(read)}
