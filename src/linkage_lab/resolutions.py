"""Minimal graded free resolutions.

F_0 <- F_1 <- ... built step by step: d_1 is the minimalized
presentation, d_{i+1} a minimal generating set of the syzygies of the
columns of d_i.  Over the ambient polynomial ring this terminates within
n steps; over a proper quotient it usually does not, so construction is
lazy up to a requested length and records completion when a syzygy step
comes back empty (then pd = number of maps and the last syzygy module is
free).

One Groebner run per step.  The syzygies of d_1 come from
column_syzygies; they are the candidates of step 2.  Step i >= 2 is one
minimal run (modules.minimal_step) over its candidates: the kept ones
are the columns of d_i, and, when a further step is wanted, the same run
is tracked and harvests the syzygies of d_i, the candidates of step
i + 1.  The last requested step runs plain, and the state keeps its
candidates; a later extension re-runs that step tracked, checks that it
keeps the same columns, and harvests.  Tracked or plain, a run keeps the
same columns, and a harvest depends on the run's candidates alone, so
every map is a function of the module: neither the lengths asked for
before nor a disk-store load changes it.

Results memoize in process and, when a store is installed, persist in a
content-addressed cache keyed by (ring presentation, minimal module
presentation, length).  A record holds the twists, the maps, the
completion flag and the candidates of the last map (null while that map
is d_1); a record without candidates is a miss and is recomputed.
"""

from __future__ import annotations

from . import memo
from .config import DEFAULT_BUDGETS
from .errors import BudgetError, ConsistencyError
from .groebner import column_degree
from .modules import (
    ModulePresentation,
    column_syzygies,
    free_module,
    minimal_step,
    minimalize,
    zero_module,
)

_STORE = None


def set_resolution_store(store):
    """Install a persistent cache with .load(key) / .save(key, record)."""
    global _STORE
    _STORE = store


class Resolution:
    """twists[i] are the degrees of F_i; maps[i] is d_{i+1} (columns in F_i)."""

    def __init__(self, module: ModulePresentation, twists, maps, complete: bool):
        self.module = module
        self.ring = module.ring
        self.twists = [tuple(t) for t in twists]
        # snapshot: the backing memo state may be extended by later calls
        self.maps = [list(cols) for cols in maps]
        self.complete = complete

    def length(self) -> int:
        return len(self.maps)

    def projective_dimension(self):
        """Exact pd when complete, else None."""
        if not self.complete:
            return None
        pd = len(self.maps)
        while pd > 0 and not self.twists[pd]:
            pd -= 1
        return pd

    def rank(self, i: int) -> int:
        if i < len(self.twists):
            return len(self.twists[i])
        return 0

    def twists_at(self, i: int):
        if i < len(self.twists):
            return self.twists[i]
        if self.complete:
            return ()
        raise ValueError(f"resolution only computed to length {self.length()}")

    def betti_row(self, i: int) -> dict:
        out: dict = {}
        for d in self.twists_at(i):
            out[d] = out.get(d, 0) + 1
        return out

    def syzygy_module(self, i: int) -> ModulePresentation:
        """The i-th syzygy as a presentation (gens F_i, relations d_{i+1})."""
        if i == 0:
            return minimalize(self.module)
        if i < len(self.maps):
            return ModulePresentation(
                self.ring, self.twists[i], self.twists[i + 1], list(self.maps[i])
            )
        if self.complete:
            if i == len(self.maps) and i < len(self.twists):
                return free_module(self.ring, self.twists[i])
            return zero_module(self.ring)
        raise ValueError(f"resolution only computed to length {self.length()}")


def _columns_text(cols) -> list:
    return [{str(i): str(p) for i, p in col.items()} for col in cols]


def _columns_parsed(ring, cols) -> list:
    return [{int(i): ring.poly_ring.parse(s) for i, s in col.items()}
            for col in cols]


def _record_from_state(state) -> dict:
    cands = state["candidates"]
    return {
        "twists": [list(t) for t in state["twists"]],
        "maps": [_columns_text(cols) for cols in state["maps"]],
        "complete": state["complete"],
        "candidates": None if cands is None else _columns_text(cands),
    }


def _state_from_record(ring, record) -> dict:
    cands = record["candidates"]
    return {
        "twists": [tuple(t) for t in record["twists"]],
        "maps": [_columns_parsed(ring, cols) for cols in record["maps"]],
        "complete": bool(record["complete"]),
        "candidates": None if cands is None else _columns_parsed(ring, cands),
    }


def _valid_record(record) -> bool:
    return (
        isinstance(record, dict)
        and isinstance(record.get("twists"), list)
        and isinstance(record.get("maps"), list)
        and "complete" in record
        and len(record["twists"]) == len(record["maps"]) + 1
        and "candidates" in record
        and isinstance(record["candidates"], list) == (len(record["maps"]) >= 2)
    )


def minimal_free_resolution(M: ModulePresentation, length: int, *,
                            budgets=None) -> Resolution:
    """Resolution with at least `length` maps, or complete with fewer."""
    budgets = budgets or DEFAULT_BUDGETS
    Mmin = minimalize(M)
    ring = Mmin.ring
    key = Mmin.content_key()
    state = memo.get("resolution", key)
    if state is None:
        if Mmin.n_rels() == 0:
            state = {
                "twists": [Mmin.gen_twists],
                "maps": [],
                "complete": True,
                "candidates": None,
            }
        else:
            state = {
                "twists": [Mmin.gen_twists, Mmin.rel_twists],
                "maps": [list(Mmin.columns)],
                "complete": False,
                "candidates": None,
            }
        state = memo.put("resolution", key, state)
    if _STORE is not None and not state["complete"] and len(state["maps"]) < length:
        cache_key = memo.content_hash("resolution", Mmin.serialize(), str(length))
        record = _STORE.load(cache_key)
        if record is not None and _valid_record(record):
            cached = _state_from_record(ring, record)
            if len(cached["maps"]) > len(state["maps"]):
                state.update(cached)
    dirty = False
    following = None  # candidates of the next step, once harvested
    while not state["complete"] and len(state["maps"]) < length:
        twists = state["twists"]
        if following is None:
            if state["candidates"] is None:
                following = column_syzygies(
                    ring, state["maps"][-1], twists[-2],
                    max_degree=budgets.max_degree,
                )
            else:
                kept, following = minimal_step(
                    ring, state["candidates"], twists[-2], harvest=True,
                    max_degree=budgets.max_degree,
                )
                if [state["candidates"][j] for j in kept] != state["maps"][-1]:
                    raise ConsistencyError(
                        "a resolution step kept other columns on its re-run")
        candidates = following
        dirty = True
        if not candidates:
            state["complete"] = True
            break
        kept, following = minimal_step(
            ring, candidates, twists[-1],
            harvest=len(state["maps"]) + 1 < length,
            max_degree=budgets.max_degree,
        )
        if len(kept) > budgets.max_rank:
            raise BudgetError("resolution rank", budgets.max_rank)
        new_cols = [candidates[j] for j in kept]
        state["maps"].append(new_cols)
        state["candidates"] = candidates
        twists.append(tuple(column_degree(c, twists[-1]) for c in new_cols))
    if _STORE is not None and dirty:
        cache_key = memo.content_hash("resolution", Mmin.serialize(), str(length))
        _STORE.save(cache_key, _record_from_state(state))
    return Resolution(Mmin, state["twists"], state["maps"], state["complete"])


def betti(M: ModulePresentation, i: int) -> dict:
    """Graded Betti numbers beta_{i,j} as {j: count}."""
    res = minimal_free_resolution(M, i)
    return res.betti_row(i)
