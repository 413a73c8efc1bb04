"""Minimal graded free resolutions.

F_0 <- F_1 <- ... built step by step: d_1 is the minimalized
presentation, d_{i+1} a minimal generating set of the syzygies of the
columns of d_i.  Over the ambient polynomial ring this terminates within
n steps; over a proper quotient it usually does not, so construction is
lazy up to a requested length and records completion when a syzygy step
comes back empty (then pd = number of maps and the last syzygy module is
free).

Results memoize in process and, when a store is installed, persist in a
content-addressed cache keyed by (ring presentation, minimal module
presentation, length).
"""

from __future__ import annotations

from . import memo
from .config import DEFAULT_BUDGETS
from .errors import BudgetError
from .groebner import column_degree
from .modules import (
    ModulePresentation,
    column_syzygies,
    free_module,
    mingens_columns,
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


def _record_from_state(state) -> dict:
    return {
        "twists": [list(t) for t in state["twists"]],
        "maps": [
            [
                {str(i): str(p) for i, p in col.items()}
                for col in cols
            ]
            for cols in state["maps"]
        ],
        "complete": state["complete"],
    }


def _state_from_record(ring, record) -> dict:
    maps = []
    for cols in record["maps"]:
        maps.append(
            [
                {int(i): ring.poly_ring.parse(s) for i, s in col.items()}
                for col in cols
            ]
        )
    return {
        "twists": [tuple(t) for t in record["twists"]],
        "maps": maps,
        "complete": bool(record["complete"]),
    }


def _valid_record(record) -> bool:
    return (
        isinstance(record, dict)
        and isinstance(record.get("twists"), list)
        and isinstance(record.get("maps"), list)
        and "complete" in record
        and len(record["twists"]) == len(record["maps"]) + 1
    )


def minimal_free_resolution(M: ModulePresentation, length: int, *,
                            budgets=None) -> Resolution:
    """Resolution with at least `length` maps, or complete with fewer."""
    budgets = budgets or DEFAULT_BUDGETS
    Mmin = minimalize(M)
    key = Mmin.content_key()
    state = memo.get("resolution", key)
    if state is None:
        if Mmin.n_rels() == 0:
            state = {
                "twists": [Mmin.gen_twists],
                "maps": [],
                "complete": True,
            }
        else:
            state = {
                "twists": [Mmin.gen_twists, Mmin.rel_twists],
                "maps": [list(Mmin.columns)],
                "complete": False,
            }
        state = memo.put("resolution", key, state)
    if _STORE is not None and not state["complete"] and len(state["maps"]) < length:
        cache_key = memo.content_hash("resolution", Mmin.serialize(), str(length))
        record = _STORE.load(cache_key)
        if record is not None and _valid_record(record):
            cached = _state_from_record(Mmin.ring, record)
            if len(cached["maps"]) > len(state["maps"]):
                state["twists"] = cached["twists"]
                state["maps"] = cached["maps"]
                state["complete"] = cached["complete"]
    dirty = False
    while not state["complete"] and len(state["maps"]) < length:
        cols = state["maps"][-1]
        ambient = state["twists"][-2]
        syz = column_syzygies(
            Mmin.ring, cols, ambient, max_degree=budgets.max_degree
        )
        kept = mingens_columns(
            Mmin.ring, syz, state["twists"][-1], max_degree=budgets.max_degree
        )
        new_cols = [syz[j] for j in kept]
        dirty = True
        if not new_cols:
            state["complete"] = True
            break
        if len(new_cols) > budgets.max_rank:
            raise BudgetError("resolution rank", budgets.max_rank)
        state["maps"].append(new_cols)
        state["twists"].append(
            tuple(column_degree(c, state["twists"][-1]) for c in new_cols)
        )
    if _STORE is not None and dirty:
        cache_key = memo.content_hash("resolution", Mmin.serialize(), str(length))
        _STORE.save(cache_key, _record_from_state(state))
    return Resolution(Mmin, state["twists"], state["maps"], state["complete"])


def betti(M: ModulePresentation, i: int) -> dict:
    """Graded Betti numbers beta_{i,j} as {j: count}."""
    res = minimal_free_resolution(M, i)
    return res.betti_row(i)
