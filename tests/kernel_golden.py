"""Golden data for the module Groebner kernel.

A fixed set of inputs over QQ and GF(32003) -- including the Koszul
module K and the module W of the `resolve-qq` benchmark, and later steps
of minimal free resolutions of them -- with the kernel's exact outputs:
reduced bases, leading terms, tracked syzygies, normal forms and lifts,
term by term in the order the kernel emits them.  Each step after the
first is a minimal generating subset of the syzygies of the step before
(`column_syzygies`, then `mingens_columns`), not the map
`minimal_free_resolution` picks, so the inputs stay put when the
resolution engine changes its choice of basis.

    PYTHONPATH=src python tests/kernel_golden.py

rewrites tests/golden/kernel.json from the kernel on the path.  Do that
only for an intended change of the kernel's arithmetic; the test in
tests/test_kernel.py recomputes the outputs from the stored inputs and
compares them with the stored outputs.
"""

from __future__ import annotations

import json
import os

from linkage_lab.fields import field_from_name
from linkage_lab.groebner import ModuleGB
from linkage_lab.polynomials import PolyRing

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "kernel.json")


def _columns_text(columns) -> list:
    return [{str(pos): str(p) for pos, p in sorted(c.items())} for c in columns]


def _probes(S, columns, twists) -> list:
    """Deterministic test vectors: a member of the span and a perturbation."""
    probes = []
    gens = S.gens()
    member = {}
    for t, c in enumerate(columns[:4]):
        g = gens[t % len(gens)]
        for pos, p in c.items():
            member[pos] = member.get(pos, S.zero()) + g * p
    member = {pos: p for pos, p in member.items() if not p.is_zero()}
    if member:
        probes.append(member)
        pos = min(member)
        bumped = dict(member)
        deg = member[pos].degree()
        bumped[pos] = member[pos] + S.monomial((0,) * (S.nvars - 1) + (deg,),
                                               S.field.from_fraction(3, 2))
        probes.append({p: q for p, q in bumped.items() if not q.is_zero()})
    probes.append({len(twists) - 1: S.parse("+".join(S.names))})
    return probes


def _input_cases() -> list:
    """The fixed inputs, built once from the library's own constructors."""
    from linkage_lab.fields import GF, QQ
    from linkage_lab.groebner import column_degree
    from linkage_lab.modules import (
        ModulePresentation,
        column_syzygies,
        cyclic_module,
        mingens_columns,
        minimalize,
    )
    from linkage_lab.rings import make_ring

    cases = []
    T = make_ring(QQ, ["x", "y", "z"], ["y*z", "x*z", "x*y"])
    N = make_ring(GF(32003), ["x", "y", "z", "w"], ["x*z", "x*w", "y*z", "y*w"])
    x, y, z = T.poly_ring.gens()
    env = {
        "K": cyclic_module(T, ["x", "y", "z"]),
        "W": ModulePresentation(T, [0, 0], [1, 1, 1],
                                [{0: x}, {0: y, 1: y - z}, {1: x}]),
        "Q": cyclic_module(N, ["x + y", "z^2 - 2*w^2"]),
    }
    for name, steps in (("K", 3), ("W", 3), ("Q", 2)):
        M = minimalize(env[name])
        ring = M.ring
        maps = [list(M.columns)]
        twists = [list(M.gen_twists), list(M.rel_twists)]
        while len(maps) < steps:
            syz = column_syzygies(ring, maps[-1], twists[-2])
            cols = [syz[t] for t in mingens_columns(ring, syz, twists[-1])]
            maps.append(cols)
            twists.append([column_degree(c, twists[-1]) for c in cols])
        for k in range(steps):
            cases.append({
                "name": f"{name}-step{k}",
                "field": ring.field.name,
                "vars": list(ring.names),
                "twists": twists[k],
                "columns": _columns_text(maps[k] + ring.aug_columns(twists[k])),
            })
    extra = (
        ("cubic-QQ", "QQ", ["x", "y", "z"], [0],
         [{0: "2*x*y - 3*z^2"}, {0: "x^2 - 1/2*y*z"}, {0: "y^2 - 5/3*x*z"}]),
        ("cubic-GF", "GF(32003)", ["x", "y", "z"], [0],
         [{0: "2*x*y - 3*z^2"}, {0: "x^2 - 7*y*z"}, {0: "y^2 - 5*x*z"}]),
        ("module-QQ", "QQ", ["x", "y", "z"], [0, 1],
         [{0: "x^2 + 1/2*y*z", 1: "3*x"}, {0: "y^2", 1: "y - 2/5*z"},
          {0: "x*z - z^2", 1: "x + y + z"}, {0: "x*y*z", 1: "2*z^2"}]),
        ("module-GF", "GF(32003)", ["x", "y", "z", "w"], [1, 0, 0],
         [{0: "x", 1: "y^2 - z*w", 2: "3*w^2"}, {0: "y", 1: "x*z", 2: "x^2 - w^2"},
          {1: "z^2 + 2*x*w", 2: "y*z"}, {0: "z + w", 2: "x*y"}]),
    )
    for name, field, names, twists, cols in extra:
        cases.append({"name": name, "field": field, "vars": names,
                      "twists": twists,
                      "columns": [{str(p): s for p, s in c.items()} for c in cols]})
    for case in cases:
        S = PolyRing(field_from_name(case["field"]), case["vars"])
        cols = _parse_columns(S, case["columns"])
        case["probes"] = _columns_text(_probes(S, cols, case["twists"]))
    return cases


def _parse_columns(S, text) -> list:
    return [{int(pos): S.parse(p) for pos, p in c.items()} for c in text]


def _column_text(col) -> list:
    return [[pos, [[list(m), str(c)] for m, c in p.terms.items()]]
            for pos, p in col.items()]


def run_case(case) -> dict:
    """The kernel's outputs on one case, serialized term by term."""
    S = PolyRing(field_from_name(case["field"]), case["vars"])
    cols = _parse_columns(S, case["columns"])
    probes = _parse_columns(S, case["probes"])
    out = {}
    for mode, track in (("plain", False), ("tracked", True)):
        gb = ModuleGB(S, cols, case["twists"], track=track)
        res = {
            "basis": [_column_text(c) for c in gb.basis_columns()],
            "leads": [[pos, list(m)] for pos, m in gb.leading_terms()],
            "normal_forms": [_column_text(gb.normal_form(p)) for p in probes],
        }
        if track:
            res["syzygies"] = [_column_text(s) for s in gb.syzygies]
            lifts = [gb.lift(p) for p in probes]
            res["lifts"] = [None if v is None else _column_text(v) for v in lifts]
        out[mode] = res
    return out


def main() -> None:
    cases = _input_cases()
    data = [dict(case, expected=run_case(case)) for case in cases]
    lines = [json.dumps(case, separators=(",", ":")) for case in data]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(lines) + "\n]\n")


if __name__ == "__main__":
    main()
