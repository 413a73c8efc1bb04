"""Golden reports for the full corpus suites over four rings.

`suite [] on corpus(R, 8)` runs every theorem check of the default
battery over the first eight corpus modules of R, for

    H = QQ[x,y]/(xy)                          (Gorenstein hypersurface)
    T = QQ[x,y,z]/(yz,xz,xy)                  (CM, not Gorenstein)
    N = GF(32003)[x,y,z,w]/(xz,xw,yz,yw)      (not Cohen-Macaulay)
    U = T after y -> x+y, z -> x+y+z          (an ideal with tails)
    P = GF(32003)[a,b,c,d,e]/(ac,ad,bd,be,ce) (the pentagon: Gorenstein)
    Q = GF(32003)[a,b,c,d]/(ac,ad,bd)         (the path P_4: CM)

and the `report_json` of each run is stored in tests/golden/corpus_R.json.

What a report says must not depend on the field: the same script over
the other field (`OTHER_FIELD`: H, T and U over GF(32003), N, P and Q
over QQ)
gives the same `field_free` part of every report, its theorem id,
verdict, module label, and hypothesis names and labels.

The checks that need explicit ideal data (THM_THE1, COR_THEOREM3, COR_COR6,
THM_PROP_EVEN) are not in the default battery.  Their reports, from
`special_instances` over S = QQ[x,y] and T plus bindings that stop at each
stage of their hypotheses, are stored in tests/golden/special_instances.json.

Each whole pool (`POOLS`, the sizes CI's field step runs: each pool's
length, and for N its 36 entries and the first four of their twists that
are not already among them) is too large to store
report by report; its reports over the ring's own field are stored as
one SHA-256 each, keyed by theorem id and instance line, in
tests/golden/pool_digests.json.

    PYTHONPATH=src python tests/corpus_golden.py

rewrites the eight files from the library on the path.  Do that only for
an intended change of a verdict or a report; the test in
tests/test_corpus_golden.py reruns them and byte-compares.
"""

from __future__ import annotations

import hashlib
import json
import os

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

RINGS = {
    "H": ("QQ", "x, y", "x*y"),
    "T": ("QQ", "x, y, z", "y*z, x*z, x*y"),
    "N": ("GF(32003)", "x, y, z, w", "x*z, x*w, y*z, y*w"),
    "U": ("QQ", "x, y, z",
          "x^2 + x*y, x^2 + x*y + x*z, x^2 + 2*x*y + x*z + y^2 + y*z"),
    "P": ("GF(32003)", "a, b, c, d, e", "a*c, a*d, b*d, b*e, c*e"),
    "Q": ("GF(32003)", "a, b, c, d", "a*c, a*d, b*d"),
}


OTHER_FIELD = {"H": "GF(32003)", "T": "GF(32003)", "N": "QQ",
               "U": "GF(32003)", "P": "QQ", "Q": "QQ"}


def script(name: str, size: int = 8, field: str | None = None) -> str:
    own, names, rels = RINGS[name]
    return (f"ring {name}0 = poly({field or own}, {names});\n"
            f"ring {name} = quotient({name}0, [{rels}]);\n"
            f"suite [] on corpus({name}, {size});\n")


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"corpus_{name}.json")


def report(name: str, size: int = 8, field: str | None = None) -> str:
    from linkage_lab.dsl import parse
    from linkage_lab.runner import execute, report_json

    return report_json(execute(parse(script(name, size, field))))


def field_free(text: str) -> list:
    """Per report of a suite run's `report_json`, what must be the same
    over every field: (theorem id, verdict, module label, [(hypothesis
    name, label)]).  The module label is the instance line up to the
    ring, whose key names the field."""
    return [
        (r["theorem_id"], r["verdict"], r["instance"].split(" over ")[0],
         [(h["name"], h["label"]) for h in r["hypothesis_status"]])
        for entry in json.loads(text)["results"]
        for r in entry["report"]["reports"]
    ]


SPECIAL_PATH = os.path.join(GOLDEN_DIR, "special_instances.json")


def special_bindings() -> list:
    from linkage_lab.fields import QQ
    from linkage_lab.modules import cyclic_module, free_module
    from linkage_lab.rings import make_ring
    from linkage_lab.theorems import default_coefficient, special_instances

    S = make_ring(QQ, ["x", "y"])
    T = make_ring(QQ, ["x", "y", "z"], ["y*z", "x*z", "x*y"])
    C = default_coefficient(S)
    omega = ["x - y", "y - z"]
    Sx = cyclic_module(S, ["x"])
    Tx = cyclic_module(T, ["x"])

    def even(n, ideal2):
        return ("THM_PROP_EVEN", {"M": Sx, "C": C, "n": n, "ideal": ["x*y"],
                                  "ideal2": ideal2, "label": "S/(x)"})

    return special_instances(S) + special_instances(T) + [
        ("THM_THE1", {"M": free_module(T, [0]), "omega_ideal": omega,
                      "label": "R"}),
        ("THM_THE1", {"M": Tx, "omega_ideal": ["x"], "label": "R/(x)"}),
        ("THM_THE1", {"M": Sx, "omega_ideal": ["x", "y"], "label": "S/(x)"}),
        # the unit ideal: R/I and its linkage image are zero
        ("COR_THEOREM3", {"ring": T, "I": ["1"], "omega_ideal": omega}),
        ("COR_THEOREM3", {"ring": T, "I": ["x", "y"], "omega_ideal": omega}),
        ("COR_THEOREM3", {"ring": T, "I": ["x"], "omega_ideal": ["x"]}),
        ("COR_THEOREM3", {"ring": S, "I": ["x"], "omega_ideal": ["x"]}),
        # stage 1 (the ideal does not annihilate M), stage 2 (the residue
        # field is not linked over S/(xy)), and a second verified ideal
        ("COR_COR6", {"M": Sx, "C": C, "ideal": ["y"], "label": "S/(x)"}),
        ("COR_COR6", {"M": cyclic_module(S, ["x", "y"]), "C": C,
                      "ideal": ["x*y"], "label": "k"}),
        ("COR_COR6", {"M": Sx, "C": C, "ideal": ["x^2"], "label": "S/(x)"}),
        even(1, ["x^2", "x*y"]),
        even(0, ["x^2 + x*y"]),
        even(1, ["y"]),
    ]


POOLS = {"H": 19, "T": 28, "N": 40, "U": 28, "P": 46, "Q": 36}
DIGESTS_PATH = os.path.join(GOLDEN_DIR, "pool_digests.json")


def pool_digests(name: str) -> dict:
    """{"theorem id | instance": SHA-256 of the report's sorted JSON} over
    the whole pool of R; a key met twice raises, since no two corpus
    entries share a label.  The memo is emptied first, so a pool costs the
    same whatever ran before it."""
    from linkage_lab import memo

    memo.clear()
    out = {}
    for entry in json.loads(report(name, POOLS[name]))["results"]:
        for r in entry["report"]["reports"]:
            key = f"{r['theorem_id']} | {r['instance']}"
            if key in out:
                raise ValueError(f"report key met twice: {key}")
            text = json.dumps(r, sort_keys=True)
            out[key] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


def pool_digests_json() -> str:
    digests = {name: pool_digests(name) for name in POOLS}
    return json.dumps(digests, sort_keys=True, indent=1) + "\n"


def special_report() -> str:
    from linkage_lab.theorems import check

    reports = [check(tid, b).to_dict() for tid, b in special_bindings()]
    return json.dumps(reports, sort_keys=True, indent=2) + "\n"


def main() -> None:
    for name in RINGS:
        with open(golden_path(name), "w", encoding="utf-8") as fh:
            fh.write(report(name))
    with open(SPECIAL_PATH, "w", encoding="utf-8") as fh:
        fh.write(special_report())
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        fh.write(pool_digests_json())


if __name__ == "__main__":
    main()
