"""Golden reports for the full corpus suites over three rings.

`suite [] on corpus(R, 8)` runs every theorem check of the default
battery over the first eight corpus modules of R, for

    H = QQ[x,y]/(xy)                          (Gorenstein hypersurface)
    T = QQ[x,y,z]/(yz,xz,xy)                  (CM, not Gorenstein)
    N = GF(32003)[x,y,z,w]/(xz,xw,yz,yw)      (not Cohen-Macaulay)

and the `report_json` of each run is stored in tests/golden/corpus_R.json.

    PYTHONPATH=src python tests/corpus_golden.py

rewrites the three files from the library on the path.  Do that only for
an intended change of a verdict or a report; the test in
tests/test_corpus_golden.py reruns the scripts and byte-compares.
"""

from __future__ import annotations

import os

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

RINGS = {
    "H": ("QQ", "x, y", "x*y"),
    "T": ("QQ", "x, y, z", "y*z, x*z, x*y"),
    "N": ("GF(32003)", "x, y, z, w", "x*z, x*w, y*z, y*w"),
}


def script(name: str) -> str:
    field, names, rels = RINGS[name]
    return (f"ring {name}0 = poly({field}, {names});\n"
            f"ring {name} = quotient({name}0, [{rels}]);\n"
            f"suite [] on corpus({name}, 8);\n")


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"corpus_{name}.json")


def report(name: str) -> str:
    from linkage_lab.dsl import parse
    from linkage_lab.runner import execute, report_json

    return report_json(execute(parse(script(name))))


def main() -> None:
    for name in RINGS:
        with open(golden_path(name), "w", encoding="utf-8") as fh:
            fh.write(report(name))


if __name__ == "__main__":
    main()
