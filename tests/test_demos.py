"""Demo report gate: every demo's output is byte-identical to its golden file.

The `.link` demos run through parse -> execute -> report_json, the path of
`linkage-lab run --json`; the library tour runs as a script.  A change
that moves a verdict or a printed invariant fails here until its golden
file under tests/golden/ is regenerated on purpose.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from linkage_lab.dsl import parse
from linkage_lab.runner import execute, report_json

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "name", ["01_linked_pair", "02_canonical_module", "03_corpus_suite",
             "05_nonmonomial_ring"]
)
def test_link_demo_report_matches_golden(name):
    source = (DEMOS / f"{name}.link").read_text(encoding="utf-8")
    report = report_json(execute(parse(source)))
    assert report == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_api_tour_output_matches_golden():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    out = subprocess.run(
        [sys.executable, str(DEMOS / "04_api_tour.py")],
        cwd=ROOT, env=env, capture_output=True, check=True,
    )
    assert out.stdout == (GOLDEN / "04_api_tour.txt").read_bytes()
