"""`report_json` writes the bytes of json.dumps(payload, sort_keys=True,
indent=2) with its own recursive writer: checked on every stored JSON
golden and on payloads at the edges of the format."""

import glob
import json
import os

import pytest

from linkage_lab.dsl import parse
from linkage_lab.runner import _write_json, execute, report_json

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")


def _written(payload) -> str:
    out: list = []
    _write_json(payload, "\n", out)
    return "".join(out)


def _reference(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(GOLDEN_DIR, "*.json"))),
    ids=os.path.basename)
def test_goldens_are_written_byte_for_byte(path):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert _written(payload) == _reference(payload)


EDGE_PAYLOADS = [
    {},
    [],
    {"a": {}, "b": [], "c": [[], {}, [[]], {"d": {}}]},
    ["é", "ß ü", "∃", "\U0001d55c", "snowman ☃"],
    {"quote \"": "back\\slash", "ctl": "\n\t\r\b\f\x00\x1f", "/": "</"},
    {"bound": "infinity", "x": float("inf"), "y": float("-inf")},
    {"t": True, "f": False, "n": None, "nested": [True, [False, [None]]]},
    {"i": [0, -3, 10 ** 30], "f": [1.5, -0.0, 0.1, 1e-300, 2.5e20]},
    {"2": "b", "10": "a", "Z": 0, "a": 1, "é": 2},
    {3: "int keys sort as numbers", 10: [], 1: {}},
    (1, ("tuple", ())),
    "top-level string",
    7,
    None,
]


@pytest.mark.parametrize("payload", EDGE_PAYLOADS,
                         ids=[str(i) for i in range(len(EDGE_PAYLOADS))])
def test_edge_payloads_are_written_byte_for_byte(payload):
    assert _written(payload) == _reference(payload)


def test_report_json_of_a_run_is_the_indented_dump():
    script = ("ring S = poly(QQ, x, y);\n"
              "ring H = quotient(S, [x*y]);\n"
              "module M = coker(H, twists=[0], matrix=[[x]]);\n"
              "print betti(M, 2);\n"
              "print depth(M);\n")
    text = report_json(execute(parse(script)))
    assert text == _reference(json.loads(text)) + "\n"
