"""The package imports a layer only when a script first uses it.

`import linkage_lab` binds its public names lazily (PEP 562), and the
runner imports the homops, resolution, corpus, theorem, invariant,
isomorphism and linkage layers in the branches that need them; nothing on
the set-up path defines a dataclass.  Each test that watches
`sys.modules` runs in a fresh interpreter, since this one has long
imported everything.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import linkage_lab

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")
# The layers a script loads only when it uses them, and `dataclasses`,
# which only the theorem, invariant, isomorphism and linkage layers use.
WATCHED = ("linkage_lab.theorems", "linkage_lab.invariants",
           "linkage_lab.isomorphism", "linkage_lab.linkage",
           "linkage_lab.homops", "linkage_lab.resolutions",
           "linkage_lab.corpus", "dataclasses")
DECLARATIONS = """\
ring S = poly(QQ, x, y);
ring H = quotient(S, [x*y]);
module M = coker(H, twists=[0], matrix=[[x]]);
"""


def _fresh(code: str):
    """The JSON value that `code` prints last, run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _layers_loaded_by(body: str) -> list:
    script = DECLARATIONS + body
    return _fresh(f"""
import json, sys
import linkage_lab
from linkage_lab import execute, parse, report_json
report_json(execute(parse({script!r})))
print(json.dumps([m for m in {WATCHED!r} if m in sys.modules]))
""")


def test_a_declaration_script_loads_none_of_the_layers():
    assert _layers_loaded_by("print M;\n") == []


def test_a_betti_script_loads_none_of_the_upper_layers():
    assert _layers_loaded_by("print betti(M, 3);\nprint M;\n") == \
        ["linkage_lab.resolutions"]


@pytest.mark.parametrize("body", [
    "check THM_MS(M = M);\n",
    "suite [THM_MS] on corpus(H, 1);\n",
])
def test_a_check_or_suite_script_loads_them(body):
    """Every layer; the corpus only for a suite, which builds one."""
    assert _layers_loaded_by(body) == [
        m for m in WATCHED
        if m != "linkage_lab.corpus" or body.startswith("suite")]


def test_star_import_binds_each_name_of_its_defining_module():
    mismatched = _fresh("""
import importlib, inspect, json
import linkage_lab
names = {}
exec("from linkage_lab import *", names)
bad = []
for name in linkage_lab.__all__:
    if name == "__version__":
        continue
    home = importlib.import_module(
        "linkage_lab." + linkage_lab._MODULE_OF[name])
    obj = names[name]
    defined_there = (not (inspect.isfunction(obj) or inspect.isclass(obj))
                     or obj.__module__ == home.__name__)
    if obj is not getattr(home, name) or not defined_there:
        bad.append(name)
print(json.dumps(bad))
""")
    assert mismatched == []


def test_the_lazy_table_is_all():
    table = [n for names in linkage_lab._EXPORTS.values() for n in names]
    assert len(table) == len(set(table))
    assert set(table) == set(linkage_lab.__all__) - {"__version__"}
    assert set(linkage_lab.__all__) <= set(dir(linkage_lab))


def test_infinity_is_one_object():
    invariants = importlib.import_module("linkage_lab.invariants")
    config = importlib.import_module("linkage_lab.config")
    assert linkage_lab.INFINITY is config.INFINITY is invariants.INFINITY


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        linkage_lab.no_such_name  # noqa: B018
