"""Dead-name guard for the library: no unused parameter of a module-level
function, no unused import outside a package's __init__.py (in the tests
too), and no module-level function or class method that nothing
references.

Standard library only (`ast`).  A parameter counts as used when its name is
read anywhere in the function, nested functions included; an import counts
as used when its bound name appears anywhere in the module or in __all__.
A function or method counts as used when its name appears as a name or
an imported name anywhere in src/, demos/ or perfbench/, or in the
package's `_EXPORTS` table, or as an attribute: a method as any attribute, a
module-level function of m.py only as m.<name>.  So a method counts as
used whenever any attribute anywhere has its name, whatever object it is
read from.  Dunder methods are called implicitly and always count as
used.  A reference from tests/ does not count: the library keeps no API
for its tests alone, with no exceptions.
"""

import ast
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src", "linkage_lab")
TESTS = os.path.join(ROOT, "tests")
REFERENCING = ("src", "demos", "perfbench")


def _modules(directory=SRC):
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), filename=path)


def _names_read(node) -> set:
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def unused_parameters() -> list:
    out = []
    for name, tree in _modules():
        for fn in tree.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs
            params += [p for p in (a.vararg, a.kwarg) if p is not None]
            read = set().union(*(_names_read(s) for s in fn.body))
            out += [f"{name}:{fn.lineno} {fn.name}({p.arg})"
                    for p in params if p.arg not in read]
    return out


def unused_imports() -> list:
    """Over the library's modules and tests/*.py."""
    out = []
    tests = [(f"tests/{name}", tree) for name, tree in _modules(TESTS)]
    for name, tree in [*_modules(), *tests]:
        if name == "__init__.py":
            continue
        read = _names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [(a.asname or a.name).split(".")[0]
                         for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            out += [f"{name}:{node.lineno} {b}" for b in bound
                    if b not in read]
    return out


def _referencing_trees():
    for top in REFERENCING:
        for dirpath, _dirs, files in os.walk(os.path.join(ROOT, top)):
            for f in files:
                if f.endswith(".py"):
                    path = os.path.join(dirpath, f)
                    with open(path, encoding="utf-8") as fh:
                        yield ast.parse(fh.read(), filename=path)


def _references(trees) -> tuple:
    """(names, attributes): every name, imported name and `_EXPORTS` entry,
    and every attribute as a (base, attr) pair, base the name it is read
    from (None when that is not a plain name)."""
    names, attrs = set(), set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                base = n.value.id if isinstance(n.value, ast.Name) else None
                attrs.add((base, n.attr))
            elif isinstance(n, ast.alias):
                names.add(n.name.rsplit(".", 1)[-1])
            elif isinstance(n, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "_EXPORTS"
                    for t in n.targets):
                names.update(e.value for t in n.value.values
                             for e in t.elts)
    return names, attrs


def dead_functions(modules, trees) -> list:
    """The functions and methods of modules [(file name, tree)] that no
    tree references.  A module-level function f of m.py counts as
    referenced through an attribute only as m.f, so a method or field of
    the same name does not hide it; a method, through any attribute."""
    names, attrs = _references(trees)
    attr_names = {a for _, a in attrs}
    out = []
    for name, tree in modules:
        module = name[:-len(".py")]
        defs = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.", m) for m in node.body]
            else:
                defs.append(("", node))
        out += [f"{name}:{fn.lineno} {owner}{fn.name}" for owner, fn in defs
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (fn.name.startswith("__") and fn.name.endswith("__"))
                and fn.name not in names
                and not (fn.name in attr_names if owner
                         else (module, fn.name) in attrs)]
    return out


def unused_functions() -> list:
    return dead_functions(_modules(), _referencing_trees())


def test_no_unused_parameters():
    assert unused_parameters() == []


def test_no_unused_imports():
    assert unused_imports() == []


def test_no_unused_functions():
    assert unused_functions() == []


def test_a_same_named_method_does_not_hide_a_dead_function():
    lib = ast.parse("def f():\n    pass\n\n\nclass C:\n"
                    "    def f(self):\n        pass\n")
    modules = [("m.py", lib)]
    assert dead_functions(modules, [ast.parse("C().f()")]) == ["m.py:1 f"]
    assert dead_functions(modules, [ast.parse("x.f()")]) == ["m.py:1 f"]
    assert dead_functions(modules, [ast.parse("m.f()\nC().f()")]) == []
    assert dead_functions(modules, [ast.parse("from m import f\n"
                                              "C().f()")]) == []
