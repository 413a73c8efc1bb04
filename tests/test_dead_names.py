"""Dead-name guard for the library: no unused parameter of a module-level
function and no unused import outside a package's __init__.py.

Standard library only (`ast`).  A parameter counts as used when its name is
read anywhere in the function, nested functions included; an import counts
as used when its bound name appears anywhere in the module or in __all__.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "linkage_lab")


def _modules():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
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
    out = []
    for name, tree in _modules():
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


def test_no_unused_parameters():
    assert unused_parameters() == []


def test_no_unused_imports():
    assert unused_imports() == []
