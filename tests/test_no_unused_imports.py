"""No unused imports: a static scan of the package source.

Every name that a module under ``src/sl2cohom`` imports must be read in
that module.  A read is a name anywhere in the module, including inside a
string annotation such as ``-> "Polynomial"``, or an entry of the
module's ``__all__``, which names what a module exports.  No package
module has an ``__all__`` (the package root imports nothing), but the
rule keeps a re-export from reading as an unused import.
``from __future__ import ...`` binds no name and is skipped.
"""

import ast
from pathlib import Path

import sl2cohom

PACKAGE = Path(sl2cohom.__file__).parent


def imported(tree):
    """(bound name, line) of every import in the module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(alias.asname or alias.name.split(".")[0], node.lineno)
                    for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(alias.asname or alias.name, node.lineno) for alias in node.names]
    return out


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def read_names(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    names |= read_names(ast.parse(node.value, mode="eval"))
                except SyntaxError:  # a Literal["..."] value, not an expression
                    pass
    for node in tree.body if isinstance(tree, ast.Module) else ():
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return names


def unused_imports(module, source):
    tree = ast.parse(source)
    read = read_names(tree)
    return [f"{module}.py:{line}: {name}" for name, line in imported(tree) if name not in read]


def test_package_modules_read_every_name_they_import():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10, modules
    offences = []
    for path in modules:
        offences += unused_imports(path.stem, path.read_text())
    assert offences == []


def test_the_scan_flags_a_planted_unused_import():
    source = '''
from __future__ import annotations
import os
import os.path as osp
import xml.dom
from typing import Mapping, Optional, Sequence
from .polynomials import Polynomial as P, exact, parse_rational

__all__ = ["exact"]

def f(a: Optional[int], b: "Mapping[str, P]") -> "list[int]":
    return xml.dom
'''
    assert unused_imports("mod", source) == [
        "mod.py:3: os", "mod.py:4: osp", "mod.py:6: Sequence", "mod.py:7: parse_rational"]
