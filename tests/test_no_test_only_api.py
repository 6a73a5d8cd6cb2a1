"""No public API that only tests call: a static scan of the package source.

Every public module-level function, class, constant and alias, and every
public method, in ``src/sl2cohom`` (``__init__`` and ``__main__`` aside)
must be used by the program or the benchmark.  A use is a name or an
attribute in a package module other than ``__init__``, or a name, an
attribute or a string constant in ``perfbench``, whose tracer binds
functions by their names.

A use in the package counts only outside the body of the definition it
names, so a function that only calls itself is unused, and only outside
the body of every definition already found unused, so a chain of calls
that nothing enters is unused as a whole.  The unused set is grown until
it stops changing.  The allow-listed reference routes stay roots: their
bodies still count as uses.  The scan matches names only, so a method
that shares its name with a name used elsewhere (any ``to_json_dict``
beside the ones the commands call, say) still passes.

The package root imports nothing, so it re-exports nothing: callers
import the submodules.
"""

import ast
from collections import defaultdict
from pathlib import Path

import sl2cohom

PACKAGE = Path(sl2cohom.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Reference routes the tests keep as independent checks of the program.
ALLOWED = {
    "coboundary": "the generic cochain differential the reduced formulas are checked against",
    "weight_of": "the eigenvalue of a basis cochain, checked against the complex",
    "basis_cochain": "builds the basis cochains of the reference complex",
    "act_via_conjugation": "the reference action that act_on_operator is checked against",
    "Cochain.component": "reads one component of a reference cochain",
    "ReducedOneCochain.to_cochain": "maps a reduced 1-cochain onto the reference complex",
    "ReducedTwoCochain.to_cochain": "maps a reduced 2-cochain onto the reference complex",
    "RationalMatrix.mat_vec": "checks kernel vectors against the dense reference matrix",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public(name):
    return not name.startswith("_")


def definitions(source):
    """Public module-level functions, classes and assignment targets, and the
    classes' public methods, as (qualified name, name, first line, last line)."""
    out = []
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        out += [(t.id, t.id, node.lineno, node.end_lineno) for t in targets
                if isinstance(t, ast.Name) and _public(t.id)]
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)) and _public(node.name):
            out.append((node.name, node.name, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                out += [(f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno)
                        for item in node.body
                        if isinstance(item, FUNCTIONS) and _public(item.name)]
    return out


def used_names(source, strings=False):
    """(name, line) of every name and attribute, and with ``strings`` of
    every string constant."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, node.lineno))
    return out


def unused(package_sources, perfbench_sources, roots=()):
    """Qualified names defined in ``package_sources`` that nothing uses.

    Both source arguments map a module name to its source; the package's
    ``__init__`` and ``__main__`` define nothing that is scanned, and
    ``__init__`` uses nothing.  ``roots`` are qualified names whose bodies
    count as uses even when nothing uses them.
    """
    defs = {(module, *d) for module, source in package_sources.items()
            if module not in ("__init__", "__main__") for d in definitions(source)}
    uses = defaultdict(list)
    for module, source in package_sources.items():
        if module != "__init__":
            for name, line in used_names(source):
                uses[name].append((module, line))
    benched = {name for source in perfbench_sources.values()
               for name, _ in used_names(source, strings=True)}

    def inside(definition, module, line):
        return definition[0] == module and definition[3] <= line <= definition[4]

    dead = set()
    while True:
        walls = [d for d in dead if d[1] not in roots]
        found = {d for d in defs if d[2] not in benched and not any(
            not inside(d, module, line) and not any(inside(w, module, line) for w in walls)
            for module, line in uses[d[2]])}
        if found == dead:
            return sorted(d[1] for d in dead)
        dead = found


def root_imports(source):
    """Lines of the import statements in a package root."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def _sources(directory):
    return {path.stem: path.read_text() for path in sorted(directory.glob("*.py"))}


def test_every_public_name_has_a_caller_outside_the_tests():
    package = _sources(PACKAGE)
    assert len(package) >= 10, sorted(package)
    assert unused(package, _sources(PERFBENCH), ALLOWED) == sorted(ALLOWED)


def test_the_package_root_imports_nothing():
    assert root_imports((PACKAGE / "__init__.py").read_text()) == []


def test_the_scan_flags_a_planted_unused_function():
    package = {
        "__init__": "from .mod import planted, Kept\n",
        "__main__": "from .mod import main\nmain()\n",
        "mod": '''
KEPT = 1
PLANTED = 2
Alias: type = int

def main():
    return helper() + Kept().value() + KEPT

def helper():
    return 1

def planted():
    return 2

def traced():
    return 3

class Kept:
    def value(self):
        return 0

    def unread(self):
        return 1

    def _private(self):
        return 2

class Lonely:
    def again(self):
        return Lonely()

def recursive(n):
    return recursive(n - 1) if n else 0

def entry():
    return step()

def step():
    return 4

def route():
    return route_helper()

def route_helper():
    return 5
''',
    }
    perfbench = {"tracing": 'TARGETS = (("mod", "traced"),)\n'}
    chains = ["Lonely", "Lonely.again", "entry", "recursive", "step"]
    planted = ["Alias", "Kept.unread", "PLANTED", "planted", "route"]
    assert unused(package, perfbench, {"route"}) == sorted(planted + chains)
    assert unused(package, perfbench) == sorted(planted + ["route_helper"] + chains)
    assert unused(package, {}, {"route"}) == sorted(planted + ["traced"] + chains)
    assert root_imports(package["__init__"]) == [1]
    assert root_imports('"""The package."""\n') == []
