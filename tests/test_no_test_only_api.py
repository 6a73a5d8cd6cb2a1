"""No public API that only tests call: a static scan of the package source.

Every public module-level function and class, and every public method, in
``src/sl2cohom`` (``__init__`` and ``__main__`` aside) must be used by the
program or the benchmark.  A name counts as used when it appears as a
name or an attribute in a package module other than ``__init__``, or as a
name, an attribute or a string constant in ``perfbench``, whose tracer
binds functions by their names.  The scan matches names only, so a method
shares its use with any other name it equals.
"""

import ast
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


def _public(name):
    return not name.startswith("_")


def definitions(source):
    """Public module-level functions and classes, and their public methods."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(node.name):
            out.append((node.name, node.name))
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            out.append((node.name, node.name))
            out += [(f"{node.name}.{item.name}", item.name) for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and _public(item.name)]
    return out


def used_names(source, strings=False):
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unused(package_sources, perfbench_sources):
    """Qualified names defined in ``package_sources`` that nothing uses.

    Both arguments map a module name to its source; the package's
    ``__init__`` and ``__main__`` define nothing that is scanned, and
    ``__init__`` uses nothing.
    """
    used = set()
    for module, source in package_sources.items():
        if module != "__init__":
            used |= used_names(source)
    for source in perfbench_sources.values():
        used |= used_names(source, strings=True)
    return sorted(qualified for module, source in package_sources.items()
                  if module not in ("__init__", "__main__")
                  for qualified, name in definitions(source) if name not in used)


def _sources(directory):
    return {path.stem: path.read_text() for path in sorted(directory.glob("*.py"))}


def test_every_public_name_has_a_caller_outside_the_tests():
    package = _sources(PACKAGE)
    assert len(package) >= 10, sorted(package)
    assert unused(package, _sources(PERFBENCH)) == sorted(ALLOWED)


def test_the_scan_flags_a_planted_unused_function():
    package = {
        "__init__": "from .mod import planted, Kept\n",
        "__main__": "from .mod import main\nmain()\n",
        "mod": '''
def main():
    return helper() + Kept().value()

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
''',
    }
    perfbench = {"tracing": 'TARGETS = (("mod", "traced"),)\n'}
    assert unused(package, perfbench) == ["Kept.unread", "planted"]
    assert unused(package, {}) == ["Kept.unread", "planted", "traced"]
