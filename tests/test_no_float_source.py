"""No float anywhere: a static scan of the package source.

The runtime walk in ``test_no_float_walk`` checks the values the layers
return; this scan checks the code that could make a float at all.  Every
module under ``src/sl2cohom`` is parsed, and a ``float`` literal, a
``float(...)`` call or a true division (``/`` or ``/=``) fails, except the
one division inside ``polynomials.divide``, which only ever divides two
``Fraction`` values.
"""

import ast
from pathlib import Path

import sl2cohom

PACKAGE = Path(sl2cohom.__file__).parent
#: (module, function) pairs allowed to use true division.
DIVISION_ALLOWED = {("polynomials", "divide")}


class FloatScan(ast.NodeVisitor):
    def __init__(self, module):
        self.module = module
        self.functions = []
        self.offences = []
        self.allowed_divisions = 0

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def report(self, node, what):
        self.offences.append(f"{self.module}.py:{node.lineno}: {what}")

    def division(self, node):
        if self.functions and (self.module, self.functions[-1]) in DIVISION_ALLOWED:
            self.allowed_divisions += 1
        else:
            self.report(node, "true division")

    def visit_Constant(self, node):
        if type(node.value) is float:
            self.report(node, f"float literal {node.value!r}")

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "float":
            self.report(node, "float(...) call")
        self.generic_visit(node)

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.Div):
            self.division(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if isinstance(node.op, ast.Div):
            self.division(node)
        self.generic_visit(node)


def scan(module, source):
    visitor = FloatScan(module)
    visitor.visit(ast.parse(source))
    return visitor


def test_package_source_has_no_float_and_divides_only_in_divide():
    offences, allowed = [], 0
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 10, modules
    for path in modules:
        visitor = scan(path.stem, path.read_text())
        offences += visitor.offences
        allowed += visitor.allowed_divisions
    assert offences == []
    assert allowed == 1


def test_the_scan_catches_each_offence():
    source = '''
x = 0.5
y = float("1")
def f(a, b):
    a /= b
    return a / b
def divide(a, b):
    return a / b
'''
    assert len(scan("reduced", source).offences) == 5
    polynomials = scan("polynomials", source)
    assert len(polynomials.offences) == 4 and polynomials.allowed_divisions == 1
    assert scan("reduced", "half = divide(1, 2)\nfloor = 3 // 2\n").offences == []
