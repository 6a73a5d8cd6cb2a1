"""Code-only line counts of the package's modules.

A line counts when it holds a token of code: blank lines, comment lines
and the lines of docstrings do not.  Tokens come from ``tokenize``, and
docstrings from ``ast``: the first statement of a module, class or
function body when it is a string constant.  Each physical line of a
statement that spans several lines counts once.

Run as a script, ``python tests/code_lines.py [DIR]``, it prints each
module's count and the total for ``DIR``, by default ``src/sl2cohom``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that carry no code: layout, comments and the stream's ends.
_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and \
                    isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code-only lines of a Python source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NON_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def package_counts(directory: Path) -> dict[str, int]:
    """{module file name: code-only lines} for every ``.py`` file in directory."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


def main(argv: list[str]) -> None:
    directory = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "sl2cohom"
    counts = package_counts(directory)
    for name, count in counts.items():
        print(f"{name:16} {count:6,}")
    print(f"{'total':16} {sum(counts.values()):6,}")


if __name__ == "__main__":
    main(sys.argv[1:])
