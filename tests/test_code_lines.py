"""The code-only line counter of ``tests/code_lines.py``."""

import subprocess
import sys
from pathlib import Path

from code_lines import code_lines

FIXTURE = '''"""A module docstring
over two lines."""

# a comment line
import os  # a trailing comment


class Box:
    """A class docstring."""

    size = 3

    def area(self):
        """A method docstring,

        with a blank line inside it."""
        # a comment in the body
        return (self.size
                * self.size)


def text():
    return """not a docstring:
    a string in an expression"""
'''


def test_only_lines_of_code_count():
    # import, class, size, def area, the two lines of the product, def
    # text and the two lines of its returned string
    assert code_lines(FIXTURE) == 9
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_the_script_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n")
    script = Path(__file__).with_name("code_lines.py")
    out = subprocess.run([sys.executable, str(script), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert [line.split() for line in out.splitlines()] == \
        [["a.py", "9"], ["b.py", "1"], ["total", "10"]]
