import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# nine code lines: the import, the three lines of the constant, the
# def, the two lines of the assigned string, the return and the class
SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment

# a comment line
CONSTANT = (1 +
            2 +
            3)


def f():
    """Function docstring."""

    text = """not a docstring,
    but a string that holds code lines"""
    return text


class C:
    """Class docstring."""
'''


def test_counts_a_synthetic_module():
    assert code_lines.code_lines(SOURCE) == 9


def test_prints_a_total(capsys):
    code_lines.main()
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.split()[1:] == ["total", "(src/o3clips)"]
