"""Every demo script runs to completion in a fresh interpreter, and
every ``>>>`` example of README.md prints what README shows."""

import doctest
import pathlib
import re

import pytest

from test_cli import python

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"

# each fenced python block, with the line of its first example: run as
# a whole file, doctest would read a closing fence as expected output
_TEXT = README.read_text()
BLOCKS = [(_TEXT.count("\n", 0, m.start(1)), m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```", _TEXT, re.S | re.M)]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = python(str(demo))
    assert proc.returncode == 0, proc.stderr


# ids count the blocks, not the lines, so that editing README's prose
# renames no test
@pytest.mark.parametrize("lineno,block", BLOCKS,
                         ids=[f"README.md#{i}"
                              for i in range(1, len(BLOCKS) + 1)])
def test_readme_examples(lineno, block):
    test = doctest.DocTestParser().get_doctest(
        block, {}, README.name, str(README), lineno)
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.attempted > 0
    assert result.failed == 0, "".join(report)
