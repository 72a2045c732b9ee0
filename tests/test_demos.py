"""Every demo script runs to completion in a fresh interpreter."""

import pathlib

import pytest

from test_cli import python

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = python(str(demo))
    assert proc.returncode == 0, proc.stderr
