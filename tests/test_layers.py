"""Static checks of what each layer may read.

The demos use the public API only, so they import no private name.  The
matrix layer (``groups``, ``oracle``, ``axial``, ``rotations``) reads
none of the labels' closed-form data, ``axes`` and ``period``, so the
brute-force oracle stays independent of the rule it checks."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
MATRIX_LAYER = [ROOT / "src" / "o3clips" / f"{name}.py"
                for name in ("groups", "oracle", "axial", "rotations")]


def _nodes(path: pathlib.Path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_no_private_name(demo):
    names = []
    for node in _nodes(demo):
        if isinstance(node, ast.ImportFrom):
            names += [*(node.module or "").split("."),
                      *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            names += [part for alias in node.names
                      for part in alias.name.split(".")]
    assert names and not [n for n in names if n.startswith("_")]


@pytest.mark.parametrize("module", MATRIX_LAYER, ids=lambda p: p.stem)
def test_matrix_layer_reads_no_rule_axes(module):
    read = {node.attr for node in _nodes(module)
            if isinstance(node, ast.Attribute)}
    assert not read & {"axes", "period"}
