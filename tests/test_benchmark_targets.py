"""What the benchmark relies on still holds.

``perfbench/spans.py`` wraps each ``(module, attribute)`` of its
``TARGETS`` at import time, and reads the fallback cache's counters.  A
rename of one of them would break ``perfbench/run.py --trace 1``
without failing a test elsewhere, so this test loads the tracer's table
(read only) and resolves every entry.

The ``symbolic_grid`` workload checks every answer of public ``clips``
against ``perfbench/expected_grid.json``; a wrong closed-form cell
would only show there as failed operations, so this test reads that
file (read only) and checks every cell.
"""

import importlib.util
import json
import pathlib

from o3clips import clips, engine

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"

# the axial classes of ``axial_table``, in its order; mirrors
# ``perfbench/worker.py``'s ``AXIAL``
AXIAL = ("SO(2)", "O(2)", "SO(2)+Z2c", "O(2)+Z2c", "O(2)^-")


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    spans = _spans_module()
    for path, attr, _, _ in spans.TARGETS:
        assert callable(getattr(spans._owner(path), attr)), (path, attr)


def test_fallback_cache_counters_exist():
    assert engine._oracle_after_strips.cache_info().misses >= 0


def test_closed_form_grid_matches_the_recorded_answers():
    with open(PERFBENCH / "expected_grid.json", encoding="utf-8") as fh:
        grid = json.load(fh)
    answers = grid["answers"]
    cells = [(row, col, index) for row, line in grid["table"].items()
             for col, index in zip(grid["cols"], line, strict=True)]
    cells += [(row, col, index) for row, line in grid["axial_table"].items()
              for col, index in zip(AXIAL, line, strict=True)]
    assert len(cells) == 129 * 193 + (129 + 192) * 5
    wrong = [(row, col) for row, col, index in cells
             if clips(row, col).labels() != answers[index]]
    assert not wrong, wrong[:10]
