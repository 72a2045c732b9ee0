"""The benchmark tracer's entry points still exist.

``perfbench/spans.py`` wraps each ``(module, attribute)`` of its
``TARGETS`` at import time, and reads the fallback cache's counters.  A
rename of one of them would break ``perfbench/run.py --trace 1``
without failing a test elsewhere, so this test loads the tracer's table
(read only) and resolves every entry.
"""

import importlib.util
import pathlib

from o3clips import engine

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
