"""Self-tests of the benchmark: python3 -m pytest perfbench/tests"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(BENCH), str(ROOT / "src")]
os.environ["PYTHONPATH"] = str(ROOT / "src")

import spans  # noqa: E402
import worker  # noqa: E402

# The smallest size of each workload.
SMALLEST = {"piez_cold": 1, "verify_sweep": 1, "symbolic_grid": 1}


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", str(SMALLEST[workload])],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(SMALLEST))
def runs(request):
    return request.param, bench(request.param, 0), bench(request.param, 1)


def test_every_metric_is_reported_with_its_unit(runs):
    _, plain, traced = runs
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in SPEC[kind]}


def test_span_self_times_are_not_negative(runs):
    workload = runs[0]
    self_time = spans.self_times(BENCH / "out" / f"spans-{workload}.npz")
    assert len(self_time) > 0
    assert (self_time >= 0).all()


def test_probe_conjugator_counts_are_exact(runs):
    metrics = runs[2]["metrics"]
    assert {k: metrics[f"oracle.probe_conj.{k}"]["value"]
            for k in worker.PROBES} == {
        "Z7xZ11": 18501, "D12zxD11z": 14711,
        "IZ2cxOminus": 9778, "OZ2cxD8d": 2296,
    }


def test_symbolic_grid_never_calls_the_oracle(runs):
    workload, _, traced = runs
    calls = traced["metrics"]["oracle.calls"]["value"]
    assert (calls == 0) == (workload == "symbolic_grid")


def test_wrong_expected_answer_counts_as_failed():
    grid = worker.SymbolicGrid(seed=0, size=1)
    a, b, want = grid.ops[0]
    grid.ops[0] = (a, b, want | worker.o3clips.class_set("O(3)"))
    rec = worker.Recorder()
    grid.run_pass(rec)
    assert (rec.attempted, rec.failed) == (len(grid.ops), 1)

    piez = worker.PiezCold(seed=0, size=1)
    piez.expected = piez.expected[1:]
    rec = worker.Recorder()
    piez.run_pass(rec)
    assert (rec.attempted, rec.failed) == (1, 1)


def test_self_time_subtracts_children(tmp_path):
    tracer = spans.Tracer()
    leaf = tracer._wrap(lambda: sum(range(10_000)), "leaf", None)
    outer = tracer._wrap(lambda: [leaf() for _ in range(3)], "outer", None)
    outer()
    tracer.write(tmp_path / "spans.npz")
    self_time = spans.self_times(tmp_path / "spans.npz")
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    assert self_time[0] == pytest.approx(dur[0] - dur[1:].sum())
    assert (self_time[1:] == dur[1:]).all()
