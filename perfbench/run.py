"""Benchmark of o3clips: one workload, one run, metrics on stdout.

    python3 perfbench/run.py --workload piez_cold --seed 1 --seconds 30 --trace 0

Run from any directory; the library is taken from ``src/`` next to this
directory.  Every phase runs in a fresh interpreter (``worker.py``) with
BLAS pinned to one thread.  With ``--trace 0`` the run reports the
end-to-end metrics: the median of several fresh set-ups, then operations
timed for ``--seconds``.  With ``--trace 1`` it reports the per-layer
metrics of one traced pass, against one untraced pass for the tracing
overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("piez_cold", "verify_sweep", "symbolic_grid")
END_TO_END = ("setup_s", "throughput_ops_s", "op_p50_ms", "op_tail_ms",
              "peak_rss_mb")
SETUP_RUNS = 5      # fresh set-ups per run; setup_s is their median
RUN_DEADLINE = 170.0  # seconds; workers still running then are killed
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def unit(name: str) -> str:
    """Unit of a metric, from its name."""
    for suffix, u in (("_ops_s", "1/s"), ("_ms", "ms"), ("_mb", "MB"),
                      ("_s", "s"), (".s", "s"), ("_ratio", "ratio"),
                      ("_yield", "ratio")):
        if name.endswith(suffix):
            return u
    return "count"


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(args: list[str], deadline: float) -> tuple[dict | None, dict]:
    """Run one worker to completion.

    Returns its result (None for a set-up-only worker) and the seconds
    from launch to its ``imported`` and ``ready`` lines.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    marks: dict[str, float] = {}
    result = None
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                                   _kill_group, (proc.pid,))
        watchdog.start()
        try:
            for line in proc.stdout:
                word, _, rest = line.rstrip("\n").partition(" ")
                if word in ("imported", "ready"):
                    marks[word] = time.perf_counter() - t0
                elif word == "result":
                    result = json.loads(rest)
            code = proc.wait()
        finally:
            watchdog.cancel()
            _kill_group(proc.pid)
    if code != 0 or "ready" not in marks:
        raise WorkerError(f"worker {' '.join(args)} exited with {code}")
    return result, marks


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=int, default=0,
                    help="workload size for the self-tests; 0 for the "
                         "benchmark's size")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "o3clips" / "__init__.py").is_file():
        print(f"no o3clips sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cpu = calib.pin()
    deadline = time.monotonic() + RUN_DEADLINE
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--size", str(args.size)]
    setups = {"imported": [], "ready": []}
    try:
        for _ in range(SETUP_RUNS):
            before = calib.loop_s()
            marks = spawn([*base, "--setup-only"], deadline)[1]
            after = calib.loop_s()
            for k, v in setups.items():
                v.append(calib.scale(marks[k], before, after))
        if args.trace:
            plain = spawn([*base, "--passes", "1"], deadline)[0]
            spans = HERE / "out" / f"spans-{args.workload}.npz"
            spans.parent.mkdir(exist_ok=True)
            traced = spawn([*base, "--spans", str(spans)], deadline)[0]
            runs = [plain, traced]
        else:
            measured = spawn(base, deadline)[0]
            runs = [measured]
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    setup_s = statistics.median(setups["ready"])
    import_s = statistics.median(setups["imported"])
    if args.trace:
        metrics = dict(traced["layers"])
        metrics["cli.import_s"] = import_s
        metrics["trace.overhead_ops_s"] = (traced["throughput_ops_s"]
                                           - plain["throughput_ops_s"])
    else:
        metrics = {"setup_s": setup_s}
        metrics |= {k: measured[k] for k in END_TO_END if k != "setup_s"}

    last = runs[-1]
    print(f"# o3clips benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# environment: " + json.dumps(last["env"] | {"pinned_cpu": cpu}))
    for r in runs:
        print(f"# {r['attempted']} operations in {r['passes']} passes over "
              f"{r['inputs']} inputs, {r['elapsed_s']:.3f} s, "
              f"{r['wall_ops_s']:.6g} ops/s of wall time at "
              f"{r['speed']:.3f} of the reference speed; op_tail_ms is "
              f"p{r['tail_percentile']:.6g}; failed_ratio "
              f"{r['failed'] / r['attempted']:g} ratio")
    print(f"# timings are at the reference speed; setup_s is the median "
          f"of {SETUP_RUNS} fresh set-ups")
    for name, value in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
