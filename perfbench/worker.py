"""One fresh interpreter of the o3clips benchmark: set up a workload, run it.

``run.py`` starts this script once per set-up sample and once per
measured phase, so that no ``lru_cache`` of the library carries over
from one measurement to the next.  It reports on stdout, one line each:
``imported`` once ``o3clips`` is imported, ``ready`` once the inputs are
built, then, unless ``--setup-only``, ``result <json>``.

A workload runs in passes over its inputs, one operation at a time
(closed loop, one client).  Every operation's answer is checked; an
exception or a wrong answer counts as a failed operation and never stops
the run.

``python3 perfbench/worker.py --record-grid`` rewrites the expected
answers of ``symbolic_grid`` from the library as it stands.
"""

import sys
import time

import o3clips

print("imported", flush=True)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calib  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GRID_FILE = HERE / "expected_grid.json"
OP_TIMEOUT = 120.0
CAL_EVERY_S = 0.1  # longest stretch of operations between two loop times
MAX_PASSES = 64

# `o3clips piez --format json` at this version: the 25 published classes
# plus 1+Z2c, which the fold finds and the builtin catalog lacks.  The CLI
# exits 2 for that difference by design; both stay visible here.
PIEZ_EXPECTED = [
    "1", "Z2", "Z2^-", "1+Z2c", "Z3", "Z4", "D2", "Z4^-", "D2^z", "Z2+Z2c",
    "D3", "D3^z", "D4", "D4^z", "D4^d", "D2+Z2c", "D6^d", "D3+Z2c",
    "D4+Z2c", "O^-", "O+Z2c", "SO(2)", "O(2)", "O(2)+Z2c", "O(2)^-", "O(3)",
]
PIEZ_EXIT = 2

AXIAL = ("SO(2)", "O(2)", "SO(2)+Z2c", "O(2)+Z2c", "O(2)^-")

# The ROADMAP's oracle probe pairs; their conjugator counts are exact.
PROBES = {
    "Z7xZ11": ("Z7", "Z11"),
    "D12zxD11z": ("D12^z", "D11^z"),
    "IZ2cxOminus": ("I+Z2c", "O^-"),
    "OZ2cxD8d": ("O+Z2c", "D8^d"),
}


class Recorder:
    """Outcome of every operation, and the latency of each input.

    Latencies are scaled to the reference speed of ``calib`` with loop
    times taken between operations, at least every ``CAL_EVERY_S``.  A
    pass runs every input once, in the same order; an input's latency is
    the median of its passes.
    """

    def __init__(self):
        # one row per pass; allocated and written in full up front, so
        # that the peak memory does not depend on the number of passes
        self._table: np.ndarray | None = None
        self.passes = 0
        self.cals = [calib.loop_s()]
        self._cal_at = time.perf_counter()
        self._pass: list[float] = []  # scaled latencies of this pass
        self._raw: list[float] = []   # latencies since the last loop time
        self.attempted = 0
        self.failed = 0

    def __call__(self, latency: float | None, ok: bool, what: str) -> None:
        self.attempted += 1
        if latency is not None:
            self._raw.append(latency)
        if not ok:
            self.failed += 1
            if self.failed <= 3:
                print(f"failed operation: {what}", file=sys.stderr)
        if time.perf_counter() - self._cal_at >= CAL_EVERY_S:
            self._calibrate()

    def _calibrate(self) -> None:
        # one loop run per 0.2 s of work since the last, up to five
        stretch = time.perf_counter() - self._cal_at
        runs = min(5, max(1, round(stretch / 0.2)))
        before = self.cals[-1]
        after = sum(calib.loop_s() for _ in range(runs)) / runs
        self._pass += [calib.scale(t, before, after) for t in self._raw]
        self._raw = []
        self.cals.append(after)
        self._cal_at = time.perf_counter()

    def end_pass(self) -> None:
        self._calibrate()
        lat, self._pass = self._pass, []
        if self._table is None:
            self._table = np.full((MAX_PASSES, len(lat)), np.nan, np.float32)
        if len(lat) == self._table.shape[1]:  # else it stopped on an error
            self._table[self.passes] = lat
        self.passes += 1

    def latencies(self) -> np.ndarray:
        """Median latency of each input over the passes."""
        return np.nanmedian(self._table[:self.passes], axis=0)


class InProcess:
    """A workload whose operations run in this interpreter."""

    def traced_pass(self, record: Recorder, spans_out: Path) -> None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            self.run_pass(record)
        finally:
            tracer.uninstall()
            tracer.write(spans_out)


class PiezCold:
    """`o3clips piez --format json` in a fresh interpreter per operation."""

    def __init__(self, seed: int, size: int):
        self.expected = list(PIEZ_EXPECTED)

    def _op(self, record: Recorder, cmd: list[str]) -> None:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=OP_TIMEOUT)
        except subprocess.TimeoutExpired:
            record(time.perf_counter() - t0, False, "piez timed out")
            return
        latency = time.perf_counter() - t0
        try:
            labels = json.loads(proc.stdout)
        except ValueError:
            labels = None
        ok = proc.returncode == PIEZ_EXIT and labels == self.expected
        record(latency, ok, "" if ok else f"piez exit {proc.returncode}: "
               f"{labels} {proc.stderr[-500:]}")

    def run_pass(self, record: Recorder) -> None:
        self._op(record, [sys.executable, "-m", "o3clips", "piez",
                          "--format", "json"])

    def traced_pass(self, record: Recorder, spans_out: Path) -> None:
        self._op(record, [sys.executable, str(HERE / "spans.py"),
                          str(spans_out), "piez", "--format", "json"])


class VerifySweep(InProcess):
    """`verify_cells(size, size)`, one cell per operation."""

    def __init__(self, seed: int, size: int):
        self.seed, self.size = seed, size
        # rows: Z_m+Z2c, D_m+Z2c (m = 2..size), T, O, I +Z2c;
        # columns: Z_2n^-, D_2n^d (n = 1..size), D_n^z (n = 2..size),
        # O^-, O(2)^-
        self.expected_cells = (2 * size + 1) * (3 * size + 1)

    def run_pass(self, record: Recorder) -> None:
        cells = o3clips.verify_cells(self.size, self.size, seed=self.seed)
        done = 0
        while True:
            t0 = time.perf_counter()
            try:
                cell = next(cells)
            except StopIteration:
                break
            except Exception as exc:  # a failed cell must not stop the run
                record(time.perf_counter() - t0, False, repr(exc))
                return
            record(time.perf_counter() - t0, cell.match, "" if cell.match
                   else f"{cell.row} x {cell.col}: {cell.symbolic} != "
                   f"{cell.brute}")
            done += 1
        if done != self.expected_cells:
            record(None, False, f"{done} cells, expected "
                   f"{self.expected_cells}")


def grid_rows(bound: int) -> list[str]:
    rows = [f"Z{m}+Z2c" for m in range(2, bound + 1)]
    rows += [f"D{m}+Z2c" for m in range(2, bound + 1)]
    return rows + ["T+Z2c", "O+Z2c", "I+Z2c"]


def grid_cols(bound: int) -> list[str]:
    cols = [f"Z{2 * n}^-" for n in range(1, bound + 1)]
    cols += [f"D{n}^z" for n in range(2, bound + 1)]
    cols += [f"D{2 * n}^d" for n in range(1, bound + 1)]
    return cols + ["O^-", "O(2)^-"]


def grid_cells(bound: int) -> list[tuple[str, str]]:
    """The type II x type III table at ``bound``, then every finite row
    and column against the five axial infinite classes; each pair once."""
    rows, cols = grid_rows(bound), grid_cols(bound)
    finite = rows + [c for c in cols if c != "O(2)^-"]
    return list(dict.fromkeys([(r, c) for r in rows for c in cols]
                              + [(f, x) for f in finite for x in AXIAL]))


def record_grid(path: Path = GRID_FILE, bound: int = 64) -> None:
    """Write the answer of every grid cell at ``bound``: distinct answers
    once, then per row the index of each cell's answer, over ``cols`` in
    ``table`` and over the axial classes in ``axial_table``."""
    answers: dict[tuple[str, ...], int] = {}

    def index(a: str, b: str) -> int:
        got = tuple(o3clips.clips(a, b).labels())
        return answers.setdefault(got, len(answers))

    rows, cols = grid_rows(bound), grid_cols(bound)
    finite = rows + [c for c in cols if c != "O(2)^-"]
    table = {r: [index(r, c) for c in cols] for r in rows}
    axial = {f: [index(f, x) for x in AXIAL] for f in finite}

    def lines(rows: dict) -> str:
        return ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                          for k, v in rows.items())

    with open(path, "w") as f:
        f.write(f'{{"bound": {bound},\n"cols": {json.dumps(cols)},\n'
                '"answers": [\n')
        f.write(",\n".join(json.dumps(list(a)) for a in answers))
        f.write(f'\n],\n"table": {{\n{lines(table)}\n}},\n'
                f'"axial_table": {{\n{lines(axial)}\n}}}}\n')


class SymbolicGrid(InProcess):
    """Public `clips` on label strings over the closed-form grid."""

    def __init__(self, seed: int, size: int):
        with open(GRID_FILE) as f:
            expected = json.load(f)
        if size > expected["bound"]:
            raise ValueError(f"expected answers only go to bound "
                             f"{expected['bound']}")
        answers = [o3clips.class_set(*a) for a in expected["answers"]]
        table, axial = expected["table"], expected["axial_table"]
        col = {c: i for i, c in enumerate(expected["cols"])}

        def want(a: str, b: str) -> o3clips.ClassSet:
            if a in table and b in col:
                return answers[table[a][col[b]]]
            return answers[axial[a][AXIAL.index(b)]]

        self.seed = seed
        self.ops = [(a, b, want(a, b)) for a, b in grid_cells(size)]
        random.Random(seed).shuffle(self.ops)

    def run_pass(self, record: Recorder) -> None:
        clock, seed = time.perf_counter, self.seed
        for a, b, want in self.ops:
            t0 = clock()
            try:
                got = o3clips.clips(a, b, seed=seed)
            except Exception as exc:  # a failed cell must not stop the run
                record(clock() - t0, False, f"{a} x {b}: {exc!r}")
                continue
            latency = clock() - t0
            ok = got == want
            record(latency, ok, "" if ok else f"{a} x {b}: {got} != {want}")


WORKLOADS = {
    "piez_cold": (PiezCold, 1),
    "verify_sweep": (VerifySweep, 3),
    "symbolic_grid": (SymbolicGrid, 64),
}


def tail(lat: np.ndarray) -> tuple[float, float]:
    """(percentile, latency) of the sample with exactly ten samples
    beyond it; the median when fewer than ten lie beyond the median."""
    n = len(lat)
    if n < 20:
        return 50.0, float(np.median(lat))
    return 100.0 * (n - 10) / n, float(np.sort(lat)[n - 11])


def summarize(rec: Recorder, elapsed: float) -> dict:
    lat = rec.latencies()
    p, t = tail(lat)
    return {
        "attempted": rec.attempted,
        "failed": rec.failed,
        "passes": rec.passes,
        "elapsed_s": elapsed,
        "wall_ops_s": rec.attempted / elapsed,
        "speed": calib.REF_S / float(np.median(rec.cals)),
        "throughput_ops_s": len(lat) / float(lat.sum()),
        "op_p50_ms": 1e3 * float(np.median(lat)),
        "op_tail_ms": 1e3 * t,
        "tail_percentile": p,
        "inputs": len(lat),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def probe_counts() -> dict[str, int]:
    from o3clips.oracle import conjugators

    return {
        f"oracle.probe_conj.{name}": len(conjugators(
            o3clips.parse_label(a), o3clips.parse_label(b), seed=0))
        for name, (a, b) in PROBES.items()
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--size", type=int, default=0,
                    help="workload size; 0 for the benchmark's size")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--passes", type=int, default=0,
                    help="run exactly this many passes; 0 runs as many "
                         "whole passes as fit in --seconds")
    ap.add_argument("--spans", type=Path,
                    help="run one traced pass and write its spans here")
    ap.add_argument("--record-grid", action="store_true")
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(o3clips.__file__).resolve().parents:
        print(f"o3clips imported from {o3clips.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.record_grid:
        record_grid()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    cls, default_size = WORKLOADS[args.workload]
    workload = cls(args.seed, args.size or default_size)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rec = Recorder()
    t0 = time.perf_counter()
    if args.spans:
        workload.traced_pass(rec, args.spans)
        rec.end_pass()
    else:
        while rec.passes < (args.passes or MAX_PASSES):
            workload.run_pass(rec)
            rec.end_pass()
            # stop before a pass that would end past --seconds
            elapsed = time.perf_counter() - t0
            if (not args.passes
                    and elapsed * (rec.passes + 1) / rec.passes > args.seconds):
                break
    elapsed = time.perf_counter() - t0
    # before the statistics, whose copies of the latency table grow with
    # the number of passes
    peak_mb = peak_rss_mb(children=cls is PiezCold)
    out = summarize(rec, elapsed)
    out["peak_rss_mb"] = peak_mb
    out["env"] = environment()
    if args.spans:
        from spans import layer_metrics

        out["layers"] = layer_metrics(args.spans) | probe_counts()
    print("result " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
