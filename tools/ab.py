"""Before-and-after benchmark of a change against a base revision.

Builds two trees in a temporary directory, each with ``git archive`` and
so with no ``__pycache__`` or other ignored file: the base revision, and
the working tree as it stands (tracked and untracked files, ignored ones
left out, through a throwaway index).  Then runs ``perfbench/run.py`` of
each tree on each given seed, in alternating pairs: the base runs first
in pairs 1, 3, 5, ... and the change in the others.  ``perfbench/`` is
driven as a black box; nothing there is read but ``BENCHMARK.json``'s
run length, its end-to-end metrics and which way each is better.

Writes one JSON layout: the machine, the protocol, and per workload the
runs, medians and quartiles of each end-to-end metric on each side, the
pairs the change won, and the failed operations.  Each claim named with
``--claim WORKLOAD:METRIC`` gets the verdict of ``claim_verdict``::

    python tools/ab.py --base HEAD --workload verify_sweep \\
        --seeds 4801-4810 --claim verify_sweep:throughput_ops_s > BENCH_N.json

Each run lasts the ``run_seconds`` of ``BENCHMARK.json``.  The report
goes to stdout and one line per run to stderr; the exit code is 1 when
a claim does not hold.  Quartiles are ``statistics.quantiles(n=4,
method="inclusive")``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a claimed gain holds when the change wins at least this share of the
# pairs, over at least this many pairs
CLAIM_SHARE = 0.9
CLAIM_PAIRS = 10


def quartiles(runs: list[float]) -> dict:
    """Median and quartiles of one side's runs, with the runs."""
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else runs * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change reads better than the base."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change, strict=True))


def claim_verdict(parent: list[float], change: list[float], better: str) -> dict:
    """Whether a claimed gain holds on paired runs of one metric.

    ``parent[i]`` and ``change[i]`` are pair i.  The gain holds when
    there are at least ``CLAIM_PAIRS`` pairs, the change wins at least
    ``CLAIM_SHARE`` of them, and its median is better than the base's
    by more than the base's quartile spread (q3 - q1).  ``gap`` is that
    median difference, positive when the change is better.
    """
    won, base = wins(parent, change, better), quartiles(parent)
    sign = 1.0 if better == "higher" else -1.0
    gap = sign * (statistics.median(change) - base["median"])
    spread = base["q3"] - base["q1"]
    holds = (len(parent) >= CLAIM_PAIRS and won >= CLAIM_SHARE * len(parent)
             and gap > spread)
    return {"pairs": len(parent), "won": won, "gap": gap,
            "relative_gap": gap / base["median"] if base["median"] else None,
            "parent_spread": spread, "holds": holds}


def _git(*args: str, env: dict | None = None, text: bool = True):
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=text).stdout


def _worktree_tree() -> str:
    """The tree object of the working tree: every file git does not
    ignore, as it stands, staged into a throwaway index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        _git("add", "-A", env=env)
        return _git("write-tree", env=env).strip()


def _extract(treeish: str, dest: Path) -> None:
    data = _git("archive", "--format=tar", treeish, text=False)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its last stdout line, parsed, with
    the environment line it printed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# environment: "):
            result["environment"] = json.loads(line[len("# environment: "):])
    return result


def _seeds(text: str) -> list[int]:
    """``4801-4810`` or ``4801,4803,4805``."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def compare(base: str, workloads: list[str], seeds: list[int],
            claims: list[str]) -> dict:
    """Run the alternating pairs and summarize them (see the module
    docstring)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    base_rev = _git("rev-parse", base).strip()
    report = {
        "base": base_rev, "change": _worktree_tree(),
        "protocol": (f"python3 perfbench/run.py --workload W --seed K "
                     f"--seconds {seconds:g} --trace 0 on {base_rev[:7]} "
                     "(parent) and on the working tree (change), each a git "
                     "archive in a temporary directory with no __pycache__ "
                     "and PYTHONDONTWRITEBYTECODE=1; the parent runs first "
                     "in pairs 1, 3, 5, ... Quartiles are statistics."
                     "quantiles(n=4, method='inclusive') over each side's "
                     "runs."),
        "claim_rule": (f"a gain holds when the change wins at least "
                       f"{CLAIM_SHARE:.0%} of at least {CLAIM_PAIRS} pairs "
                       "and its median beats the parent's by more than the "
                       "parent's quartile spread"),
        "end_to_end": {}, "claims": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        _extract(base_rev, trees["parent"])
        _extract(report["change"], trees["change"])
        for workload in workloads:
            runs = {"parent": [], "change": []}
            first = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                first.append(order[0])
                for side in order:
                    runs[side].append(_run(trees[side], workload, seed, seconds))
                    value = runs[side][-1]["metrics"]["throughput_ops_s"]["value"]
                    print(f"{workload} seed {seed} {side}: {value:.6g} ops/s",
                          file=sys.stderr)
            report.setdefault("machine", runs["parent"][0].get("environment"))
            values = {side: {m: [r["metrics"][m]["value"] for r in rs]
                             for m in better} for side, rs in runs.items()}
            report["end_to_end"][workload] = {
                "pairs": len(seeds), "seeds": seeds, "first": first,
                "attempted": {s: sum(r["attempted"] for r in rs)
                              for s, rs in runs.items()},
                "failed": {s: sum(r["failed"] for r in rs)
                           for s, rs in runs.items()},
                "correct": {s: all(r["correct"] for r in rs)
                            for s, rs in runs.items()},
                "change_wins": {m: wins(values["parent"][m], values["change"][m], b)
                                for m, b in better.items()},
                "metrics": {m: {s: quartiles(values[s][m]) for s in runs}
                            for m in better},
            }
    for claim in claims:
        workload, metric = claim.split(":")
        metrics = report["end_to_end"][workload]["metrics"][metric]
        report["claims"][claim] = claim_verdict(
            metrics["parent"]["runs"], metrics["change"]["runs"], better[metric])
    return report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the base revision")
    ap.add_argument("--workload", action="append",
                    help="a workload of BENCHMARK.json; repeat for more "
                         "(default: all of them)")
    ap.add_argument("--seeds", required=True, help="4801-4810 or 4801,4803")
    ap.add_argument("--claim", action="append", default=[],
                    help="WORKLOAD:METRIC, a claimed gain to judge")
    args = ap.parse_args(argv)
    workloads = args.workload or [
        w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    if any(claim.split(":")[0] not in workloads for claim in args.claim):
        ap.error("every --claim must name a workload that runs")
    report = compare(args.base, workloads, _seeds(args.seeds), args.claim)
    print(json.dumps(report, indent=1))
    return 0 if all(v["holds"] for v in report["claims"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
