"""Span tracing for the benchmark's traced run, applied from outside o3clips.

``Tracer.install`` replaces each function in ``TARGETS`` at the name its
caller looks it up (for example ``o3clips.engine.clips_oracle``) with a
wrapper that records one span: name, parent span, start, end, and an
optional work amount (conjugators returned, candidate rows tested, ...).
Spans are kept in flat arrays in memory and written once, at the end,
with ``Tracer.write``.  ``layer_metrics`` turns a written span file into
the per-layer metrics; every ``*_s`` metric is a self time, the span's
duration minus the time its child spans cover.

Run as a script, it executes one ``o3clips`` CLI command under tracing
in this fresh interpreter and writes the span file::

    python3 perfbench/spans.py OUT.npz piez --format json
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np


def _closed_form(args, out) -> float:
    return float(out is not None)


def _rows(args, out) -> float:
    return float(out.size)


def _count(args, out) -> float:
    return float(len(out))


# (module or class path, attribute, span name, work amount of one call)
TARGETS = (
    ("o3clips", "clips", "engine.clips", None),
    ("o3clips.engine", "clips", "engine.clips", None),
    ("o3clips.piezo", "clips", "engine.clips", None),
    ("o3clips.engine", "parse_label", "labels.parse", None),
    ("o3clips.engine", "canonicalize", "labels.parse", None),
    ("o3clips.labels", "parse_label", "labels.parse", None),
    ("o3clips.labels", "canonicalize", "labels.parse", None),
    ("o3clips.infinite", "canonicalize", "labels.parse", None),
    ("o3clips.piezo", "parse_label", "labels.parse", None),
    ("o3clips.labels:ClassSet", "__init__", "labels.classset", None),
    ("o3clips.engine", "clips_reduce", "infinite.reduce", _closed_form),
    ("o3clips.infinite", "clips_type2_type3", "tables.cell", None),
    ("o3clips.engine", "_oracle_after_strips", "engine.fallback", None),
    ("o3clips.engine", "clips_oracle", "oracle.clips", None),
    ("o3clips.oracle", "conjugators", "oracle.conjugators", _count),
    ("o3clips.oracle:_Prepped", "member_mask", "oracle.member_mask", _rows),
    ("o3clips.oracle", "rotation", "rotations.rotation", None),
    ("o3clips.groups", "close_group", "groups.close", None),
    ("o3clips.oracle", "recognize", "groups.recognize", None),
    ("o3clips.axial", "recognize", "groups.recognize", None),
    ("o3clips.oracle", "structural_axes", "groups.axis_census", None),
    ("o3clips.oracle", "axis_orbit_reps", "groups.axis_census", None),
    ("o3clips.axial", "structural_axes", "groups.axis_census", None),
    ("o3clips.engine", "clips_axial", "axial.clips", None),
    ("o3clips.cli", "diff_piez", "piezo.fold", None),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span_name: str, amount):
        if span_name not in self.names:
            self.names.append(span_name)
        nid = self.names.index(span_name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.amount.append(0.0)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if amount is not None:
                self.amount[i] = amount(args, out)
            return out

        return traced

    def install(self) -> None:
        for path, attr, span_name, amount in TARGETS:
            owner = _owner(path)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, span_name, amount))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path) -> None:
        """Write the spans and the library's cache counters to ``path``."""
        from o3clips import engine, groups

        caches = {
            "fallback": engine._oracle_after_strips.cache_info()._asdict(),
            "reference_group": groups.reference_group.cache_info()._asdict(),
        }
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            amount=np.frombuffer(self.amount),
            caches=np.array(json.dumps(caches)),
        )


def _self_time(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    child = parent >= 0
    covered = np.zeros(len(dur))
    np.add.at(covered, parent[child], dur[child])
    return dur - covered


def self_times(path) -> np.ndarray:
    """Self time of every span in a span file."""
    with np.load(path) as f:
        return _self_time(f["parent"], f["end"] - f["start"])


def layer_metrics(path) -> dict[str, float]:
    """Per-layer counts and self times from a span file."""
    with np.load(path) as f:
        names = [str(n) for n in f["names"]]
        name, parent = f["name"], f["parent"]
        dur = f["end"] - f["start"]
        amount = f["amount"]
        caches = json.loads(str(f["caches"]))
    child = parent >= 0
    self_time = _self_time(parent, dur)
    ids = {n: i for i, n in enumerate(names)}

    def sel(span: str) -> np.ndarray:
        return name == ids.get(span, -1)

    def count(span: str) -> int:
        return int(sel(span).sum())

    def self_s(span: str) -> float:
        return float(self_time[sel(span)].sum())

    def work(span: str) -> float:
        return float(amount[sel(span)].sum())

    def children_of(span: str, under: str) -> int:
        kids = sel(span) & child
        return int(sel(under)[parent[kids]].sum())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fallback = caches["fallback"]
    distinct_masks = children_of("groups.recognize", "oracle.clips")
    conj = work("oracle.conjugators")
    return {
        "labels.parse_calls": count("labels.parse"),
        "labels.parse_s": self_s("labels.parse"),
        "labels.classset_builds": count("labels.classset"),
        "labels.classset_s": self_s("labels.classset"),
        "infinite.reduce_calls": count("infinite.reduce"),
        "infinite.reduce_s": self_s("infinite.reduce"),
        "infinite.closed_form_ratio": ratio(
            work("infinite.reduce"), count("infinite.reduce")),
        "tables.cell_calls": count("tables.cell"),
        "tables.cell_s": self_s("tables.cell"),
        "engine.clips_calls": count("engine.clips"),
        "engine.oracle_fallbacks": count("engine.fallback"),
        "engine.fallback_cache_hit_ratio": ratio(
            fallback["hits"], fallback["hits"] + fallback["misses"]),
        "oracle.calls": count("oracle.clips"),
        "oracle.self_s": self_s("oracle.clips"),
        "oracle.conjugators": int(conj),
        "oracle.conjugators_s": self_s("oracle.conjugators"),
        "oracle.member_mask_rows": int(work("oracle.member_mask")),
        "oracle.member_mask_s": self_s("oracle.member_mask"),
        "oracle.distinct_masks": distinct_masks,
        "oracle.mask_yield": ratio(distinct_masks, conj),
        "rotations.rotation_calls": count("rotations.rotation"),
        "rotations.rotation_s": self_s("rotations.rotation"),
        "groups.closures": count("groups.close"),
        "groups.close_s": self_s("groups.close"),
        "groups.recognize_calls": count("groups.recognize"),
        "groups.recognize_s": self_s("groups.recognize"),
        "groups.axis_census_s": self_s("groups.axis_census"),
        "axial.calls": count("axial.clips"),
        "axial.s": self_s("axial.clips"),
        "piezo.fold_s": float(dur[sel("piezo.fold")].sum()),
        "piezo.clips_calls": children_of("engine.clips", "piezo.fold"),
    }


def main(argv: list[str]) -> int:
    """Run one o3clips CLI command in this process with tracing on."""
    out, cli_args = argv[0], argv[1:]
    import o3clips.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = o3clips.cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
