"""Machine-speed calibration, shared by ``run.py`` and ``worker.py``.

Other tenants of a shared host slow this machine by up to 2x for seconds
or minutes at a time.  A fixed loop, timed next to the work on the same
CPU, measures that slowdown; a time ``t`` measured while the loop took
``c`` seconds is reported as ``t * REF_S / c``, the time it would take at
the reference speed.

The loop mixes small numpy calls (interpreter overhead, small-array
arithmetic, a sort) with string-keyed lookups in a dict larger than the
CPU's L2 cache, as the library's cached label and group lookups are.  On
a 2-vCPU Intel Xeon VM it followed the speed of ``clips`` and of
``clips_oracle`` over 9 s stretches to within 3.0% and 1.6% (coefficient
of variation), against 4.9% and 2.2% for the numpy calls alone and about
5% for a pure-Python integer loop.
"""

import functools
import os
import random
import time

import numpy as np

REF_S = 0.0065  # seconds the loop takes at the reference speed
LOOP_N = 32
LOOKUPS = 6_000
_X = np.arange(300.0).reshape(100, 3)


@functools.cache
def _table() -> tuple[dict[str, int], list[str]]:
    # built on first use, so that importing this module adds nothing to
    # a worker's set-up time
    table = {f"key{i}x{7 * i}": i for i in range(50_000)}
    return table, random.Random(0).sample(sorted(table), LOOKUPS)


def loop_s() -> float:
    """Seconds the calibration loop takes now."""
    table, keys = _table()
    t0 = time.perf_counter()
    for _ in range(LOOP_N):
        np.unique(np.round(np.einsum("ij,kj->ik", _X, _X), 3))
    acc = 0
    for k in keys:
        acc += table[k]
    return time.perf_counter() - t0


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the loop times around it."""
    return seconds * REF_S / ((before + after) / 2)


def pin() -> int:
    """Pin this process, and the processes it starts, to one CPU, so that
    the loop and the work it calibrates share a CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
