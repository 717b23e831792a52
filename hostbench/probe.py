"""A host-speed probe that lets host times be compared across a drifting host.

On a shared virtual machine the same pass can take up to 40% longer
from one minute to the next, whatever the program does.  A slowdown
hits everything that runs at that moment.  So the benchmark runs a
fixed, short routine (dict updates, bytes hashing and a small NumPy
sort, like the simulator's own mix) right after every case, and
divides each case's time by how slow the probe was around it.  Reported times are thus
scaled to a host on which the probe takes :data:`REFERENCE_S`.  The
routine uses no code of the program, so a change to the program cannot
move it.  Probe time is excluded from every measured time.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

import numpy as np

#: Probe time of the reference host that normalised times are scaled to.
REFERENCE_S = 0.00025

#: Probes on each side of a case that set its local speed factor.
HALF_WINDOW = 7

_SORT = np.arange(2048, dtype=np.int64)
_BYTES = bytes(range(256)) * 2


def _routine() -> None:
    table = {}
    for i in range(800):
        key = (i * 7919) % 509
        table[key] = table.get(key, 0) + i
    mix = 0
    for i in range(150):
        mix ^= hash(_BYTES[i:i + 64])
    np.unique((_SORT * 31) % 977)


def probe() -> float:
    """Host seconds of one run of the fixed routine.

    The routine runs once untimed first, so the timed run starts from
    warm caches whatever the program left in them: the probe measures
    the host, not the program's footprint.  Its working set is a few
    tens of KB.  The collector is paused so a collection of the
    program's heap never lands inside the probe.
    """
    gc.disable()
    try:
        _routine()
        t0 = time.perf_counter()
        _routine()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def speed_factors(samples: List[float]) -> List[float]:
    """Per-sample slowdown against the reference host.

    Each factor is the median of the probes within ``HALF_WINDOW`` of
    the sample, over :data:`REFERENCE_S`.
    """
    out = []
    for i in range(len(samples)):
        window = samples[max(0, i - HALF_WINDOW):i + HALF_WINDOW + 1]
        out.append(statistics.median(window) / REFERENCE_S)
    return out


def settled_factor(count: int = 9) -> float:
    """The slowdown measured by ``count`` back-to-back probes (median)."""
    return statistics.median(probe() for _ in range(count)) / REFERENCE_S
