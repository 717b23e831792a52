"""The common simulator interface every STC model implements.

A model turns one :class:`~repro.arch.tasks.T1Task` into a
:class:`BlockResult`: cycles, a per-cycle MAC-utilisation histogram,
and the action counters the energy model prices.  A batch of tasks
turns into an ``[N, VECTOR_WIDTH]`` action-row matrix, one row per
task in the :data:`VECTOR_WIDTH` layout; that matrix is the currency
of the engine, its LRU and the result store.  The simulation engine
(:mod:`repro.sim.engine`) memoises rows on the task's bitmap pair, so
models must be pure functions of the task.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.arch.counters import ACTIONS, Counters
from repro.arch.tasks import T1Task, UtilHistogram
from repro.errors import SimulationError

#: Width of an action row: [cycles, products, util bins 0..3, one slot
#: per ``ACTIONS`` entry] (see :meth:`BlockResult.action_vector`).
VECTOR_WIDTH = 2 + 4 + len(ACTIONS)


@dataclass
class BlockResult:
    """Outcome of stepping one T1 task on one STC (``simulate_block``)."""

    cycles: int
    products: int
    util_hist: UtilHistogram = field(default_factory=UtilHistogram)
    counters: Counters = field(default_factory=Counters)

    def __post_init__(self) -> None:
        if self.cycles < 0 or self.products < 0:
            raise SimulationError("cycles and products must be non-negative")

    def action_vector(self) -> np.ndarray:
        """The result flattened to one float64 row (see ``VECTOR_WIDTH``)."""
        vec = np.zeros(VECTOR_WIDTH)
        vec[0] = self.cycles
        vec[1] = self.products
        vec[2:6] = self.util_hist.bins
        for j, action in enumerate(ACTIONS):
            vec[6 + j] = self.counters.get(action)
        return vec

    def action_vector_int(self) -> Optional[np.ndarray]:
        """:meth:`action_vector` as int64, or ``None`` when non-integral.

        Corpus-scale aggregation sums rows in the integer domain so
        totals stay exact past 2^53, where float64 accumulation would
        silently round.  Models whose counters genuinely carry
        fractional values return ``None`` and are aggregated in float64.
        """
        float_vec = self.action_vector()
        as_int = np.rint(float_vec).astype(np.int64)
        return as_int if np.array_equal(as_int, float_vec) else None


def result_rows(results: Sequence[BlockResult]) -> np.ndarray:
    """Stack stepped results as one ``[N, VECTOR_WIDTH]`` action-row matrix.

    The matrix is int64 unless some result's counters are genuinely
    fractional, in which case the whole matrix is float64.
    """
    if not results:
        return np.zeros((0, VECTOR_WIDTH), dtype=np.int64)
    rows = np.stack([result.action_vector() for result in results])
    as_int = np.rint(rows).astype(np.int64)
    return as_int if np.array_equal(as_int, rows) else rows


class STCModel(ABC):
    """Abstract sparse tensor core: a per-block dataflow model."""

    #: Short display name used in reports and benchmark tables.
    name: str = "stc"

    @abstractmethod
    def simulate_block(self, task: T1Task) -> BlockResult:
        """Simulate one 16x16x16 block task and return its outcome."""

    def simulate_blocks(self, tasks: Sequence[T1Task]) -> np.ndarray:
        """Action rows of a batch of block tasks; row ``i`` is ``tasks[i]``'s.

        Returns an ``[N, VECTOR_WIDTH]`` matrix, equal to
        :func:`result_rows` of the stepped results.  The default steps
        :meth:`simulate_block` per task.  Models with a vectorised path
        (:class:`~repro.arch.unistc.UniSTC`, RM-STC, DS-STC; see
        :mod:`repro.arch.batching`) override this; overrides must
        return the same rows, dtype included — the engine's memo treats
        the two interchangeably.
        """
        return result_rows([self.simulate_block(task) for task in tasks])

    @property
    @abstractmethod
    def macs(self) -> int:
        """MAC lanes available per cycle."""

    def cache_key(self) -> str:
        """Memoisation namespace; distinct per configured instance."""
        return self.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, macs={self.macs})"
