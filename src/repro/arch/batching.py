"""Shared machinery of the batched ``simulate_blocks`` paths.

Every vectorised STC model evaluates a miss batch the same way:

1. :func:`evaluate_grouped` splits the batch by B-operand width and
   into chunks of at most :data:`CHUNK_BLOCKS` blocks, so a model only
   ever sees uniform-width stacks and its array temporaries stay
   bounded whatever the miss-batch size;
2. the model stacks the chunk's operands (:func:`stack_operands`) and
   computes one action row per block, in the
   :data:`~repro.arch.base.VECTOR_WIDTH` layout (:data:`ACTION_COL`
   names the counter columns);
3. :func:`evaluate_grouped` writes each chunk's rows into the batch's
   ``[N, VECTOR_WIDTH]`` matrix, in task order.

No per-block object is built on the batched path.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.arch.base import VECTOR_WIDTH
from repro.arch.counters import ACTIONS
from repro.arch.tasks import T1Task

#: Upper bound on the blocks one model evaluation sees at once.
CHUNK_BLOCKS = 4096

#: Column of each action inside the flattened action row.
ACTION_COL = {name: 6 + j for j, name in enumerate(ACTIONS)}


def util_bin(eff, macs: int):
    """The :class:`UtilHistogram` bin of ``eff`` products on ``macs`` lanes.

    Integer form of ``UtilHistogram.record(eff / macs)``: the bin is
    ``ceil(4 * eff / macs) - 1`` clipped to ``[0, 3]``, so an idle
    cycle lands in bin 0 like the float path.  Works on scalars and
    integer arrays alike.
    """
    return np.clip((4 * eff + macs - 1) // macs - 1, 0, 3)


def evaluate_grouped(
    tasks: Sequence[T1Task],
    evaluate: Callable[[List[T1Task]], np.ndarray],
) -> np.ndarray:
    """Run ``evaluate`` over uniform-width chunks, preserving task order.

    ``evaluate`` receives up to :data:`CHUNK_BLOCKS` tasks that share
    one B width and returns their ``[n, VECTOR_WIDTH]`` int64 action
    rows in order; row ``i`` of the result is ``tasks[i]``'s.
    """
    tasks = list(tasks)
    rows = np.zeros((len(tasks), VECTOR_WIDTH), dtype=np.int64)
    groups: dict = {}
    for index, task in enumerate(tasks):
        groups.setdefault(task.n, []).append(index)
    for indices in groups.values():
        for lo in range(0, len(indices), CHUNK_BLOCKS):
            part = indices[lo : lo + CHUNK_BLOCKS]
            rows[part] = evaluate([tasks[i] for i in part])
    return rows


def stack_operands(tasks: Sequence[T1Task]) -> Tuple[np.ndarray, np.ndarray]:
    """``([N, 16, 16], [N, 16, n])`` boolean operand stacks of one width."""
    count = len(tasks)
    a_stack = np.frombuffer(
        b"".join(t.a_bits for t in tasks), dtype=bool
    ).reshape(count, 16, 16)
    b_stack = np.frombuffer(
        b"".join(t.b_bits for t in tasks), dtype=bool
    ).reshape(count, 16, tasks[0].n)
    return a_stack, b_stack
