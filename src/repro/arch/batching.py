"""Shared machinery of the batched ``simulate_blocks`` paths.

Every vectorised STC model evaluates a miss batch the same way:

1. :func:`evaluate_grouped` splits the batch by B-operand width and
   into chunks of at most :data:`CHUNK_BLOCKS` blocks, so a model only
   ever sees uniform-width stacks and its array temporaries stay
   bounded whatever the miss-batch size;
2. the model stacks the chunk's operands (:func:`stack_operands`) and
   computes one ``[N, VECTOR_WIDTH]`` int64 action row per block;
3. :func:`box_rows` turns those rows into :class:`BlockResult` objects
   equal to what the model's stepped ``simulate_block`` builds.

Step 3 is the only object-level work left on the cold path.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.base import BlockResult
from repro.arch.counters import ACTIONS, Counters
from repro.arch.tasks import T1Task, UtilHistogram

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
    evaluate: Callable[[List[T1Task]], List[BlockResult]],
) -> List[BlockResult]:
    """Run ``evaluate`` over uniform-width chunks, preserving task order.

    ``evaluate`` receives up to :data:`CHUNK_BLOCKS` tasks that share
    one B width and returns their results in order; ``results[i]`` is
    ``tasks[i]``'s.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    groups: dict = {}
    for index, task in enumerate(tasks):
        groups.setdefault(task.n, []).append(index)
    results: List[Optional[BlockResult]] = [None] * len(tasks)
    for indices in groups.values():
        for lo in range(0, len(indices), CHUNK_BLOCKS):
            part = indices[lo : lo + CHUNK_BLOCKS]
            for index, result in zip(part, evaluate([tasks[i] for i in part])):
                results[index] = result
    return results


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


def box_rows(rows: np.ndarray, step_order: Tuple[str, ...]) -> List[BlockResult]:
    """Box ``[N, VECTOR_WIDTH]`` int64 action rows as :class:`BlockResult`s.

    ``step_order`` is the order in which the model's stepped path first
    adds each counter it can emit.  Counter dicts keep that insertion
    order and its zero-skip rule (a counter that stays zero is absent),
    so boxed results equal the stepped ones field for field.  Each
    result keeps its row as the ``action_vector_int`` stash.
    """
    cols = [ACTION_COL[name] for name in step_order]
    counters = rows[:, cols]
    counter_rows = counters.astype(np.float64).tolist()
    # One bit per counter that is zero in a row.  Only a handful of
    # zero patterns occur in a batch; each maps to the names it drops.
    zero_bits = ((counters == 0) @ (1 << np.arange(len(cols), dtype=np.int64))).tolist()
    drops = {
        zeros: [name for j, name in enumerate(step_order) if zeros >> j & 1]
        for zeros in set(zero_bits)
    }
    cycle_list = rows[:, 0].tolist()
    product_list = rows[:, 1].tolist()
    bins = rows[:, 2:6].copy()
    # Constructors are bypassed (plain __new__ + attribute fill): this
    # loop builds tens of thousands of results per corpus batch, and
    # the dataclass __init__/__post_init__ overhead triples its cost.
    # All invariants the constructors check hold here: cycles/products
    # are non-negative and the counter dict carries nonzero floats.
    new_counters = Counters.__new__
    new_hist = UtilHistogram.__new__
    new_result = BlockResult.__new__
    results = []
    for f, zeros in enumerate(zero_bits):
        data = dict(zip(step_order, counter_rows[f]))
        if zeros:
            for name in drops[zeros]:
                del data[name]
        boxed = new_counters(Counters)
        boxed._data = data
        hist = new_hist(UtilHistogram)
        hist.bins = bins[f]
        result = new_result(BlockResult)
        result.cycles = cycle_list[f]
        result.products = product_list[f]
        result.util_hist = hist
        result.counters = boxed
        result._int_vector = rows[f]
        results.append(result)
    return results
