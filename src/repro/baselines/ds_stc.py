"""DS-STC — the dual-side sparse tensor core (outer-product dataflow).

Per Table VI its T3 task is 8x8x1 at FP64 (8x16x1 at FP32): every
cycle multiplies a gathered 8-chunk of one A *column* with a gathered
chunk of the matching B *row* — a rank-1 outer-product update.  The
model reproduces DS-STC's published strengths and weaknesses:

- dual-side gathering gives decent transient utilisation, and a fully
  dead K layer is skipped outright;
- K is fixed at 1, so tasks at different K positions can never share a
  cycle (the Fig. 6 concatenation restriction): a block with many
  shallow live K layers pays one cycle each, and for SpMV utilisation
  is structurally capped at 8/64 = 12.5%;
- every intermediate product is pushed out towards C over the
  monolithic network (no pre-merging) — the 6.5x write-energy gap of
  Fig. 18/19.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.arch.base import VECTOR_WIDTH, BlockResult, STCModel
from repro.arch.batching import (
    ACTION_COL,
    evaluate_grouped,
    stack_operands,
    util_bin,
)
from repro.arch.config import FP64, Precision
from repro.arch.counters import Counters
from repro.arch.tasks import T1Task, UtilHistogram
from repro.baselines.common import ceil_div, chunks, operand_arrays


class DsSTC(STCModel):
    """Outer-product dual-side sparse tensor core model."""

    def __init__(self, precision: Precision = FP64):
        self.precision = precision
        self.chunk_a = 8
        self.chunk_b = 8 if precision.macs == 64 else 16
        self.name = "ds-stc"

    @property
    def macs(self) -> int:
        return self.precision.macs

    def cache_key(self) -> str:
        return f"ds:{self.precision.name}"

    def simulate_block(self, task: T1Task) -> BlockResult:
        a, b = operand_arrays(task)
        hist = UtilHistogram()
        counters = Counters()
        cycles = 0
        products = 0

        a_col_nnz = a.sum(axis=0)
        b_row_nnz = b.sum(axis=1)
        for k in range(16):
            na, nb = int(a_col_nnz[k]), int(b_row_nnz[k])
            if na == 0 or nb == 0:
                continue  # dual-side skipping of a dead rank-1 update
            counters.add("meta_reads", 2)
            # Gathered A chunk stays resident while B chunks stream past.
            counters.add("a_elem_reads", na)
            counters.add("a_net_transfers", na)
            counters.add("b_elem_reads", nb * ceil_div(na, self.chunk_a))
            counters.add("b_net_transfers", nb * ceil_div(na, self.chunk_a))
            for ca in chunks(na, self.chunk_a):
                for cb in chunks(nb, self.chunk_b):
                    eff = ca * cb
                    cycles += 1
                    products += eff
                    hist.record(eff / self.macs)
                    counters.add("mac_ops", eff)
                    # Outer product: every partial product is written out
                    # across the monolithic network for later merging.
                    counters.add("c_elem_writes", eff)
                    counters.add("c_net_transfers", eff)
                    counters.add("accum_accesses", eff)

        if cycles == 0:
            hist.record(0.0)
            cycles = 1
        counters.add("lane_cycles", self.macs * cycles)
        counters.add("sched_cycles", cycles)
        return BlockResult(cycles=cycles, products=products, util_hist=hist, counters=counters)

    def simulate_blocks(self, tasks: Sequence[T1Task]) -> np.ndarray:
        """Closed-form batch evaluation; rows equal :meth:`simulate_block`'s.

        Per block and K layer, with ``na = |A[:, k]|`` and
        ``nb = |B[k, :]|``, the layer issues ``ceil(na / chunk_a) *
        ceil(nb / chunk_b)`` cycles and ``na * nb`` products, and every
        cycle is one of four (full | remainder A chunk) x (full |
        remainder B chunk) shapes — so the whole batch reduces to
        integer array ops over ``[N, 16]`` popcounts.
        """
        return evaluate_grouped(tasks, self._evaluate_group)

    def _evaluate_group(self, tasks: List[T1Task]) -> np.ndarray:
        a, b = stack_operands(tasks)
        na = a.sum(axis=1, dtype=np.int64)            # [N, k] A column counts
        nb = b.sum(axis=2, dtype=np.int64)            # [N, k] B row counts
        live = (na > 0) & (nb > 0)
        a_chunks = -(-na // self.chunk_a)
        b_chunks = -(-nb // self.chunk_b)
        products = (na * nb).sum(axis=1)
        cycles = (a_chunks * b_chunks).sum(axis=1)
        b_reads = (nb * a_chunks).sum(axis=1)

        # Cycle shapes: ``full`` chunks plus at most one remainder chunk
        # per operand; each (A shape, B shape) combination issues
        # count_a * count_b cycles of ca * cb products.
        bins = np.zeros((len(tasks), 4), dtype=np.int64)
        shapes_a = ((na // self.chunk_a, self.chunk_a),
                    ((na % self.chunk_a > 0).astype(np.int64), na % self.chunk_a))
        shapes_b = ((nb // self.chunk_b, self.chunk_b),
                    ((nb % self.chunk_b > 0).astype(np.int64), nb % self.chunk_b))
        for count_a, ca in shapes_a:
            for count_b, cb in shapes_b:
                count = count_a * count_b
                slot = util_bin(ca * cb, self.macs)
                for bin_index in range(4):
                    bins[:, bin_index] += (count * (slot == bin_index)).sum(axis=1)
        idle = cycles == 0
        bins[idle, 0] = 1
        cycles = np.where(idle, 1, cycles)

        rows = np.zeros((len(tasks), VECTOR_WIDTH), dtype=np.int64)
        rows[:, 0] = cycles
        rows[:, 1] = products
        rows[:, 2:6] = bins
        rows[:, ACTION_COL["meta_reads"]] = 2 * live.sum(axis=1)
        for name in ("a_elem_reads", "a_net_transfers"):
            rows[:, ACTION_COL[name]] = (na * live).sum(axis=1)
        for name in ("b_elem_reads", "b_net_transfers"):
            rows[:, ACTION_COL[name]] = b_reads
        for name in ("mac_ops", "c_elem_writes", "c_net_transfers", "accum_accesses"):
            rows[:, ACTION_COL[name]] = products
        rows[:, ACTION_COL["lane_cycles"]] = self.macs * cycles
        rows[:, ACTION_COL["sched_cycles"]] = cycles
        return rows
