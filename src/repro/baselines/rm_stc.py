"""RM-STC — the row-merge sparse tensor core (row-row dataflow).

Per Table VI its T3 task is 8x4x2 at FP64 (16x4x2 at FP32): eight
independent *row lanes*, each multiplying two of its A row's gathered
nonzero scalars against a 4-column chunk of the correspondingly merged
B rows ("scalars mul. vectors to update vectors", Table I).  Because
each lane pairs the scalars of its *own* row, the A side is fully
gathered — RM-STC's strength over the outer-product design.  The model
keeps its published limitations:

- K is fixed at 2 per lane-step and concatenation is allowed only
  along N (Fig. 6), so SpMV utilisation is capped at 8*2/64 = 25%;
- partial products merge only within a scalar pair (merge factor <= 2)
  before writing C — better than DS-STC's none, short of Uni-STC's
  4-way SDPU pre-merge;
- lanes finish unevenly on irregular rows, and the block completes
  with its slowest lane schedule — RM-STC's "particularly sensitive to
  the sparsity of matrix A" behaviour (§VI-C).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

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
from repro.baselines.common import operand_arrays


@lru_cache(maxsize=None)
def _mask_tables(chunk_cols: int) -> Tuple[np.ndarray, np.ndarray]:
    """Popcount and live-column chunking tables over 16-bit column masks.

    Returns ``(popcount[mask], chunk_masks[mask, c])``, where
    ``chunk_masks[mask, c]`` keeps the set bits of ``mask`` whose rank
    among them falls in chunk ``c`` — the columns one lane-slot covers.
    """
    masks = np.arange(1 << 16, dtype=np.uint32)[:, None]
    bits = ((masks >> np.arange(16, dtype=np.uint32)) & 1).astype(np.uint8)
    chunk_of_bit = (np.cumsum(bits, axis=1, dtype=np.int16) - 1) // chunk_cols
    weights = 1 << np.arange(16, dtype=np.int64)
    chunks = -(-16 // chunk_cols)
    chunk_masks = np.stack(
        [(bits * (chunk_of_bit == c)) @ weights for c in range(chunks)], axis=1
    ).astype(np.uint16)
    return bits.sum(axis=1, dtype=np.int64), chunk_masks


class RmSTC(STCModel):
    """Row-merge sparse tensor core model."""

    def __init__(self, precision: Precision = FP64):
        self.precision = precision
        self.lanes = 8 if precision.macs == 64 else 16
        self.chunk_cols = 4
        self.k_pair = 2
        self.name = "rm-stc"

    @property
    def macs(self) -> int:
        return self.precision.macs

    def cache_key(self) -> str:
        return f"rm:{self.precision.name}"

    def simulate_block(self, task: T1Task) -> BlockResult:
        a, b = operand_arrays(task)
        hist = UtilHistogram()
        counters = Counters()

        # Per row: gather its nonzero scalars, pair them, and for each
        # pair count the 4-column chunks of the merged B rows.  Each
        # (pair, chunk) combination is one lane-slot of work.
        slot_products: List[List[int]] = []   # per row, products per slot
        slot_writes: List[List[int]] = []
        total_products = 0
        used_ks: set = set()
        for i in range(16):
            ks = np.flatnonzero(a[i])
            if ks.size == 0:
                continue
            counters.add("a_elem_reads", int(ks.size))
            counters.add("a_net_transfers", int(ks.size))
            counters.add("meta_reads", 1)
            row_slots_p: List[int] = []
            row_slots_w: List[int] = []
            for p in range(0, ks.size, self.k_pair):
                pair = ks[p : p + self.k_pair]
                merged = b[pair]                      # (<=2, N)
                live = np.flatnonzero(merged.any(axis=0))
                if live.size == 0:
                    continue
                used_ks.update(int(k) for k in pair)
                per_col = merged[:, live].sum(axis=0)  # matched products/col
                for c0 in range(0, live.size, self.chunk_cols):
                    seg = per_col[c0 : c0 + self.chunk_cols]
                    eff = int(seg.sum())
                    row_slots_p.append(eff)
                    row_slots_w.append(int(np.count_nonzero(seg)))
                    total_products += eff
            if row_slots_p:
                slot_products.append(row_slots_p)
                slot_writes.append(row_slots_w)
        # B rows are fetched once per block into the shared row-merge
        # buffer and broadcast to the lanes that need them.
        b_traffic = int(sum(b[k].sum() for k in used_ks))
        counters.add("b_elem_reads", b_traffic)
        counters.add("b_net_transfers", b_traffic)

        if not slot_products:
            hist.record(0.0)
            counters.add("lane_cycles", self.macs)
            counters.add("sched_cycles", 1)
            return BlockResult(cycles=1, products=0, util_hist=hist, counters=counters)

        # Schedule rows onto the lane array: longest-row first onto the
        # least-loaded lane (the hardware's greedy issue), then the
        # block finishes with the fullest lane.
        lane_loads = [0] * self.lanes
        lane_queues: List[List[int]] = [[] for _ in range(self.lanes)]
        order = sorted(range(len(slot_products)), key=lambda r: -len(slot_products[r]))
        for r in order:
            lane = lane_loads.index(min(lane_loads))
            lane_queues[lane].extend(slot_products[r])
            lane_loads[lane] += len(slot_products[r])
            counters.add("c_elem_writes", sum(slot_writes[r]))
            counters.add("c_net_transfers", sum(slot_writes[r]))
            counters.add("accum_accesses", sum(slot_writes[r]))
        cycles = max(lane_loads)
        for c in range(cycles):
            eff = sum(queue[c] for queue in lane_queues if c < len(queue))
            hist.record(eff / self.macs)

        counters.add("mac_ops", total_products)
        counters.add("lane_cycles", self.macs * cycles)
        counters.add("sched_cycles", cycles)
        return BlockResult(
            cycles=cycles, products=total_products, util_hist=hist, counters=counters
        )

    def simulate_blocks(self, tasks: Sequence[T1Task]) -> np.ndarray:
        """Batch evaluation over (block, row, k-pair) triples.

        Rows equal :meth:`simulate_block`'s, row for row.  Each A row's
        nonzeros pair up in K order; a pair's merged B row is the union
        of two 16-bit B row masks, and its lane-slots are the
        ``chunk_cols``-wide chunks of that union's live columns (table
        lookups per pair).  The greedy longest-row-first lane schedule
        runs as 16 vectorised ``argmin`` steps over ``[N, lanes]``.
        """
        return evaluate_grouped(tasks, self._evaluate_group)

    def _evaluate_group(self, tasks: List[T1Task]) -> np.ndarray:
        a, b = stack_operands(tasks)
        count = len(tasks)
        popcount, chunk_masks = _mask_tables(self.chunk_cols)
        b_masks = b.view(np.uint8) @ (1 << np.arange(b.shape[2], dtype=np.int64))
        nb = b.sum(axis=2, dtype=np.int64)                       # [N, k]

        # Nonzeros of A in (block, row, k) order; a row's rank-th nonzero
        # belongs to pair rank // k_pair.  Consecutive nonzeros of one
        # pair are adjacent in this order.
        qq, ii, kk = np.nonzero(a)
        row_id = qq * 16 + ii
        rank = np.cumsum(a, axis=2, dtype=np.int16)[qq, ii, kk] - 1
        first = np.nonzero(rank % self.k_pair == 0)[0]
        pair_row = row_id[first]
        pair_block = qq[first]
        merged = b_masks[pair_block, kk[first]]                   # live-column union
        both = np.zeros_like(merged)                              # columns hit twice
        total = popcount[merged]                                  # pair products
        members = [first]
        for step in range(1, self.k_pair):
            nxt = np.minimum(first + step, rank.size - 1)
            has = (nxt == first + step) & (row_id[nxt] == pair_row)
            mask = np.where(has, b_masks[pair_block, kk[nxt]], 0)
            both |= merged & mask
            merged |= mask
            total += popcount[mask]
            members.append(np.where(has, nxt, -1))
        live = popcount[merged]                                   # merged live columns
        slots = -(-live // self.chunk_cols)

        # used_ks: every K of a pair with live columns, as a scatter.
        used = np.zeros((count, 16), dtype=bool)
        for member in members:
            ok = (member >= 0) & (live > 0)
            used[pair_block[ok], kk[member[ok]]] = True

        # Per-row lane-slot counts, then the greedy schedule: rows in
        # descending slot count (ties by row index — ``sorted`` is
        # stable) onto the first least-loaded lane.
        row_slots = np.bincount(pair_row, weights=slots, minlength=count * 16)
        row_slots = row_slots.astype(np.int64).reshape(count, 16)
        order = np.argsort(-row_slots, axis=1, kind="stable")
        loads = np.zeros((count, self.lanes), dtype=np.int64)
        row_start = np.zeros((count, 16), dtype=np.int64)
        blocks = np.arange(count)
        for position in range(16):
            row = order[:, position]
            length = row_slots[blocks, row]
            if not length.any():
                break  # the remaining rows carry no slots
            lane = loads.argmin(axis=1)
            row_start[blocks, row] = loads[blocks, lane]
            loads[blocks, lane] += length
        cycles = loads.max(axis=1)

        # Every slot (pair, chunk) lands at cycle row_start + its offset
        # in the row's slot list; one bincount gives per-cycle products.
        pair_offset = np.cumsum(slots) - slots
        row_begin = np.ones(pair_row.size, dtype=bool)
        row_begin[1:] = pair_row[1:] != pair_row[:-1]
        begin_index = np.maximum.accumulate(np.where(row_begin, np.arange(pair_row.size), 0))
        pair_offset = pair_offset - pair_offset[begin_index]
        pair_cycle = row_start.reshape(-1)[pair_row] + pair_offset
        cycle_base = np.cumsum(cycles) - cycles
        chunk = chunk_masks[merged]                               # [pairs, chunks]
        eff = popcount[chunk] + popcount[chunk & both[:, None]]
        in_row = np.arange(chunk.shape[1]) < slots[:, None]
        slot_cycle = (cycle_base[pair_block] + pair_cycle)[:, None] + np.arange(chunk.shape[1])
        cycle_eff = np.bincount(
            slot_cycle[in_row], weights=eff[in_row], minlength=int(cycles.sum())
        ).astype(np.int64)
        block_of_cycle = np.repeat(blocks, cycles)
        bins = np.bincount(
            block_of_cycle * 4 + util_bin(cycle_eff, self.macs), minlength=count * 4
        ).reshape(count, 4)
        idle = cycles == 0
        bins[idle, 0] = 1
        cycles = np.where(idle, 1, cycles)

        writes = np.bincount(pair_block, weights=live, minlength=count).astype(np.int64)
        products = np.bincount(pair_block, weights=total, minlength=count).astype(np.int64)
        b_traffic = (nb * used).sum(axis=1)
        rows = np.zeros((count, VECTOR_WIDTH), dtype=np.int64)
        rows[:, 0] = cycles
        rows[:, 1] = products
        rows[:, 2:6] = bins
        for name in ("a_elem_reads", "a_net_transfers"):
            rows[:, ACTION_COL[name]] = a.sum(axis=(1, 2))
        rows[:, ACTION_COL["meta_reads"]] = a.any(axis=2).sum(axis=1)
        for name in ("b_elem_reads", "b_net_transfers"):
            rows[:, ACTION_COL[name]] = b_traffic
        for name in ("c_elem_writes", "c_net_transfers", "accum_accesses"):
            rows[:, ACTION_COL[name]] = writes
        rows[:, ACTION_COL["mac_ops"]] = products
        rows[:, ACTION_COL["lane_cycles"]] = self.macs * cycles
        rows[:, ACTION_COL["sched_cycles"]] = cycles
        return rows
