"""The assembled Uni-STC simulator: TMS → DPG → SDPU per T1 task.

For one 16x16x16 block task the model (1) derives the level-1/level-2
bitmap views the BBC format supplies, (2) lets the TMS generate, order
and dispatch T3 tasks into per-cycle batches, (3) decomposes every
dispatched T3 task into T4 segments through the DPG, (4) checks SDPU
lane packing, and (5) emits cycles, the per-cycle utilisation histogram
and all energy action counters (including the dynamic-gating split of
DPG cycles).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.arch.base import BlockResult, STCModel
from repro.arch.config import UniSTCConfig
from repro.arch.counters import Counters
from repro.arch.dpg import dpg_stats
from repro.arch.sdpu import SegmentedDotProductUnit
from repro.arch.tasks import T1Task, UtilHistogram
from repro.arch.tms import TileMultiplyScheduler, tile_products
from repro.errors import SimulationError


def decode_a_operand(a_bitmap: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """A-block level-2 view: per-tile bitmaps (4x4) and column counts.

    Returns ``(tile_bitmaps, col_counts)`` with ``tile_bitmaps[i, k]``
    the 16-bit bitmap of tile (i, k) and ``col_counts[i, k, kk]`` the
    nonzero count of column ``kk`` inside that tile.
    """
    tiles = a_bitmap.reshape(4, 4, 4, 4).swapaxes(1, 2)  # [ti, tj, ei, ej]
    col_counts = tiles.sum(axis=2).astype(np.int64)      # [ti, tj, ej]
    weights = (1 << np.arange(16, dtype=np.int64)).reshape(4, 4)
    tile_bitmaps = (tiles.astype(np.int64) * weights).sum(axis=(2, 3))
    return tile_bitmaps, col_counts


def decode_b_operand(b_bitmap: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """B-operand level-2 view for matrix (16x16) or vector (16x1) shape.

    Returns ``(tile_bitmaps, row_counts, n_cols)`` where tiles span
    ``(k, j)``; for a vector operand the tile is 4x1 and its bitmap uses
    element index ``ei`` directly.
    """
    if b_bitmap.shape == (16, 16):
        tiles = b_bitmap.reshape(4, 4, 4, 4).swapaxes(1, 2)
        row_counts = tiles.sum(axis=3).astype(np.int64)  # [tk, tj, ei]
        weights = (1 << np.arange(16, dtype=np.int64)).reshape(4, 4)
        tile_bitmaps = (tiles.astype(np.int64) * weights).sum(axis=(2, 3))
        return tile_bitmaps, row_counts, 4
    if b_bitmap.shape == (16, 1):
        segs = b_bitmap[:, 0].reshape(4, 4)              # [tk, ei]
        row_counts = segs.astype(np.int64)[:, None, :]    # [tk, 1, ei]
        weights = 1 << np.arange(4, dtype=np.int64)
        tile_bitmaps = (segs.astype(np.int64) * weights).sum(axis=1)[:, None]
        return tile_bitmaps, row_counts, 1
    raise SimulationError(f"unsupported B operand shape {b_bitmap.shape}")


class UniSTC(STCModel):
    """The paper's unified sparse tensor core."""

    def __init__(
        self,
        config: Optional[UniSTCConfig] = None,
        ordering: str = "outer",
        fill_order: str = "z",
    ):
        self.config = config or UniSTCConfig()
        self.ordering = ordering
        self.fill_order = fill_order
        self.tms = TileMultiplyScheduler(self.config)
        self.sdpu = SegmentedDotProductUnit(self.config.macs)
        self.name = f"uni-stc({self.config.num_dpgs}dpg)" if self.config.num_dpgs != 8 else "uni-stc"

    @property
    def macs(self) -> int:
        return self.config.macs

    def cache_key(self) -> str:
        cfg = self.config
        return (
            f"uni:{cfg.precision.name}:{cfg.num_dpgs}:{self.ordering}:{self.fill_order}:"
            f"{int(cfg.adaptive_ordering)}{int(cfg.dynamic_gating)}{int(cfg.conflict_stall)}:"
            f"{cfg.dpg_wakeup_cycles}-{cfg.lookahead_cycles}"
        )

    def simulate_block(self, task: T1Task) -> BlockResult:
        cfg = self.config
        a_tiles, a_cols = decode_a_operand(task.a_bitmap())
        b_tiles, b_rows, n_cols = decode_b_operand(task.b_bitmap())
        products = tile_products(a_cols, b_rows)

        counters = Counters()
        hist = UtilHistogram()
        total_products = int(products.sum())
        # Metadata the TMS/DPG read: the two top-level bitmaps plus one
        # level-2 bitmap per nonzero tile of each operand.
        counters.add("meta_reads", 2 + int((a_tiles != 0).sum()) + int((b_tiles != 0).sum()))

        if total_products == 0:
            # Nothing to multiply: the T1 task retires in one cycle of
            # metadata processing (the Fig. 20 "extremely sparse" regime).
            hist.record(0.0)
            counters.add("sched_cycles", 1)
            counters.add("lane_cycles", cfg.macs)
            counters.add("dpg_gated_cycles", cfg.num_dpgs if cfg.dynamic_gating else 0)
            counters.add("dpg_active_cycles", 0 if cfg.dynamic_gating else cfg.num_dpgs)
            return BlockResult(cycles=1, products=0, util_hist=hist, counters=counters)

        outcome = self.tms.schedule(products, self.ordering)
        cycles = outcome.total_cycles
        if outcome.total_products != total_products:
            raise SimulationError("scheduler lost intermediate products")

        # Per-dispatched-task DPG decomposition and SDPU packing checks.
        prev_active = 0
        wakeup_stalls = 0
        for cyc in outcome.cycles:
            hist.record(cyc.products / cfg.macs)
            counters.add("dpg_active_cycles", cyc.tasks)
            if cfg.dynamic_gating:
                counters.add("dpg_gated_cycles", cfg.num_dpgs - cyc.tasks)
                # Waking a gated DPG takes dpg_wakeup_cycles; the TMS's
                # prefix-sum look-ahead (§IV-C) hides up to
                # lookahead_cycles of it.  Any remainder stalls the
                # newly-woken DPGs' first dispatch.
                if cyc.tasks > prev_active:
                    exposed = max(0, cfg.dpg_wakeup_cycles - cfg.lookahead_cycles)
                    wakeup_stalls += exposed
            else:
                counters.add("dpg_active_cycles", cfg.num_dpgs - cyc.tasks)
            prev_active = cyc.tasks
        if wakeup_stalls:
            cycles += wakeup_stalls
            for _ in range(wakeup_stalls):
                hist.record(0.0)
            counters.add(
                "dpg_gated_cycles" if cfg.dynamic_gating else "dpg_active_cycles",
                cfg.num_dpgs * wakeup_stalls,
            )
        t3_count = outcome.total_task_dispatches
        counters.add("sched_cycles", cycles)
        counters.add("lane_cycles", cfg.macs * cycles)
        counters.add("tile_fetches", outcome.a_tile_fetches + outcome.b_tile_fetches)
        counters.add("queue_ops", 2 * t3_count)

        # DPG stage: decompose every scheduled (i, j, k) T3 task once.
        # T4 results land in the local accumulator buffer (one RMW per
        # pre-merged T4 write); the C output network is crossed once per
        # distinct output element when the T1 task completes (§IV-C).
        t4_count = 0
        for k in range(products.shape[0]):
            for i, j in zip(*np.nonzero(products[k])):
                t4, a_fetch, b_fetch, a_cast, b_cast, c_writes = dpg_stats(
                    int(a_tiles[i, k]), int(b_tiles[k, j]), n_cols, self.fill_order
                )
                t4_count += t4
                counters.add("a_elem_reads", a_fetch)
                counters.add("b_elem_reads", b_fetch)
                counters.add("a_net_transfers", a_fetch)
                counters.add("b_net_transfers", b_fetch)
                counters.add("a_broadcasts", a_cast)
                counters.add("b_broadcasts", b_cast)
                counters.add("accum_accesses", c_writes)
        c_outputs = int(
            np.count_nonzero(
                task.a_bitmap().astype(np.int64) @ task.b_bitmap().astype(np.int64)
            )
        )
        counters.add("c_elem_writes", c_outputs)
        counters.add("c_net_transfers", c_outputs)
        counters.add("queue_ops", 2 * t4_count)
        counters.add("mac_ops", total_products)
        return BlockResult(
            cycles=cycles, products=total_products, util_hist=hist, counters=counters
        )

    def simulate_blocks(self, tasks: Sequence[T1Task]) -> np.ndarray:
        """Batched evaluation: array ops across the whole batch.

        Delegates to :mod:`repro.arch.fastpath`; its action rows equal
        :meth:`simulate_block`'s per task exactly.
        """
        from repro.arch import fastpath

        return fastpath.simulate_blocks(self, tasks)
