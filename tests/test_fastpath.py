"""Parity and unit tests for the batched/analytic evaluation fast path.

``repro.arch.fastpath.simulate_blocks`` claims exact equality with the
stepped ``UniSTC.simulate_block`` reference — not "close", *equal*,
because the engine inserts its action rows into the same block cache
the stepped path reads.  These tests enforce that claim row for row
over every kernel's block population and over the model configurations
the experiments actually sweep, plus the closed-form DPG statistics
against the queue-walking decomposition they replace.  The
``simulate_blocks`` contract itself (rows equal ``result_rows`` of the
stepped results, dtype included) is checked for every registered STC.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.base import VECTOR_WIDTH, result_rows
from repro.arch.config import Precision, UniSTCConfig, parse_precision
from repro.arch.dpg import DotProductGenerator, dpg_stats
from repro.arch.fastpath import (
    _dpg_block_totals,
    _pack_greedy,
    decode_a_operands,
    decode_b_operands,
)
from repro.arch.tms import tile_products_batch
from repro.arch.tasks import T1Task
from repro.arch.unistc import UniSTC, decode_a_operand, decode_b_operand
from repro.errors import SimulationError
from repro.formats.bbc import BBCMatrix
from repro.kernels import KERNELS
from repro.kernels.batched import coalesce_raw, kernel_task_batches
from repro.kernels.vector import SparseVector
from repro.registry import create_stc, registered_stcs
from repro.workloads.synthetic import banded, random_uniform
from tests.oracles import dpg_stats_per_task, pack_sequential


def _kernel_tasks(limit_per_kernel: int = 80) -> list:
    """Distinct T1 tasks drawn from every kernel's real block stream."""
    rng = np.random.default_rng(7)
    mats = [
        BBCMatrix.from_coo(banded(64, 10, 0.6, seed=1)),
        BBCMatrix.from_coo(random_uniform(64, 64, 0.08, seed=2)),
    ]
    seen = set()
    tasks = []
    for bbc in mats:
        for kernel in KERNELS:
            operands = {}
            if kernel == "spmspv":
                dense = rng.random(bbc.shape[1]) * (rng.random(bbc.shape[1]) < 0.5)
                operands["x"] = SparseVector.from_dense(dense)
            elif kernel == "spmm":
                operands["b_cols"] = 32
            taken = 0
            for batch in kernel_task_batches(kernel, bbc, **operands):
                raw = coalesce_raw(batch)
                for ai, bi, _ in raw.pairs:
                    key = (raw.a_bytes[ai], raw.b_bytes[bi], raw.n)
                    if key in seen:
                        continue
                    seen.add(key)
                    tasks.append(
                        T1Task(raw.a_bytes[ai], raw.b_bytes[bi], n=raw.n)
                    )
                    taken += 1
                    if taken >= limit_per_kernel:
                        break
                if taken >= limit_per_kernel:
                    break
    return tasks


def _handmade_tasks() -> list:
    """Edge-case blocks the corpus draw may not cover."""
    rng = np.random.default_rng(11)
    tasks = [
        # Empty A, empty pair, dense-dense (uniform full windows).
        T1Task.from_bitmaps(np.zeros((16, 16), bool), np.ones((16, 16), bool)),
        T1Task.from_bitmaps(np.zeros((16, 16), bool), np.zeros((16, 16), bool)),
        T1Task.from_bitmaps(np.ones((16, 16), bool), np.ones((16, 16), bool)),
        # Dense-vector and empty-vector operands (SpMV/SpMSpV shape).
        T1Task.from_bitmaps(np.ones((16, 16), bool), np.ones((16, 1), bool)),
        T1Task.from_bitmaps(np.ones((16, 16), bool), np.zeros((16, 1), bool)),
    ]
    # A single dense A column drives every T3 task of a window onto the
    # same output tile column — the conflict-stall replay path.
    a = np.zeros((16, 16), bool)
    a[:, 0:4] = True
    tasks.append(T1Task.from_bitmaps(a, np.ones((16, 16), bool)))
    # Single dense A row: one output tile row, DPG-bound windows.
    a = np.zeros((16, 16), bool)
    a[0] = True
    tasks.append(T1Task.from_bitmaps(a, np.ones((16, 16), bool)))
    for _ in range(12):
        tasks.append(
            T1Task.from_bitmaps(
                rng.random((16, 16)) < 0.3, rng.random((16, 16)) < 0.3
            )
        )
    for _ in range(6):
        tasks.append(
            T1Task.from_bitmaps(
                rng.random((16, 16)) < 0.4, rng.random((16, 1)) < 0.6
            )
        )
    return tasks


def _stepped_rows(stc, tasks) -> np.ndarray:
    """The reference rows: ``simulate_block`` per task, stacked."""
    return result_rows([stc.simulate_block(task) for task in tasks])


def _assert_rows_equal(rows, want, label: str):
    """``rows`` equals ``want`` exactly, dtype included."""
    assert isinstance(rows, np.ndarray), label
    assert rows.shape == want.shape and rows.dtype == want.dtype, label
    bad = np.nonzero((rows != want).any(axis=1))[0]
    assert bad.size == 0, (
        f"{label}, task {bad[0]}: {rows[bad[0]].tolist()} "
        f"!= {want[bad[0]].tolist()}")


MODEL_VARIANTS = {
    "default": lambda: UniSTC(),
    "4dpg": lambda: UniSTC(UniSTCConfig(num_dpgs=4)),
    "16dpg": lambda: UniSTC(UniSTCConfig(num_dpgs=16)),
    "no-gating": lambda: UniSTC(UniSTCConfig(dynamic_gating=False)),
    "no-conflict": lambda: UniSTC(UniSTCConfig(conflict_stall=False)),
    "no-adaptive": lambda: UniSTC(UniSTCConfig(adaptive_ordering=False)),
    "fp32": lambda: UniSTC(UniSTCConfig(precision=parse_precision("fp32"))),
    "dot": lambda: UniSTC(ordering="dot"),
    "rowrow": lambda: UniSTC(ordering="rowrow"),
    "n-fill": lambda: UniSTC(fill_order="n"),
}


class TestBlockContract:
    """``simulate_blocks`` returns the stepped results' action rows."""

    @pytest.fixture(scope="class")
    def corpus_tasks(self):
        return _kernel_tasks()

    @pytest.mark.parametrize("name", registered_stcs())
    def test_rows_equal_stepped_results(self, corpus_tasks, name):
        stc = create_stc(name)
        _assert_rows_equal(stc.simulate_blocks(corpus_tasks),
                           _stepped_rows(stc, corpus_tasks), name)

    @pytest.mark.parametrize("name", registered_stcs())
    def test_empty_input_gives_empty_matrix(self, name):
        rows = create_stc(name).simulate_blocks([])
        assert rows.shape == (0, VECTOR_WIDTH)


class TestBatchedParity:
    @pytest.fixture(scope="class")
    def corpus_tasks(self):
        return _kernel_tasks()

    @pytest.mark.parametrize("variant", sorted(MODEL_VARIANTS))
    def test_kernel_blocks_match_stepped(self, corpus_tasks, variant):
        stc = MODEL_VARIANTS[variant]()
        _assert_rows_equal(stc.simulate_blocks(corpus_tasks),
                           _stepped_rows(stc, corpus_tasks), variant)

    def test_handmade_blocks_match_stepped(self):
        tasks = _handmade_tasks()
        for variant, build in MODEL_VARIANTS.items():
            stc = build()
            _assert_rows_equal(stc.simulate_blocks(tasks),
                               _stepped_rows(stc, tasks), f"handmade/{variant}")

    def test_mixed_width_group_order_preserved(self):
        """Matrix-B and vector-B tasks interleaved keep their slots."""
        tasks = _handmade_tasks()
        rng = np.random.default_rng(3)
        order = rng.permutation(len(tasks))
        shuffled = [tasks[i] for i in order]
        stc = UniSTC()
        _assert_rows_equal(stc.simulate_blocks(shuffled),
                           _stepped_rows(stc, shuffled), "mixed-width")

    def test_baseline_models_honour_block_api(self, corpus_tasks):
        """Models without a vectorised path step per block (the
        batched RM-STC/DS-STC paths: tests/test_baseline_fastpath.py)."""
        some = corpus_tasks[:20]
        for name in ("gamma", "sigma", "trapezoid", "nv-dtc"):
            stc = create_stc(name)
            _assert_rows_equal(stc.simulate_blocks(some),
                               _stepped_rows(stc, some), name)

    def test_rows_match_action_vectors(self, corpus_tasks):
        """Every batched row is int64 and equals the stepped result's
        integer and float action vectors."""
        stc = UniSTC()
        some = corpus_tasks[:120]
        rows = stc.simulate_blocks(some)
        assert rows.dtype == np.int64
        for row, task in zip(rows, some):
            result = stc.simulate_block(task)
            assert np.array_equal(row, result.action_vector_int())
            assert np.array_equal(row.astype(np.float64), result.action_vector())

    def test_empty_task_list(self):
        rows = UniSTC().simulate_blocks([])
        assert rows.shape == (0, VECTOR_WIDTH) and rows.dtype == np.int64


class TestFallbackRouting:
    def test_regular_and_conflicted_blocks_never_step(self):
        """Conflict replay is analytic — no simulate_block calls."""
        stc = UniSTC()
        calls = []
        original = stc.simulate_block
        stc.simulate_block = lambda task: (calls.append(task), original(task))[1]
        stc.simulate_blocks(_handmade_tasks())
        assert calls == []

    def test_over_budget_block_routes_to_stepping(self):
        """A T3 task over the MAC budget must behave like the stepped
        path — which raises — rather than being silently mis-scheduled."""
        tiny = UniSTC(UniSTCConfig(precision=Precision("tiny", 64, 32)))
        dense = T1Task.from_bitmaps(
            np.ones((16, 16), bool), np.ones((16, 16), bool)
        )
        with pytest.raises(SimulationError):
            tiny.simulate_block(dense)
        with pytest.raises(SimulationError):
            tiny.simulate_blocks([dense])

    def test_over_budget_block_among_regular_ones_raises(self):
        """One over-budget block steps its whole group, so the batch
        raises even when its neighbours would schedule."""
        tiny = UniSTC(UniSTCConfig(precision=Precision("tiny", 64, 32)))
        eye = T1Task.from_bitmaps(np.eye(16, dtype=bool), np.eye(16, dtype=bool))
        dense = T1Task.from_bitmaps(
            np.ones((16, 16), bool), np.ones((16, 16), bool)
        )
        assert tiny.simulate_blocks([eye, eye]).shape == (2, VECTOR_WIDTH)
        with pytest.raises(SimulationError):
            tiny.simulate_blocks([eye, dense, eye])

    def test_unknown_ordering_matches_stepped_error(self):
        odd = UniSTC(ordering="spiral")
        task = T1Task.from_bitmaps(
            np.eye(16, dtype=bool), np.eye(16, dtype=bool)
        )
        with pytest.raises(SimulationError):
            odd.simulate_block(task)
        with pytest.raises(SimulationError):
            odd.simulate_blocks([task])


class TestBatchedDecode:
    def test_decode_a_matches_scalar(self):
        rng = np.random.default_rng(5)
        stack = rng.random((40, 16, 16)) < 0.35
        tiles, cols = decode_a_operands(stack)
        for p in range(stack.shape[0]):
            ref_tiles, ref_cols = decode_a_operand(stack[p])
            assert np.array_equal(tiles[p], ref_tiles)
            assert np.array_equal(cols[p], ref_cols)

    @pytest.mark.parametrize("width", [16, 1])
    def test_decode_b_matches_scalar(self, width):
        rng = np.random.default_rng(6)
        stack = rng.random((40, 16, width)) < 0.4
        tiles, rows, n_cols = decode_b_operands(stack)
        for p in range(stack.shape[0]):
            ref_tiles, ref_rows, ref_n = decode_b_operand(stack[p])
            assert n_cols == ref_n
            assert np.array_equal(tiles[p], ref_tiles)
            assert np.array_equal(rows[p], ref_rows)

    def test_decode_b_rejects_unknown_width(self):
        with pytest.raises(SimulationError):
            decode_b_operands(np.zeros((3, 16, 7), dtype=bool))


class TestDpgStatsBatch:
    """The per-task closed-form oracle the block totals are checked
    against, itself checked against ``decompose``."""

    @pytest.mark.parametrize("n_cols,mask", [(4, 0xFFFF), (1, 0xF)])
    def test_matches_decompose(self, n_cols, mask):
        rng = np.random.default_rng(9)
        a = rng.integers(0, 1 << 16, size=3000, dtype=np.int64)
        b = rng.integers(0, mask + 1, size=3000, dtype=np.int64)
        a[:4] = [0, 0xFFFF, 0x8001, 0x00F0]
        b[:4] = [0, mask, mask, 0]
        got = dpg_stats_per_task(a, b, n_cols)
        # The six summary stats are unions/popcounts, insensitive to
        # the queue-fill order — both fills must agree with the batch.
        for fill in ("z", "n"):
            gen = DotProductGenerator(fill)
            for i in range(200):
                out = gen.decompose(int(a[i]), int(b[i]), n_cols)
                assert tuple(got[i]) == (
                    len(out.t4_tasks),
                    out.a_elem_fetches,
                    out.b_elem_fetches,
                    out.a_broadcasts,
                    out.b_broadcasts,
                    out.c_writes,
                ), (n_cols, fill, int(a[i]), int(b[i]))

    def test_matches_memoised_stepping_helper(self):
        rng = np.random.default_rng(10)
        a = rng.integers(0, 1 << 16, size=500, dtype=np.int64)
        b = rng.integers(0, 1 << 16, size=500, dtype=np.int64)
        got = dpg_stats_per_task(a, b, 4)
        for i in range(a.size):
            assert tuple(got[i]) == dpg_stats(int(a[i]), int(b[i]), 4, "z")


def _grid_blocks(a_grid, b_grid):
    """Operand stacks from tile grids.

    ``a_grid[q, i, k]`` / ``b_grid[q, k, j]`` are 16-bit tile bitmaps
    (weight ``1 << (4 * row + col)``); a ``[Q, 4, 1]`` B grid holds 4-bit
    vector tiles.
    """
    count, tiles_j = a_grid.shape[0], b_grid.shape[2]
    n_cols = 4 if tiles_j == 4 else 1
    a_bits = ((a_grid[..., None] >> np.arange(16)) & 1).astype(bool)
    b_bits = ((b_grid[..., None] >> np.arange(4 * n_cols)) & 1).astype(bool)
    # [q, ti, tj, ei, ej] -> [q, ti, ei, tj, ej] -> row-major bitmap.
    a_stack = a_bits.reshape(count, 4, 4, 4, 4).transpose(0, 1, 3, 2, 4)
    b_stack = b_bits.reshape(count, 4, tiles_j, 4, n_cols).transpose(0, 1, 3, 2, 4)
    return (a_stack.reshape(count, 16, 16),
            b_stack.reshape(count, 16, tiles_j * n_cols))


def _block_totals(a_stack, b_stack):
    _, a_cols = decode_a_operands(a_stack)
    _, b_rows, _ = decode_b_operands(b_stack)
    products = tile_products_batch(a_cols, b_rows).sum(axis=(1, 2, 3))
    return _dpg_block_totals(a_stack, b_stack, a_cols, b_rows), products


class TestDpgBlockTotals:
    """Per-block totals against the per-task oracle summed per block."""

    def _check_grids(self, a_grid, b_grid):
        n_cols = 4 if b_grid.shape[2] == 4 else 1
        got, products = _block_totals(*_grid_blocks(a_grid, b_grid))
        # Every (i, k, j) tile pair of the block is a T3 task; pairs
        # without products contribute zero stats.
        a_t = np.broadcast_to(a_grid[:, :, :, None], a_grid.shape + (b_grid.shape[2],))
        b_t = np.broadcast_to(b_grid[:, None, :, :], a_t.shape)
        per_task = dpg_stats_per_task(a_t.ravel(), b_t.ravel(), n_cols)
        want = per_task.reshape(a_grid.shape[0], -1, 6).sum(axis=1)
        # [t4, a_fetch, b_fetch]; broadcasts equal the product count.
        assert np.array_equal(got, want[:, :3])
        assert np.array_equal(products, want[:, 3])
        assert np.array_equal(want[:, 3], want[:, 4])
        assert np.array_equal(want[:, 0], want[:, 5])

    def test_every_vector_tile_pair(self):
        """All 65536 x 16 (A tile, 1-column B tile) pairs, 16 per block."""
        pair = np.arange(16 << 16).reshape(-1, 4, 4)          # [q, i, k]
        a_grid = pair & 0xFFFF
        b_grid = (pair[:, 0, :] >> 16)[:, :, None]            # [q, k, 1]
        for lo in range(0, pair.shape[0], 1 << 14):
            self._check_grids(a_grid[lo:lo + (1 << 14)], b_grid[lo:lo + (1 << 14)])

    def test_random_matrix_tile_pairs(self):
        """131072 random (A tile, B tile) pairs, 64 per block, at bit
        densities from 1/16 to 1/2."""
        rng = np.random.default_rng(22)

        def tiles(shape):
            masks = rng.integers(0, 1 << 16, size=(4,) + shape)
            depth = rng.integers(1, 5, size=shape)
            return np.bitwise_and.reduce(
                np.where(np.arange(4)[:, None, None, None] < depth, masks, 0xFFFF))

        a_grid, b_grid = tiles((2048, 4, 4)), tiles((2048, 4, 4))
        a_grid[0], b_grid[0] = 0xFFFF, 0xFFFF
        a_grid[1], b_grid[1] = 0, 0xFFFF
        self._check_grids(a_grid, b_grid)

    @pytest.mark.parametrize("width", [16, 1])
    def test_whole_blocks_sum_their_tasks(self, width):
        """Zero-product tasks contribute nothing to the block sums."""
        rng = np.random.default_rng(23)
        a_stack = rng.random((300, 16, 16)) < rng.random((300, 1, 1))
        b_stack = rng.random((300, 16, width)) < rng.random((300, 1, 1))
        got, _ = _block_totals(a_stack, b_stack)
        a_tiles, a_cols = decode_a_operands(a_stack)
        b_tiles, b_rows, n_cols = decode_b_operands(b_stack)
        bb, kk, ii, jj = np.nonzero(tile_products_batch(a_cols, b_rows))
        per_task = dpg_stats_per_task(
            a_tiles[bb, ii, kk], b_tiles[bb, kk, jj], n_cols)
        want = np.zeros((300, 3), dtype=np.int64)
        np.add.at(want, bb, per_task[:, :3])
        assert np.array_equal(got, want)


#: (num_dpgs, macs) of every configuration the parity suite sweeps.
PACK_BUDGETS = sorted({
    (build().config.num_dpgs, build().config.macs)
    for build in MODEL_VARIANTS.values()
})


def _random_streams(rng, blocks, num_dpgs, macs):
    """Concatenated product streams (lengths 1-64, ``1 <= p <= macs``)."""
    lengths = rng.integers(1, 65, size=blocks)
    # Half the blocks draw small products so DPG-bound cycles occur too.
    cap = np.where(rng.random(blocks) < 0.5, macs, max(1, macs // num_dpgs) + 1)
    pp = rng.integers(1, np.repeat(cap, lengths) + 1)
    return pp, np.concatenate(([0], np.cumsum(lengths)))


class TestGreedyPacker:
    @pytest.mark.parametrize("num_dpgs,macs", PACK_BUDGETS)
    def test_matches_sequential_packing(self, num_dpgs, macs):
        rng = np.random.default_rng(num_dpgs * 1000 + macs)
        pp, offsets = _random_streams(rng, 600, num_dpgs, macs)
        cyc, ncyc, _ = _pack_greedy(pp, offsets, num_dpgs, macs)
        for q in range(offsets.size - 1):
            lo, hi = offsets[q], offsets[q + 1]
            want_cyc, want_n = pack_sequential(pp[lo:hi], num_dpgs, macs)
            assert np.array_equal(cyc[lo:hi], want_cyc), (num_dpgs, macs, q)
            assert ncyc[q] == want_n, (num_dpgs, macs, q)

    def test_steps_track_the_longest_block(self):
        """The packer steps once per cycle of the longest block, not
        once per block."""
        rng = np.random.default_rng(24)
        cfg = UniSTCConfig()
        pp, offsets = _random_streams(rng, 4096, cfg.num_dpgs, cfg.macs)
        _, ncyc, steps = _pack_greedy(pp, offsets, cfg.num_dpgs, cfg.macs)
        assert steps == int(ncyc.max())
        assert steps <= 64
