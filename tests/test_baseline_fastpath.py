"""Parity tests for the batched closed-form RM-STC and DS-STC paths.

``DsSTC.simulate_blocks`` and ``RmSTC.simulate_blocks`` evaluate a miss
batch with array ops and must return action rows equal to their stepped
``simulate_block``'s — the engine's memo and the result store treat the
two interchangeably.  These tests enforce that over
every kernel's block population and over handmade corner blocks, at
every precision, plus the shared helpers the batched paths run on:
the integer utilisation bin and the bounded-chunk evaluation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import batching
from repro.arch.base import VECTOR_WIDTH
from repro.arch.config import PRECISIONS, parse_precision
from repro.arch.tasks import T1Task, UtilHistogram
from repro.arch.unistc import UniSTC
from repro.baselines import DsSTC, RmSTC

from tests.test_fastpath import _assert_rows_equal, _kernel_tasks, _stepped_rows

MODELS = {"ds-stc": DsSTC, "rm-stc": RmSTC}


def _build(name: str, precision: str):
    return MODELS[name](parse_precision(precision))


def _assert_parity(stc, tasks, label: str):
    _assert_rows_equal(stc.simulate_blocks(tasks), _stepped_rows(stc, tasks), label)


def _corner_tasks() -> list:
    """Blocks that exercise each branch of the two closed forms."""
    rng = np.random.default_rng(23)
    dense = np.ones((16, 16), bool)
    tasks = [
        # Empty A; empty B; both empty; dense x dense.
        T1Task.from_bitmaps(np.zeros((16, 16), bool), dense),
        T1Task.from_bitmaps(dense, np.zeros((16, 16), bool)),
        T1Task.from_bitmaps(np.zeros((16, 16), bool), np.zeros((16, 16), bool)),
        T1Task.from_bitmaps(dense, dense),
    ]
    # An A row with an odd nonzero count: its last K forms a lone pair.
    a = np.zeros((16, 16), bool)
    a[0, [1, 4, 9]] = True
    a[5, [0, 2, 3, 7, 8]] = True
    tasks.append(T1Task.from_bitmaps(a, rng.random((16, 16)) < 0.5))
    # A pair whose merged B rows are dead (B rows 2 and 5 empty), next
    # to a live pair in the same row: no slots, no used K, no B traffic.
    a = np.zeros((16, 16), bool)
    a[3, [2, 5, 6, 11]] = True
    b = rng.random((16, 16)) < 0.6
    b[[2, 5]] = False
    tasks.append(T1Task.from_bitmaps(a, b))
    # Only dead pairs: a non-empty A that schedules nothing.
    a = np.zeros((16, 16), bool)
    a[7, [2, 5]] = True
    tasks.append(T1Task.from_bitmaps(a, b))
    # SpMV / SpMSpV shape: dense, random and empty vector operands.
    tasks.append(T1Task.from_bitmaps(dense, np.ones((16, 1), bool)))
    tasks.append(T1Task.from_bitmaps(rng.random((16, 16)) < 0.4,
                                     rng.random((16, 1)) < 0.6))
    tasks.append(T1Task.from_bitmaps(dense, np.zeros((16, 1), bool)))
    # LPT load ties: twelve rows of equal slot count (more rows than
    # lanes) but different per-slot products, so which row lands on
    # which lane shows in the per-cycle histogram.
    a = np.zeros((16, 16), bool)
    for i in range(12):
        a[i, [(i + s) % 16 for s in range(4)]] = True
    b = np.zeros((16, 16), bool)
    for k in range(16):
        b[k, : 4 + k % 5] = True
    tasks.append(T1Task.from_bitmaps(a, b))
    # Ties between long and short rows, plus uneven rows.
    a = rng.random((16, 16)) < 0.15
    a[:6, :8] = True
    tasks.append(T1Task.from_bitmaps(a, rng.random((16, 16)) < 0.35))
    for density in (0.05, 0.2, 0.5, 0.9):
        tasks.append(T1Task.from_bitmaps(rng.random((16, 16)) < density,
                                         rng.random((16, 16)) < density))
    return tasks


@pytest.fixture(scope="module")
def kernel_blocks():
    return _kernel_tasks()


@pytest.mark.parametrize("precision", sorted(PRECISIONS))
@pytest.mark.parametrize("name", sorted(MODELS))
class TestBaselineParity:
    def test_kernel_blocks_match_stepped(self, kernel_blocks, name, precision):
        _assert_parity(_build(name, precision), kernel_blocks,
                       f"{name}/{precision}")

    def test_corner_blocks_match_stepped(self, name, precision):
        _assert_parity(_build(name, precision), _corner_tasks(),
                       f"corner/{name}/{precision}")

    def test_mixed_width_order_preserved(self, name, precision):
        """Matrix-B and vector-B tasks interleaved keep their slots."""
        tasks = _corner_tasks()
        order = np.random.default_rng(4).permutation(len(tasks))
        _assert_parity(_build(name, precision), [tasks[i] for i in order],
                       f"mixed/{name}/{precision}")

    def test_empty_task_list(self, name, precision):
        rows = _build(name, precision).simulate_blocks([])
        assert rows.shape == (0, VECTOR_WIDTH) and rows.dtype == np.int64


class TestRouting:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_batch_never_steps(self, kernel_blocks, name):
        """The batched path evaluates the kernel block population
        without a single ``simulate_block`` call."""
        stc = MODELS[name]()
        calls = []
        original = stc.simulate_block
        stc.simulate_block = lambda task: (calls.append(task), original(task))[1]
        stc.simulate_blocks(kernel_blocks)
        assert calls == []


class TestUtilBin:
    @pytest.mark.parametrize("precision", sorted(PRECISIONS))
    def test_matches_histogram_record(self, precision):
        """Every product count 0..macs picks the float path's bin."""
        macs = PRECISIONS[precision].macs
        effs = np.arange(macs + 1)
        bins = batching.util_bin(effs, macs)
        for eff in range(macs + 1):
            hist = UtilHistogram()
            hist.record(eff / macs)
            assert int(np.argmax(hist.bins)) == bins[eff], (precision, eff)
            assert int(batching.util_bin(eff, macs)) == bins[eff]


class TestChunking:
    @pytest.mark.parametrize("name", ["uni-stc", "ds-stc", "rm-stc"])
    def test_chunked_equals_unchunked(self, kernel_blocks, monkeypatch, name):
        """A chunk size that splits both width groups mid-way gives the
        same results, in the same order, as one unchunked evaluation."""
        build = UniSTC if name == "uni-stc" else MODELS[name]
        tasks = kernel_blocks + _corner_tasks()
        assert len(tasks) <= batching.CHUNK_BLOCKS
        whole = build().simulate_blocks(tasks)
        monkeypatch.setattr(batching, "CHUNK_BLOCKS", 7)
        chunked = build().simulate_blocks(tasks)
        _assert_rows_equal(chunked, whole, f"chunked/{name}")
