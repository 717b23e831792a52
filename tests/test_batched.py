"""Batched task enumeration: parity with the per-object generators.

The batched builders (:mod:`repro.kernels.batched`) and the per-object
generators kept in :mod:`tests.oracles` must describe the *same* task
stream — these tests pin that down task-for-task, through the engine
(the stepped route against ``simulate_kernel``, full ``SimReport``
equality), and across the serial/parallel split (a partitioned stream
concatenates back to the serial one).
"""

import numpy as np
import pytest

from repro.arch.unistc import UniSTC
from repro.errors import ShapeError
from repro.formats.bbc import BBCMatrix
from repro.kernels import KERNELS
from repro.kernels.batched import (
    TaskBatch,
    coalesce_raw,
    kernel_task_batches,
    spgemm_batch,
    spmm_batch,
    spmv_batch,
)
from repro.kernels.vector import SparseVector
from repro.perf.bench import report_digest
from repro.registry import create_stc
from repro.sim.blockcache import BlockCache
from repro.sim.engine import simulate_kernel
from repro.sim.parallel import block_row_work, partition_block_rows
from repro.workloads import synthetic

from tests.oracles import batch_tasks, kernel_tasks, simulate_tasks


@pytest.fixture(scope="module")
def matrices():
    return {
        "banded": BBCMatrix.from_coo(synthetic.banded(160, 16, 0.5, seed=3)),
        "random": BBCMatrix.from_coo(synthetic.random_uniform(128, 128, 0.03, seed=4)),
        "arrow": BBCMatrix.from_coo(synthetic.long_rows(128, heavy_rows=2, seed=5)),
        "rect": BBCMatrix.from_coo(synthetic.random_uniform(96, 144, 0.05, seed=6)),
    }


def _operands(kernel, a, seed=0):
    if kernel == "spmspv":
        rng = np.random.default_rng(seed)
        dense = rng.random(a.shape[1]) * (rng.random(a.shape[1]) < 0.4)
        return {"x": SparseVector.from_dense(dense)}
    if kernel == "spmm":
        return {"b_cols": 40}  # forces a full panel *and* a tail panel
    if kernel == "spgemm":
        return {"b": BBCMatrix.from_coo(
            synthetic.random_uniform(a.shape[1], 112, 0.04, seed=seed + 9)
        )}
    return {}


def _task_multiset(tasks):
    """Order-free view of a task stream with weights aggregated."""
    agg = {}
    for t in tasks:
        key = (t.a_bits, t.b_bits, t.n)
        agg[key] = agg.get(key, 0) + t.weight
    return agg


class TestStreamParity:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_batched_equals_generator_stream(self, matrices, kernel):
        """Same weighted bitmap-pair multiset, matrix by matrix."""
        for name, a in matrices.items():
            operands = _operands(kernel, a)
            reference = _task_multiset(kernel_tasks(kernel, a, **operands))
            batched = {}
            for batch in kernel_task_batches(kernel, a, **operands):
                for key, weight in _task_multiset(batch_tasks(batch)).items():
                    batched[key] = batched.get(key, 0) + weight
            assert batched == reference, f"{kernel} stream differs on {name}"

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_coalesce_preserves_totals(self, matrices, kernel):
        for a in matrices.values():
            operands = _operands(kernel, a)
            for batch in kernel_task_batches(kernel, a, **operands):
                raw = coalesce_raw(batch)
                pairs = [(raw.a_bytes[ai], raw.b_bytes[bi])
                         for ai, bi, _ in raw.pairs]
                assert len(set(pairs)) == len(pairs)
                assert sum(w for _, _, w in raw.pairs) == batch.total_tasks
                assert _task_multiset(batch_tasks(batch)) == {
                    (a_bits, b_bits, batch.n): w
                    for (a_bits, b_bits), (_, _, w) in zip(pairs, raw.pairs)
                }

    def test_coalesce_raw_weights_exact_past_2_53(self):
        """Aggregate weights stay in the integer domain.

        ``np.bincount``'s float64 accumulator (the old implementation)
        silently rounds totals past 2^53; ``2^53 + 1`` collapses to
        ``2^53`` there, and ``astype(int64)`` then bakes the loss in."""
        big = (1 << 53) + 1
        a = np.zeros((1, 16, 16), dtype=bool)
        a[0, 0, 0] = True
        b = np.ones((1, 16, 16), dtype=bool)
        idx = np.zeros(2, dtype=np.int64)
        batch = TaskBatch(
            a_patterns=a, b_patterns=b, a_index=idx, b_index=idx,
            weights=np.array([big, 2], dtype=np.int64), n=16,
        )
        raw = coalesce_raw(batch)
        ((_, _, weight),) = raw.pairs
        assert isinstance(weight, int)
        assert weight == big + 2
        assert float(weight) != weight  # the exact total has no float64 form

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_serial_and_partitioned_streams_agree(self, matrices, kernel):
        """A row-partitioned stream concatenates to the serial stream.

        This is the single-enumeration guarantee: ``simulate_parallel``
        restricts the same builders by block-row range, so the parallel
        stream cannot drift from the serial one.
        """
        for a in matrices.values():
            operands = _operands(kernel, a)
            serial = list(kernel_tasks(kernel, a, **operands))
            work = block_row_work(
                a, kernel, operands.get("b") if kernel == "spgemm" else None
            )
            parts = partition_block_rows(work, 3)
            partitioned = [
                task
                for rows in parts
                for task in kernel_tasks(kernel, a, rows=rows, **operands)
            ]
            assert [
                (t.a_bits, t.b_bits, t.n, t.weight) for t in partitioned
            ] == [(t.a_bits, t.b_bits, t.n, t.weight) for t in serial]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_partitioned_batches_cover_serial_stream(self, matrices, kernel):
        for a in matrices.values():
            operands = _operands(kernel, a)
            reference = _task_multiset(kernel_tasks(kernel, a, **operands))
            combined = {}
            work = block_row_work(
                a, kernel, operands.get("b") if kernel == "spgemm" else None
            )
            for rows in partition_block_rows(work, 4):
                for batch in kernel_task_batches(kernel, a, rows=rows, **operands):
                    for key, w in _task_multiset(batch_tasks(batch)).items():
                        combined[key] = combined.get(key, 0) + w
            assert combined == reference


class TestEngineParity:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_batched_and_legacy_reports_match(self, matrices, kernel):
        """Full SimReport equality: cycles, products, tasks, histogram,
        counters, and energy all agree between the engine paths."""
        for a in matrices.values():
            operands = _operands(kernel, a)
            legacy = simulate_tasks(
                UniSTC(), kernel_tasks(kernel, a, **operands), kernel=kernel,
                cache=BlockCache(),
            )
            fast = simulate_kernel(
                kernel, a, UniSTC(), cache=BlockCache(), **operands
            )
            assert fast.cycles == legacy.cycles
            assert fast.products == legacy.products
            assert fast.t1_tasks == legacy.t1_tasks
            assert np.array_equal(fast.util_hist.bins, legacy.util_hist.bins)
            legacy_counters = legacy.counters.as_dict()
            fast_counters = fast.counters.as_dict()
            assert set(fast_counters) == set(legacy_counters)
            for action, count in legacy_counters.items():
                assert fast_counters[action] == pytest.approx(count)
            assert fast.energy_pj == pytest.approx(legacy.energy_pj)

    @pytest.mark.parametrize("stc", ["ds-stc", "rm-stc"])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_baseline_routes_identical(self, matrices, kernel, stc):
        """The batched closed-form baselines and the per-task stepped
        route give exactly equal reports — counters are integers."""
        for a in matrices.values():
            operands = _operands(kernel, a)
            legacy = simulate_tasks(
                create_stc(stc), kernel_tasks(kernel, a, **operands),
                kernel=kernel, cache=BlockCache(),
            )
            fast = simulate_kernel(
                kernel, a, create_stc(stc), cache=BlockCache(), **operands
            )
            assert fast.cycles == legacy.cycles
            assert fast.products == legacy.products
            assert fast.t1_tasks == legacy.t1_tasks
            assert np.array_equal(fast.util_hist.bins, legacy.util_hist.bins)
            assert fast.counters.as_dict() == legacy.counters.as_dict()
            assert fast.energy_breakdown == legacy.energy_breakdown
            assert fast.energy_pj == legacy.energy_pj

    @pytest.mark.parametrize("stc", ["uni-stc", "ds-stc", "rm-stc"])
    def test_smoke_cases_digest_identical(self, smoke_cases, stc):
        """Per-case ``report_digest`` identity, stepped route vs
        ``simulate_kernel``, on the exact ``repro bench --smoke`` cases."""
        for name, bbc, kernel, operands in smoke_cases:
            stepped = simulate_tasks(
                create_stc(stc), kernel_tasks(kernel, bbc, **operands),
                kernel=kernel, cache=BlockCache(),
            )
            fast = simulate_kernel(kernel, bbc, create_stc(stc),
                                   cache=BlockCache(), **operands)
            assert report_digest(fast) == report_digest(stepped), \
                f"{stc} {kernel}:{name}"

    @pytest.mark.parametrize("stc", ["uni-stc", "ds-stc", "rm-stc"])
    def test_smoke_cases_never_step_a_block(self, smoke_cases, stc,
                                            monkeypatch):
        """Routing gate: ``simulate_kernel`` resolves every block of the
        smoke cases through ``simulate_blocks`` — zero ``simulate_block``
        calls — while still simulating each of the 1,938 distinct
        blocks."""
        model = create_stc(stc)
        calls = []
        step = type(model).simulate_block

        def counting(self, task):
            calls.append(task)
            return step(self, task)

        monkeypatch.setattr(type(model), "simulate_block", counting)
        cache = BlockCache()
        for _, bbc, kernel, operands in smoke_cases:
            simulate_kernel(kernel, bbc, model, cache=cache, **operands)
        assert len(calls) == 0
        assert len(cache) == 1938

    def test_empty_matrix_all_kernels(self):
        empty = BBCMatrix.from_coo(synthetic.random_uniform(64, 64, 0.0, seed=1))
        for kernel in KERNELS:
            operands = _operands(kernel, empty)
            report = simulate_kernel(
                kernel, empty, UniSTC(), cache=BlockCache(), **operands
            )
            assert report.cycles == 0
            assert report.t1_tasks == 0


class TestRowRanges:
    def test_rejects_non_contiguous_range(self, matrices):
        a = matrices["banded"]
        with pytest.raises(ShapeError):
            spmv_batch(a, rows=range(0, a.block_rows, 2))
        with pytest.raises(ShapeError):
            list(kernel_tasks("spmv", a, rows=range(0, a.block_rows, 2)))

    def test_rejects_out_of_bounds_range(self, matrices):
        a = matrices["banded"]
        with pytest.raises(ShapeError):
            spmv_batch(a, rows=range(0, a.block_rows + 1))

    def test_empty_range_is_empty_stream(self, matrices):
        a = matrices["banded"]
        batch = spmv_batch(a, rows=range(3, 3))
        assert len(batch) == 0 and batch.total_tasks == 0
        assert list(kernel_tasks("spmv", a, rows=range(3, 3))) == []


class TestValidation:
    def test_spmm_rejects_zero_columns(self, matrices):
        with pytest.raises(ShapeError):
            spmm_batch(matrices["banded"], b_cols=0)

    def test_spgemm_inner_mismatch(self, matrices):
        with pytest.raises(ShapeError):
            spgemm_batch(matrices["banded"], b=matrices["rect"])

    def test_spmspv_requires_x(self, matrices):
        with pytest.raises(ShapeError):
            kernel_task_batches("spmspv", matrices["banded"])

    def test_unknown_kernel(self, matrices):
        with pytest.raises(ShapeError):
            kernel_task_batches("gemm", matrices["banded"])
