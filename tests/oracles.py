"""Loop- and hash-based reference implementations for parity tests.

Each function here is the straightforward form of a quantity that
``src/`` computes in closed form over whole arrays; tests assert the two
agree exactly.  They live in the test tree so that each job has one code
path in the package.

The per-object T1 task stream lives here too: the ``*_tasks``
generators yield one :class:`~repro.arch.tasks.T1Task` per stored block
(the kernel dataflows of §V-A written as loops), and
:func:`simulate_tasks` steps such a stream through ``simulate_block``
one task at a time.  The package runs the same stream as
:class:`~repro.kernels.batched.TaskBatch` arrays through
:func:`~repro.sim.engine.simulate_batches`.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from time import perf_counter
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.arch.base import STCModel, result_rows
from repro.arch.tasks import T1Task
from repro.energy.model import DEFAULT_MODEL, EnergyModel
from repro.errors import ShapeError
from repro.formats.bbc import BLOCK, BBCMatrix
from repro.kernels.batched import TaskBatch
from repro.kernels.vector import SparseVector, dense_segment_mask
from repro.sim import engine
from repro.sim.blockcache import BlockCache
from repro.sim.results import SimReport


def pack_sequential(p: np.ndarray, num_dpgs: int, macs: int) -> Tuple[np.ndarray, int]:
    """Cycle ids of one block's ordered task stream under the MAC budget.

    The exact greedy rule of :meth:`TileMultiplyScheduler.dispatch` for
    conflict-free streams, one bisect per cycle: fill up to ``num_dpgs``
    tasks per cycle, and a task that would push the cycle past ``macs``
    products starts the next cycle.  Every task must satisfy
    ``p <= macs``.
    """
    cum = list(accumulate(p.tolist()))
    total = len(cum)
    cyc = np.empty(total, dtype=np.int64)
    pos = 0
    cycle = 0
    while pos < total:
        budget = (cum[pos - 1] if pos else 0) + macs
        fit = bisect_right(cum, budget)
        nxt = min(pos + num_dpgs, fit)
        cyc[pos:nxt] = cycle
        cycle += 1
        pos = nxt
    return cyc, cycle


#: popcount of every 4-bit value (dot patterns are 4-bit masks).
_POP4 = np.array([bin(v).count("1") for v in range(16)], dtype=np.int64)

#: 16-bit tile bitmap (weight ``1 << (4 * row + col)``) -> its four
#: 4-bit row masks / column masks.
_ROW_MASKS = (np.arange(65536)[:, None] >> (4 * np.arange(4))) & 0xF
_COL_MASKS = np.zeros((65536, 4), dtype=np.int64)
for _n in range(4):
    for _k in range(4):
        _COL_MASKS[:, _n] |= ((np.arange(65536) >> (4 * _k + _n)) & 1) << _k
del _n, _k


def dpg_stats_per_task(
    a_tile_bitmaps: np.ndarray, b_tile_bitmaps: np.ndarray, n_cols: int
) -> np.ndarray:
    """Per-T3-task :func:`~repro.arch.dpg.dpg_stats` over flat arrays.

    Returns ``[T, 6]`` in :data:`~repro.arch.dpg.DPG_STAT_FIELDS` order,
    from the 4-bit dot patterns ``pattern[m][n] = a_row[m] & b_col[n]``:

    - ``a_elem_fetches``: per column-pair group and row, the popcount
      of the union of the group's patterns;
    - ``b_elem_fetches``: per column, ``popcount(b_col & union of all
      a_row)``;
    - broadcasts: total pattern popcount; T4 tasks and C writes: the
      number of nonzero patterns.
    """
    a_rows = _ROW_MASKS[a_tile_bitmaps]                          # [T, m]
    if n_cols == 4:
        b_cols = _COL_MASKS[b_tile_bitmaps]                      # [T, n]
    else:
        b_cols = (np.asarray(b_tile_bitmaps) & 0xF)[:, None]
    pat = a_rows[:, :, None] & b_cols[:, None, :]                # [T, m, n]
    t4 = np.count_nonzero(pat, axis=(1, 2))
    casts = _POP4[pat].sum(axis=(1, 2))
    union_a = a_rows[:, 0] | a_rows[:, 1] | a_rows[:, 2] | a_rows[:, 3]
    b_fetch = _POP4[b_cols & union_a[:, None]].sum(axis=1)
    if n_cols == 4:
        a_fetch = (
            _POP4[pat[:, :, 0] | pat[:, :, 1]].sum(axis=1)
            + _POP4[pat[:, :, 2] | pat[:, :, 3]].sum(axis=1)
        )
    else:
        a_fetch = _POP4[pat[:, :, 0]].sum(axis=1)
    return np.stack([t4, a_fetch, b_fetch, casts, casts, t4], axis=1)


def _csr_structure(m: BBCMatrix):
    """(row_ptr, col_idx) of the structural CSR, decoded sparsely."""
    rows, cols = m.structural_coords()
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    row_ptr = np.zeros(m.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=m.shape[0]), out=row_ptr[1:])
    return row_ptr, cols


def spgemm_output_nnz_flops(a: BBCMatrix, b: Optional[BBCMatrix] = None) -> int:
    """Structural nnz of ``A @ B`` by flop expansion.

    Every structural flop ``(A[i,k] != 0, B[k,j] != 0)`` becomes an int64
    output-coordinate key and distinct keys are counted.
    """
    other = b if b is not None else a
    if a.shape[1] != other.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {other.shape}")
    a_rows, a_cols = a.structural_coords()
    if a_rows.size == 0:
        return 0
    b_row_ptr, b_cols = _csr_structure(other)
    counts = b_row_ptr[a_cols + 1] - b_row_ptr[a_cols]
    keep = counts > 0
    if not np.any(keep):
        return 0
    a_rows, a_cols, counts = a_rows[keep], a_cols[keep], counts[keep]
    ends = np.cumsum(counts)
    offsets = np.arange(int(ends[-1]), dtype=np.int64) - np.repeat(ends - counts, counts)
    out_cols = b_cols[np.repeat(b_row_ptr[a_cols], counts) + offsets]
    out_rows = np.repeat(a_rows, counts)
    keys = out_rows * np.int64(other.shape[1]) + out_cols
    return int(np.unique(keys).size)


# -- the per-object T1 task stream ----------------------------------------


def _row_span(a: BBCMatrix, rows: Optional[range]) -> range:
    if rows is None:
        return range(a.block_rows)
    if rows.step != 1:
        raise ShapeError("block-row ranges must be contiguous (step 1)")
    if len(rows) and (rows.start < 0 or rows.stop > a.block_rows):
        raise ShapeError(f"block-row range {rows} outside 0..{a.block_rows}")
    return rows


def spmv_tasks(a: BBCMatrix, rows: Optional[range] = None) -> Iterator[T1Task]:
    """y = A @ x with dense x: one task per stored block (Algorithm 1)."""
    bitmaps = a.block_bitmaps_all()
    n = a.shape[1]
    masks: dict = {}
    for brow in _row_span(a, rows):
        cols, idxs = a.block_row(brow)
        for bcol, idx in zip(cols, idxs):
            bcol = int(bcol)
            mask = masks.get(bcol)
            if mask is None:
                mask = dense_segment_mask(n, bcol, BLOCK)
                masks[bcol] = mask
            if not mask.any():
                continue
            yield T1Task.from_bitmaps(bitmaps[idx], mask[:, None])


def spmspv_tasks(a: BBCMatrix, x: SparseVector,
                 rows: Optional[range] = None) -> Iterator[T1Task]:
    """y = A @ x with sparse x; blocks meeting a dead segment are skipped."""
    if x.n != a.shape[1]:
        raise ShapeError(f"x has length {x.n}, expected {a.shape[1]}")
    bitmaps = a.block_bitmaps_all()
    masks = {int(s): x.segment_mask(int(s), BLOCK) for s in x.nonempty_segments(BLOCK)}
    for brow in _row_span(a, rows):
        cols, idxs = a.block_row(brow)
        for bcol, idx in zip(cols, idxs):
            mask = masks.get(int(bcol))
            if mask is None:
                continue
            yield T1Task.from_bitmaps(bitmaps[idx], mask[:, None])


def spmm_tasks(a: BBCMatrix, b_cols: int = 64,
               rows: Optional[range] = None) -> Iterator[T1Task]:
    """C = A @ B with dense B: per block, one task weighted by the number
    of full 16-wide panels, then one for the partial tail panel."""
    if b_cols <= 0:
        raise ShapeError("B must have at least one column")
    bitmaps = a.block_bitmaps_all()
    full_panels, tail = divmod(b_cols, BLOCK)
    full_mask = np.ones((BLOCK, BLOCK), dtype=bool)
    tail_mask = np.zeros((BLOCK, BLOCK), dtype=bool)
    tail_mask[:, :tail] = True
    for brow in _row_span(a, rows):
        _, idxs = a.block_row(brow)
        for idx in idxs:
            if full_panels:
                yield T1Task.from_bitmaps(bitmaps[idx], full_mask, weight=full_panels)
            if tail:
                yield T1Task.from_bitmaps(bitmaps[idx], tail_mask)


def spgemm_tasks(a: BBCMatrix, b: BBCMatrix,
                 rows: Optional[range] = None) -> Iterator[T1Task]:
    """C = A @ B, both sparse: A block (I, K) meets every B block in row K."""
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    a_bitmaps = a.block_bitmaps_all()
    b_bitmaps = b.block_bitmaps_all()
    for brow in _row_span(a, rows):
        a_cols, a_idx = a.block_row(brow)
        for bcol_a, idx_a in zip(a_cols, a_idx):
            if bcol_a >= b.block_rows:
                continue
            a_bits = a_bitmaps[idx_a]
            _, b_idx = b.block_row(int(bcol_a))
            for idx_b in b_idx:
                yield T1Task.from_bitmaps(a_bits, b_bitmaps[idx_b])


def kernel_tasks(kernel: str, a: BBCMatrix, rows: Optional[range] = None,
                 **operands) -> Iterator[T1Task]:
    """The per-object stream of ``kernel``, with the operands of
    :func:`~repro.kernels.batched.kernel_task_batches`."""
    name = kernel.lower()
    if name == "spmv":
        return spmv_tasks(a, rows=rows)
    if name == "spmspv":
        x = operands.get("x")
        if x is None:
            raise ShapeError("spmspv requires a sparse vector operand 'x'")
        return spmspv_tasks(a, x, rows=rows)
    if name == "spmm":
        return spmm_tasks(a, operands.get("b_cols", 64), rows=rows)
    if name == "spgemm":
        b = operands.get("b")
        return spgemm_tasks(a, b if b is not None else a, rows=rows)
    raise ShapeError(f"unknown kernel {kernel!r}")


def batch_tasks(batch: TaskBatch) -> Iterator[T1Task]:
    """Materialise a :class:`TaskBatch` as one task per entry."""
    for ai, bi, w in zip(batch.a_index, batch.b_index, batch.weights):
        yield T1Task.from_bitmaps(
            batch.a_patterns[int(ai)], batch.b_patterns[int(bi)], weight=int(w)
        )


def simulate_tasks(
    stc: STCModel,
    tasks: Iterable[T1Task],
    kernel: str = "custom",
    energy_model: Optional[EnergyModel] = DEFAULT_MODEL,
    matrix: Optional[str] = None,
    cache: Optional[BlockCache] = None,
) -> SimReport:
    """The stepped route: ``simulate_block`` per task, then aggregate.

    Every task consults the memo through the per-key
    :meth:`BlockCache.lookup`/:meth:`BlockCache.insert` and a miss runs
    the model's per-block step, never its batched ``simulate_blocks``.
    Aggregation, pricing and per-run attribution are the engine's, so a
    report from here is digest-comparable with
    :func:`~repro.sim.engine.simulate_kernel`.
    """
    memo = engine.get_cache() if cache is None else cache
    report = SimReport(stc=stc.name, kernel=kernel, matrix=matrix)
    namespace = stc.cache_key()
    stats_before = memo.stats.snapshot()
    t0 = perf_counter()
    rows = []
    weights = []
    for task in tasks:
        key = (namespace,) + task.cache_key()
        row = memo.lookup(key)
        if row is None:
            row = result_rows([stc.simulate_block(task)])[0]
            memo.insert(key, row)
        rows.append(row)
        weights.append(task.weight)
    if rows:
        engine._aggregate(report, np.stack(rows), weights)
    engine._price(report, stc, energy_model)
    engine._finalise_run(report, memo, stats_before, perf_counter() - t0)
    return report


def mean_products_per_task(a: BBCMatrix) -> float:
    """Table VII's #inter-prod/blk of C = A^2, one task at a time."""
    total = 0
    count = 0
    for task in spgemm_tasks(a, a):
        total += task.intermediate_products() * task.weight
        count += task.weight
    return total / count if count else 0.0


# -- the hand-rolled app loops the graph runtime replaced -------------------


def simulate_inference_legacy(
    stc: STCModel,
    model: str = "resnet50",
    sparsity: float = 0.70,
    scale: Optional[float] = None,
    seed: int = 11,
):
    """The per-layer loop request 0 of ``simulate_inference`` must match.

    Returns an :class:`~repro.apps.dnn.InferenceReport` without a
    ``model_report``.
    """
    from repro.apps.dnn import InferenceReport, LayerReport
    from repro.workloads.dlmc import dlmc_corpus
    from repro.workloads.dnn import activation_matrix

    out = InferenceReport(model=model, stc=stc.name, sparsity=sparsity)
    for i, (layer, weight) in enumerate(dlmc_corpus(model, sparsity, scale=scale, seed=seed)):
        bbc = BBCMatrix.from_coo(weight)
        if layer.kind == "linear":
            report = engine.simulate_kernel("spmm", bbc, stc, b_cols=layer.n,
                                            matrix=layer.name)
        else:
            acts = activation_matrix(layer.k, layer.n, seed=seed + 100 + i)
            report = engine.simulate_kernel(
                "spgemm", bbc, stc, b=BBCMatrix.from_csr(acts), matrix=layer.name
            )
        out.layers.append(LayerReport(layer=layer, report=report))
    return out


def simulate_propagation_legacy(
    stc: STCModel,
    adjacency,
    feature_dim: int = 64,
    layers: int = 2,
):
    """The per-kernel GCN loop ``simulate_propagation`` must match.

    Returns the per-kernel :class:`~repro.sim.results.SimReport` list in
    the order the graph schedules its nodes.
    """
    from repro.apps.gnn import normalised_adjacency

    a_hat = BBCMatrix.from_csr(normalised_adjacency(adjacency))
    reports = []
    for i in range(1, layers + 1):
        reports.append(engine.simulate_kernel(
            "spmm", a_hat, stc, b_cols=feature_dim,
            matrix=f"gnn.propagate{i}",
        ))
    adj = BBCMatrix.from_csr(adjacency)
    reports.append(engine.simulate_kernel(
        "spgemm", adj, stc, b=adj, matrix="gnn.two_hop",
    ))
    return reports
