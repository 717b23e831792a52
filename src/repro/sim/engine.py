"""The kernel-level simulation engine.

``simulate_kernel`` enumerates a kernel's T1 task stream over BBC
operands, runs every task on the chosen STC model, and aggregates
cycles / utilisation / counters / energy into a
:class:`~repro.sim.results.SimReport`.

Because STC models are pure functions of a task's bitmap pair, per-
block results are memoised keyed by ``(model.cache_key(), a_bits,
b_bits)`` — the same tile patterns repeat heavily across a matrix and
across a corpus, which is what makes corpus-scale sweeps tractable in
Python.  A memoised result is its int64 action row (the
:data:`~repro.arch.base.VECTOR_WIDTH` layout ``simulate_blocks``
returns), and a run's totals are one weighted product over those rows.  The memo lives in a bounded LRU
(:class:`~repro.sim.blockcache.BlockCache`) with observable
hit/miss/eviction statistics; one process-wide instance is shared by
every core of ``simulate_parallel``; a bound
:class:`repro.store.ResultStore` (:func:`store_tier`) persists it
across processes.

Kernels enumerate *batched*: tasks are built as array-of-bitmap-pairs
(:class:`~repro.kernels.batched.TaskBatch`), coalesced so each distinct
pattern pair is simulated once, and aggregated with their combined
weight.  :func:`simulate_batches` is the one route from a task stream
to a report; the test suite steps the same stream through
``simulate_block`` one task at a time and asserts identical digests.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Iterable, Optional

import numpy as np

from repro import obs
from repro.arch.base import STCModel
from repro.arch.counters import ACTIONS
from repro.arch.tasks import T1Task
from repro.energy.model import DEFAULT_MODEL, EnergyModel
from repro.formats.bbc import BBCMatrix
from repro.kernels.batched import TaskBatch, coalesce_raw, kernel_task_batches
from repro.sim.blockcache import BlockCache, CacheStats
from repro.sim.results import SimReport

#: The process-wide memo.  Kept under its historic name because the
#: fault-injection campaign addresses it via the mapping protocol; the
#: engine itself uses the stats-aware ``rows_for`` API.
_BLOCK_CACHE = BlockCache()


def get_cache() -> BlockCache:
    """The process-wide block-result cache instance."""
    return _BLOCK_CACHE


def set_cache_capacity(capacity: Optional[int]) -> None:
    """Re-bound the process-wide cache (None = unbounded); evicts now."""
    _BLOCK_CACHE.rebound(capacity)


def clear_cache() -> None:
    """Drop all memoised per-block results and reset the statistics."""
    _BLOCK_CACHE.clear()


def bind_store(store) -> None:
    """Attach a persistent second tier to the process-wide cache.

    ``store`` is duck-typed (``key_digests``/``lookup_many``/
    ``insert_many``), in practice a :class:`repro.store.ResultStore`.
    LRU misses then consult the store and inserts write through; see
    :class:`~repro.sim.blockcache.BlockCache`.
    """
    _BLOCK_CACHE.store = store


def bound_store():
    """The currently bound second tier, or ``None``."""
    return _BLOCK_CACHE.store


def unbind_store():
    """Detach and return the second tier (``None`` if none was bound)."""
    store = _BLOCK_CACHE.store
    _BLOCK_CACHE.store = None
    return store


@contextmanager
def store_tier(store):
    """Temporarily bind ``store`` as the process cache's second tier.

    Restores whatever was bound before on exit, so nested scopes (a
    Session-wide store around a service request's store) compose.  The
    caller keeps ownership of the store handle — this never closes it.
    """
    previous = _BLOCK_CACHE.store
    _BLOCK_CACHE.store = store
    try:
        yield store
    finally:
        _BLOCK_CACHE.store = previous


@contextmanager
def store_dir_tier(path):
    """Open and bind the result store at ``path`` for the block.

    A no-op for ``path=None``, and when that store is already bound (a
    session-wide binding): a second handle would only open a redundant
    writer segment.  The handle opened here is closed on exit.
    """
    bound = _BLOCK_CACHE.store
    if path is None or (bound is not None
                        and Path(bound.root) == Path(str(path))):
        yield bound
        return
    from repro.store import ResultStore

    with ResultStore(path) as store, store_tier(store):
        yield store


def cache_size() -> int:
    """Number of memoised (model, block-pair) entries."""
    return len(_BLOCK_CACHE)


def cache_stats() -> CacheStats:
    """Hit/miss/eviction counters of the process-wide cache.

    These are **lifetime** totals — they accumulate across every run
    since process start (or the last ``clear_cache()``/``reset()``).
    For per-run attribution use ``SimReport.cache``, which the engine
    fills with a :meth:`CacheStats.snapshot`/:meth:`CacheStats.delta`
    pair around each simulation.
    """
    return _BLOCK_CACHE.stats


def simulate_batches(
    stc: STCModel,
    batches: Iterable[TaskBatch],
    kernel: str = "custom",
    energy_model: Optional[EnergyModel] = DEFAULT_MODEL,
    matrix: Optional[str] = None,
    cache: Optional[BlockCache] = None,
) -> SimReport:
    """Run batched (array-of-bitmap-pairs) task streams on one model.

    Each batch is coalesced so a distinct bitmap pair hits the model
    (or the memo) exactly once with its aggregate weight.  The memo
    serves the batch's rows in one :meth:`BlockCache.rows_for` call,
    which dispatches its misses together through
    :meth:`~repro.arch.base.STCModel.simulate_blocks` — one array-level
    call on models with a vectorised path — and memoises them, writing
    through to a bound store with each key digested once.  Aggregation
    is a single weighted matrix product over the action rows, carried
    in int64 so corpus-scale totals stay exact (falling back to float64
    only for models whose counters are genuinely fractional) — totals
    equal a per-task stepped run exactly.
    """
    memo = _BLOCK_CACHE if cache is None else cache
    report = SimReport(stc=stc.name, kernel=kernel, matrix=matrix)
    namespace = stc.cache_key()
    stats_before = memo.stats.snapshot()
    t0 = perf_counter()
    mats = []
    weights = []
    for index, batch in enumerate(batches):
        with obs.span("batch", index=index, tasks=len(batch)):
            raw = coalesce_raw(batch)
            if not raw.pairs:
                continue
            a_bytes, b_bytes = raw.a_bytes, raw.b_bytes
            keys = [(namespace, a_bytes[ai], b_bytes[bi])
                    for ai, bi, _ in raw.pairs]
            # Memoised results must be weight-independent (the stream
            # weight is applied at aggregation time), so the model
            # never sees the aggregate weight.
            mats.append(memo.rows_for(
                keys, lambda missing, n=raw.n: stc.simulate_blocks(
                    [T1Task(a, b, n=n, weight=1) for _, a, b in missing])))
            weights.extend(weight for _, _, weight in raw.pairs)
    if mats:
        _aggregate(report, np.concatenate(mats), weights)
    _price(report, stc, energy_model)
    _finalise_run(report, memo, stats_before, perf_counter() - t0)
    return report


def _aggregate(report: SimReport, rows: np.ndarray, weights) -> None:
    """Fold ``weights @ rows`` into ``report``'s totals.

    Integer rows aggregate in int64, exact past 2^53; float64 rows (a
    model with fractional counters) aggregate in float64.
    """
    if rows.dtype.kind in "iu":
        w = np.asarray(weights, dtype=np.int64)
        acc = w @ rows.astype(np.int64, copy=False)
        report.cycles = int(acc[0])
        report.products = int(acc[1])
        report.util_hist.bins += acc[2:6]
        counts = [int(v) for v in acc[6:]]
    else:
        w = np.asarray(weights, dtype=np.float64)
        acc = w @ rows
        report.cycles = int(round(acc[0]))
        report.products = int(round(acc[1]))
        report.util_hist.bins += np.rint(acc[2:6]).astype(np.int64)
        counts = [float(v) for v in acc[6:]]
    report.t1_tasks = int(w.sum())
    for action, count in zip(ACTIONS, counts):
        if count:
            report.counters.add(action, count)


def _price(report: SimReport, stc: STCModel,
           energy_model: Optional[EnergyModel]) -> None:
    if energy_model is not None:
        report.energy_breakdown = energy_model.breakdown(report.counters, stc.name)
        report.energy_pj = sum(report.energy_breakdown.values())


def _finalise_run(
    report: SimReport,
    memo: BlockCache,
    stats_before: CacheStats,
    wall_s: float,
) -> None:
    """Attach per-run wall time and cache-counter deltas to a report.

    Always on (two clock reads and four subtractions); the metric
    emission below is gated on the observability switch.
    """
    report.wall_s = wall_s
    delta = memo.stats.delta(stats_before)
    report.cache = delta.as_dict()
    if obs.enabled():
        labels = {"kernel": report.kernel, "stc": report.stc}
        obs.inc("sim.t1_tasks", report.t1_tasks, **labels)
        obs.inc("sim.cycles", report.cycles, **labels)
        obs.inc("sim.cache.hits", delta.hits, **labels)
        obs.inc("sim.cache.misses", delta.misses, **labels)
        obs.inc("sim.cache.evictions", delta.evictions, **labels)
        obs.set_gauge("sim.cache.entries", len(memo))
        obs.observe("sim.run_wall_s", wall_s, **labels)


def simulate_kernel(
    kernel: str,
    a: BBCMatrix,
    stc: STCModel,
    energy_model: Optional[EnergyModel] = DEFAULT_MODEL,
    matrix: Optional[str] = None,
    cache: Optional[BlockCache] = None,
    **operands,
) -> SimReport:
    """Simulate one of the four sparse kernels on BBC operand(s).

    ``operands`` forward to the kernel's task generator: ``x`` (a
    :class:`~repro.kernels.vector.SparseVector`) for SpMSpV, ``b_cols``
    for SpMM (default 64, the paper's setting), ``b`` (a second
    :class:`BBCMatrix`) for SpGEMM (default A, i.e. C = A^2).
    """
    with obs.span("kernel", kernel=kernel.lower(), stc=stc.name,
                  matrix=matrix):
        batches = kernel_task_batches(kernel, a, **operands)
        return simulate_batches(
            stc, batches, kernel=kernel.lower(), energy_model=energy_model,
            matrix=matrix, cache=cache,
        )
