"""The benchmark's three workloads: set-up, one pass, and per-case digests.

Every workload drives the simulator through its public API
(``simulate_kernel``, ``BlockCache``, ``ResultStore``, ``GraphRunner``)
from one process with no threads: one caller issues cases back to back
(a closed loop), so a slower simulator simply completes fewer cases.

- ``corpus-cold``: the sweep corpus x the 4 kernels x {uni-stc, ds-stc,
  rm-stc}.  Each pass binds one fresh, empty ``ResultStore`` as the
  write-through second tier of an empty ``BlockCache`` per STC — the
  first run of a ``repro corpus --store`` campaign.
- ``store-replay``: uni-stc x the same (matrix, kernel) cases.  Set-up
  fills a store with one cold pass; every measured pass starts an empty
  ``BlockCache`` over it, so every block is served from the store.
- ``infer-batch``: ``GraphRunner(dnn_graph(m), uni-stc, batch=8)`` for
  resnet50 and transformer at default scales, a fresh ``BlockCache`` per
  model and no store — ``repro infer --stc uni-stc --batch 8``.

The simulator's caches start empty in every pass of every workload
(the DPG decomposition memo included), except the store that
``store-replay`` fills during set-up.

A case is one ``simulate_kernel`` call.  In ``infer-batch`` the calls
are the graph nodes of each request, made by ``GraphRunner.run``; the
workload times them with a clock wrapper around the runner's
``simulate_kernel`` (a handful of calls per run, so the wrapper costs
nothing measurable), because the two batch-8 runs of a pass differ
sevenfold in length and give too few samples for a median or tail.
Every case is followed by one run of the host-speed probe
(:mod:`hostbench.probe`), outside the case's time.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro.graph.runner as graph_runner
import repro.sim.engine as engine
from hostbench.probe import probe, speed_factors
from repro.arch.dpg import dpg_stats
from repro.formats.bbc import BBCMatrix
from repro.graph import GraphRunner, dnn_graph
from repro.kernels import KERNELS
from repro.kernels.vector import SparseVector
from repro.registry import create_stc
from repro.sim.blockcache import BlockCache
from repro.store import ResultStore
from repro.workloads.suitesparse import corpus

#: The workload seed defaults to the corpus's own default seed.
DEFAULT_SEED: int = inspect.signature(corpus).parameters["seed"].default

SWEEP_SIZES = (128, 256)
COLD_STCS = ("uni-stc", "ds-stc", "rm-stc")
REPLAY_STC = "uni-stc"
MODELS = ("resnet50", "transformer")
BATCH = 8
SPMM_B_COLS = 64


@dataclass(frozen=True)
class Config:
    """Input sizes.  The default is the benchmark; tests use :data:`TINY`."""

    corpus_limit: Optional[int] = None
    dnn_scale: Optional[float] = None

    @property
    def is_default(self) -> bool:
        return self == Config()


TINY = Config(corpus_limit=2, dnn_scale=0.05)


# -- digests ------------------------------------------------------------------


def _sha(doc: object) -> str:
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sim_digest(report) -> str:
    """Digest of a ``SimReport``'s simulated fields.

    The fields are those of ``repro.perf.bench.report_digest``, pinned
    here so the gate does not move with the program: host time
    (``wall_s``) and cache attribution (``cache``) are left out.
    """
    return _sha({
        "stc": report.stc,
        "kernel": report.kernel,
        "matrix": report.matrix,
        "cycles": report.cycles,
        "products": report.products,
        "t1_tasks": report.t1_tasks,
        "util_bins": [int(v) for v in report.util_hist.bins],
        "counters": report.counters.as_dict(),
        "energy_pj": report.energy_pj,
        "energy_breakdown": report.energy_breakdown,
    })


def model_digest(model_report) -> str:
    """Digest of ``ModelReport.as_json()`` without ``wall_s`` and ``cache``."""
    doc = model_report.as_json()
    doc.pop("wall_s")
    doc.pop("cache")
    return _sha(doc)


# -- inputs -------------------------------------------------------------------


def sweep_inputs(seed: int, config: Config) -> List[Tuple[str, str, BBCMatrix, Dict]]:
    """``(matrix, kernel, bbc, operands)`` for every sweep case, in order.

    The SpMSpV vector is drawn per matrix from ``(seed, matrix index)``;
    SpMM multiplies by ``SPMM_B_COLS`` dense columns; SpGEMM is A x A.
    """
    out = []
    specs = corpus(sizes=SWEEP_SIZES, limit=config.corpus_limit, seed=seed)
    for index, spec in enumerate(specs):
        bbc = BBCMatrix.from_coo(spec.matrix())
        for kernel in KERNELS:
            out.append((spec.name, kernel, bbc, _operands(kernel, bbc, seed, index)))
    return out


def _operands(kernel: str, bbc: BBCMatrix, seed: int, index: int) -> Dict:
    if kernel == "spmspv":
        rng = np.random.default_rng([seed, index])
        cols = bbc.shape[1]
        dense = rng.random(cols) * (rng.random(cols) < 0.5)
        return {"x": SparseVector.from_dense(dense)}
    if kernel == "spmm":
        return {"b_cols": SPMM_B_COLS}
    return {}


# -- per-pass bookkeeping -----------------------------------------------------


@dataclass
class Case:
    """One completed (or failed) case of a pass.

    ``run`` is the batch-8 ``ModelReport`` a graph-node case belongs to,
    so a run whose digest mismatches fails every one of its calls.
    """

    cid: str
    ms: float
    probe_s: float = 0.0
    report: Optional[object] = None
    run: Optional[Tuple[str, object]] = None
    error: Optional[str] = None


@dataclass
class PassStats:
    """Counts of one pass, read from the program's own reports and stats."""

    tasks: int = 0
    unique_pairs: int = 0
    lru_hits: int = 0
    lru_entries: int = 0
    store_lookups: int = 0
    store_hits: int = 0
    store_records: int = 0
    store_bytes: int = 0
    blocks: Dict[str, int] = field(default_factory=dict)
    cycles: Dict[str, int] = field(default_factory=dict)
    energy_pj: Dict[str, float] = field(default_factory=dict)
    #: ``(stc, kernel, matrix) -> cycles`` for the speed-up geomeans.
    case_cycles: Dict[Tuple[str, str, str], int] = field(default_factory=dict)
    e2e_latency: int = 0
    dram_bytes: float = 0.0

    def add_report(self, report) -> None:
        cache = report.cache
        hits, misses = int(cache.get("hits", 0)), int(cache.get("misses", 0))
        self.tasks += report.t1_tasks
        self.unique_pairs += hits + misses
        self.lru_hits += hits - int(cache.get("store_hits", 0))
        self.blocks[report.stc] = self.blocks.get(report.stc, 0) + misses
        self.cycles[report.stc] = self.cycles.get(report.stc, 0) + report.cycles
        self.energy_pj[report.stc] = (
            self.energy_pj.get(report.stc, 0.0) + report.energy_pj)
        self.case_cycles[(report.stc, report.kernel, report.matrix)] = report.cycles

    def add_store(self, stats, store: ResultStore) -> None:
        """Add one store handle's traffic (``stats``) and its final size."""
        self.store_lookups += stats.lookups
        self.store_hits += stats.hits
        self.store_records = len(store)
        self.store_bytes = store.bytes


@dataclass
class PassResult:
    """One pass: its cases, their digests and counts, and its host wall.

    ``wall_s`` covers the program's work and the probes between cases;
    digests and counts are taken after the clock stops.  ``case_ms`` and
    ``norm_wall_s`` are scaled to the reference host by each case's
    local probe speed factor (the remainder of the pass by the pass's
    median factor) and exclude the probes.
    """

    cases: List[Case]
    wall_s: float
    stats: PassStats

    def __post_init__(self) -> None:
        factors = speed_factors([c.probe_s for c in self.cases])
        self.speed_factor = statistics.median(factors) if factors else 1.0
        case_s = sum(c.ms for c in self.cases) / 1e3
        self.case_ms = [c.ms / f for c, f in zip(self.cases, factors)
                        if c.error is None]
        self.probe_s = sum(c.probe_s for c in self.cases)
        self.norm_wall_s = (
            sum(c.ms / f for c, f in zip(self.cases, factors)) / 1e3
            + max(0.0, self.wall_s - self.probe_s - case_s) / self.speed_factor)
        run_digests: Dict[str, str] = {}
        self.checks: List[Dict[str, str]] = []
        for case in self.cases:
            checks: Dict[str, str] = {}
            if case.report is not None:
                checks[case.cid] = sim_digest(case.report)
                self.stats.add_report(case.report)
            if case.run is not None:
                run_id, model = case.run
                if run_id not in run_digests:
                    run_digests[run_id] = model_digest(model)
                    self.stats.e2e_latency += model.e2e_latency
                    self.stats.dram_bytes += model.dram_traffic_bytes
                checks[run_id] = run_digests[run_id]
            self.checks.append(checks)
            # Keep digests and counts only, so memory stays flat over passes.
            case.report = case.run = None

    @property
    def tasks(self) -> int:
        return self.stats.tasks


def _reset_simulator_caches() -> None:
    """Empty the simulator's process-wide memos before a pass."""
    dpg_stats.cache_clear()
    engine.clear_cache()


def _sweep_case(cid: str, stc, kernel: str, matrix: str, bbc: BBCMatrix,
                operands: Dict, cache: BlockCache) -> Case:
    t0 = time.perf_counter()
    try:
        report = engine.simulate_kernel(kernel, bbc, stc, matrix=matrix,
                                        cache=cache, **operands)
    except Exception as exc:  # a case that raises is counted, not fatal
        return Case(cid, (time.perf_counter() - t0) * 1e3, probe(),
                    error=f"{type(exc).__name__}: {exc}")
    return Case(cid, (time.perf_counter() - t0) * 1e3, probe(), report=report)


def sweep_cid(stc: str, kernel: str, matrix: str) -> str:
    return f"{stc}/{kernel}/{matrix}"


# -- workloads ----------------------------------------------------------------


class Workload:
    """Set-up once, then any number of passes, then tear-down."""

    name = ""
    #: Set-up repetitions per run; ``setup_s`` is their median.  Cheap
    #: set-ups (tens of ms) repeat more, so their median settles.
    setup_reps = 15

    def __init__(self, seed: int, config: Config, workdir: Path):
        self.seed = seed
        self.config = config
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what set-up created."""

    def reference_digests(self) -> Dict[str, str]:
        """Digests every pass must reproduce, golden data or not."""
        return {}


class CorpusCold(Workload):
    name = "corpus-cold"

    def setup(self) -> None:
        self.inputs = sweep_inputs(self.seed, self.config)

    def run_pass(self) -> PassResult:
        _reset_simulator_caches()
        cases, stats = [], PassStats()
        root = Path(tempfile.mkdtemp(prefix="cold-", dir=self.workdir))
        try:
            t0 = time.perf_counter()
            with ResultStore(root / "store") as store:
                for stc_name in COLD_STCS:
                    stc = create_stc(stc_name)
                    cache = BlockCache(store=store)
                    for matrix, kernel, bbc, operands in self.inputs:
                        cases.append(_sweep_case(
                            sweep_cid(stc_name, kernel, matrix), stc, kernel,
                            matrix, bbc, operands, cache))
                    stats.lru_entries += len(cache)
                store.flush()
                wall = time.perf_counter() - t0
                stats.add_store(store.stats, store)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return PassResult(cases, wall, stats)


class StoreReplay(Workload):
    name = "store-replay"
    #: Each set-up is a full cold uni-stc sweep, so fewer repetitions.
    setup_reps = 3

    def setup(self) -> None:
        self.teardown()
        self.inputs = sweep_inputs(self.seed, self.config)
        _reset_simulator_caches()
        self.root = Path(tempfile.mkdtemp(prefix="replay-", dir=self.workdir))
        self.store = ResultStore(self.root / "store")
        stc = create_stc(REPLAY_STC)
        cache = BlockCache(store=self.store)
        self.cold: Dict[str, str] = {}
        for matrix, kernel, bbc, operands in self.inputs:
            report = engine.simulate_kernel(kernel, bbc, stc, matrix=matrix,
                                            cache=cache, **operands)
            self.cold[sweep_cid(REPLAY_STC, kernel, matrix)] = sim_digest(report)
        self.store.flush()

    def run_pass(self) -> PassResult:
        _reset_simulator_caches()
        cases, stats = [], PassStats()
        before = self.store.stats.snapshot()
        t0 = time.perf_counter()
        stc = create_stc(REPLAY_STC)
        cache = BlockCache(store=self.store)
        for matrix, kernel, bbc, operands in self.inputs:
            cases.append(_sweep_case(
                sweep_cid(REPLAY_STC, kernel, matrix), stc, kernel, matrix,
                bbc, operands, cache))
        wall = time.perf_counter() - t0
        stats.lru_entries = len(cache)
        stats.add_store(self.store.stats.delta(before), self.store)
        return PassResult(cases, wall, stats)

    def teardown(self) -> None:
        if getattr(self, "store", None) is not None:
            self.store.close()
            shutil.rmtree(self.root, ignore_errors=True)
            self.store = None

    def reference_digests(self) -> Dict[str, str]:
        return dict(self.cold)


@contextmanager
def _timed_node_calls(sink: List[Tuple[float, float]]) -> Iterator[None]:
    """Record ``(host seconds, probe seconds)`` for each ``simulate_kernel``
    call a ``GraphRunner`` makes, restoring the runner's binding afterwards."""
    inner = graph_runner.simulate_kernel

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            sink.append((elapsed, probe()))

    graph_runner.simulate_kernel = timed
    try:
        yield
    finally:
        graph_runner.simulate_kernel = inner


class InferBatch(Workload):
    name = "infer-batch"

    def setup(self) -> None:
        self.graphs = [dnn_graph(m, scale=self.config.dnn_scale, seed=self.seed)
                       for m in MODELS]

    def run_pass(self) -> PassResult:
        _reset_simulator_caches()
        cases, stats = [], PassStats()
        t0 = time.perf_counter()
        for graph in self.graphs:
            cache = BlockCache()
            calls: List[Tuple[float, float]] = []
            run_id = f"infer/{graph.name}"
            try:
                with _timed_node_calls(calls):
                    model = GraphRunner(graph, create_stc(REPLAY_STC),
                                        batch=BATCH, cache=cache).run()
            except Exception as exc:  # a run that raises is one failed case
                cases.append(Case(run_id, sum(s for s, _ in calls) * 1e3,
                                  sum(p for _, p in calls),
                                  error=f"{type(exc).__name__}: {exc}"))
                continue
            for node, (seconds, probe_s) in zip(model.nodes, calls):
                cases.append(Case(f"{run_id}/{node.node}/r{node.request}",
                                  seconds * 1e3, probe_s, report=node.report,
                                  run=(run_id, model)))
            stats.lru_entries += len(cache)
        return PassResult(cases, time.perf_counter() - t0, stats)


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    w.name: w for w in (CorpusCold, StoreReplay, InferBatch)
}
