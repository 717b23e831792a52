"""Wall-clock microbenchmarks for the engine's hot paths.

Three sections, mirroring where corpus sweeps actually spend time:

- **encode** — COO -> BBC conversion over the corpus;
- **enumeration** — per-kernel T1 task stream construction by the
  batched array builders (coalescing included, so the numbers pay the
  full cost of the stream the engine consumes);
- **corpus_sweep** — end-to-end ``simulate_kernel`` over a corpus,
  cold (fresh shared cache) and warm (every pattern cached);
- **obs** — the observability layer's cost: warm sweep with tracing
  off vs on, plus the dormant null-span fast path measured directly
  (the <2%-when-disabled budget from ``docs/observability.md``);
- **telemetry** — the streaming-telemetry channel's cost on the warm
  sweep: one journal-aligned ``case_done`` emission per case (metrics
  delta + flushed JSONL line), per-emit cost measured directly and the
  <2% budget asserted on the deterministic emits x cost estimate;
- **store** — the persistent result store as the block cache's second
  tier (:mod:`repro.store`): a cold sweep writing through to a fresh
  store vs the same sweep with no store, a warm sweep replaying from
  the store with an empty process-local LRU, and the same sweep served
  from a pre-warmed LRU — cold-with-store over cold-without, warm-store
  over warm-LRU, hit rate, bytes served, and the per-case
  report-digest identity the replay claims.

Timing is best-of-``repeat`` wall seconds (``time.perf_counter``);
best-of suppresses scheduler noise without needing a quiet machine.
The telemetry and store sections, whose figures are ratios of short
sweeps, instead take medians over interleaved rounds filling a fixed
window.
The store and infer sections cross-check that every route they time
reports identical digests — a benchmark that got faster by computing
something else is a bug, not a win.

``run_bench`` returns the report as a dict and optionally writes it as
JSON; the CLI front-end is ``repro bench``.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.formats.bbc import BBCMatrix
from repro.kernels import KERNELS
from repro.kernels.batched import coalesce_raw, kernel_task_batches
from repro.kernels.vector import SparseVector
from repro.registry import create_stc
from repro.sim.blockcache import BlockCache
from repro.sim.engine import simulate_kernel
from repro.workloads.suitesparse import MatrixSpec, corpus

#: Report schema version; bump when the JSON layout changes.
BENCH_SCHEMA = 7


def _time_best(fn: Callable[[], object], repeat: int,
               label: str = "timed") -> float:
    """Best-of-``repeat`` wall seconds for one call of ``fn``.

    The timing helper of every bench section but telemetry's and
    store's; each repetition is also recorded as a ``bench:<label>``
    span, so running the harness under ``--trace`` yields a
    phase-by-phase timeline.
    """
    best = float("inf")
    for _ in range(max(1, repeat)):
        with obs.span(f"bench:{label}"):
            t0 = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
    return best


def report_digest(report) -> str:
    """Canonical JSON of everything a simulation's semantics determine.

    Host-dependent fields (wall time, cache attribution) are excluded;
    two evaluation paths claiming equivalence must produce identical
    digests case-for-case.  Used by the store bench's per-case
    cold/store/LRU identity check and by the parity tests.
    """
    return json.dumps(
        {
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
        },
        sort_keys=True,
    )


def model_digest(report) -> str:
    """sha256 of a ``ModelReport``'s JSON without host fields.

    ``wall_s`` and cache attribution are dropped; two routes through the
    graph runtime claiming equivalence must produce identical digests.
    """
    doc = report.as_json()
    doc.pop("wall_s")
    doc.pop("cache")
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _operands_for(kernel: str, bbc: BBCMatrix, seed: int) -> Dict[str, object]:
    """Deterministic non-matrix operands for one kernel invocation."""
    if kernel == "spmspv":
        rng = np.random.default_rng(seed)
        dense = rng.random(bbc.shape[1]) * (rng.random(bbc.shape[1]) < 0.5)
        return {"x": SparseVector.from_dense(dense)}
    if kernel == "spmm":
        return {"b_cols": 64}
    return {}


def bench_encode(specs: Sequence[MatrixSpec], repeat: int) -> Dict[str, object]:
    """Time COO -> BBC conversion across the corpus."""
    coos = [(spec.name, spec.matrix()) for spec in specs]
    total_nnz = sum(coo.nnz for _, coo in coos)

    def encode_all() -> None:
        for _, coo in coos:
            BBCMatrix.from_coo(coo)

    seconds = _time_best(encode_all, repeat, label="encode")
    return {
        "matrices": len(coos),
        "total_nnz": int(total_nnz),
        "seconds": seconds,
        "nnz_per_second": total_nnz / seconds if seconds else 0.0,
    }


def bench_enumeration(
    mats: Sequence[Tuple[str, BBCMatrix]], repeat: int
) -> Dict[str, Dict[str, object]]:
    """Per-kernel task-stream construction, coalescing included.

    Reports the full cost of producing the weighted unique-task stream
    the engine actually consumes.
    """
    out: Dict[str, Dict[str, object]] = {}
    for kernel in KERNELS:
        cases = [
            (bbc, _operands_for(kernel, bbc, seed=i))
            for i, (_, bbc) in enumerate(mats)
        ]

        def batched() -> None:
            for bbc, operands in cases:
                for batch in kernel_task_batches(kernel, bbc, **operands):
                    coalesce_raw(batch)

        total_tasks = sum(
            batch.total_tasks
            for bbc, operands in cases
            for batch in kernel_task_batches(kernel, bbc, **operands)
        )
        out[kernel] = {
            "tasks": int(total_tasks),
            "batched_seconds": _time_best(
                batched, repeat, label=f"enum_batched:{kernel}"),
        }
    return out


def bench_corpus_sweep(
    mats: Sequence[Tuple[str, BBCMatrix]],
    kernels: Sequence[str],
    repeat: int,
) -> Dict[str, object]:
    """End-to-end ``simulate_kernel`` sweep, cold and warm.

    Two regimes on the identical case list:

    - **cold** — a fresh shared :class:`BlockCache`, so every distinct
      block pattern is simulated once.  Cold time is dominated by the
      STC models' ``simulate_blocks``.
    - **warm** — the cache already holds every pattern, the regime a
      sweep service actually runs in (``repro corpus --store`` serves
      repeated campaigns from a result store for exactly this
      reason).  Warm time *is* the enumeration + aggregation overhead
      this layer owns.

    ``totals`` sums cycles / products / tasks over the last cold pass;
    ``cache`` is that pass's cache statistics.
    """
    cases = [
        (bbc, kernel, _operands_for(kernel, bbc, seed=i))
        for i, (_, bbc) in enumerate(mats)
        for kernel in kernels
    ]

    def sweep(cache: BlockCache) -> Dict[str, int]:
        totals = {"cycles": 0, "products": 0, "t1_tasks": 0}
        for bbc, kernel, operands in cases:
            report = simulate_kernel(kernel, bbc, create_stc("uni-stc"),
                                     cache=cache, **operands)
            totals["cycles"] += report.cycles
            totals["products"] += report.products
            totals["t1_tasks"] += report.t1_tasks
        return totals

    # Cold passes: each repetition gets a fresh cache (else it is not
    # cold), capped at best-of-2 because the model cost dominating this
    # phase makes it the bench's least sensitive — and most expensive —
    # number.  The last pass's cache provides the (cold) stats snapshot
    # and warms the cache for the timed warm passes below.
    cold_s = float("inf")
    totals: Dict[str, int] = {}
    warm_cache = BlockCache()
    for _ in range(min(2, max(1, repeat))):
        warm_cache = BlockCache()
        cold_s = min(cold_s, _time_best(
            lambda: totals.update(sweep(warm_cache)), 1,
            label="sweep_cold_fast",
        ))
    stats = warm_cache.stats.as_dict() | {"entries": len(warm_cache)}
    warm_s = _time_best(lambda: sweep(warm_cache), repeat,
                        label="sweep_warm_fast")
    return {
        "cases": len(cases),
        "kernels": list(kernels),
        "cold": {"fast_seconds": cold_s},
        "warm": {"fast_seconds": warm_s},
        "totals": totals,
        "cache": stats,
    }


def bench_obs_overhead(
    mats: Sequence[Tuple[str, BBCMatrix]],
    kernels: Sequence[str],
    repeat: int,
) -> Dict[str, object]:
    """Cost of the observability layer on the warm fast sweep.

    Three numbers, answering "can the instrumentation stay compiled
    in?":

    - ``disabled_seconds`` vs ``enabled_seconds`` — the warm fast
      sweep with observability off (the default) and on (tracer
      recording);
    - ``disabled_span_ns`` — per-call cost of a dormant ``obs.span``
      (the null fast path), measured over 100k calls;
    - ``estimated_disabled_overhead_pct`` — span call sites executed
      per sweep x the dormant per-call cost, as a percentage of the
      sweep's wall time.  This is the honest "what does the dormant
      instrumentation cost" figure (<2% is the budget); it is computed
      from deterministic counts rather than differencing two noisy
      wall-clock measurements of the same code path.
    """
    cases = [
        (name, bbc, kernel, _operands_for(kernel, bbc, seed=i))
        for i, (name, bbc) in enumerate(mats)
        for kernel in kernels
    ]
    cache = BlockCache()

    def sweep() -> None:
        for _, bbc, kernel, operands in cases:
            simulate_kernel(kernel, bbc, create_stc("uni-stc"), cache=cache,
                            **operands)

    sweep()  # warm the shared cache; both regimes below are warm

    was_enabled = obs.enabled()
    obs.disable()
    disabled_s = _time_best(sweep, repeat, label="sweep_obs_disabled")

    tracer = obs.enable(fresh=not was_enabled)
    spans_before = len(tracer.spans)
    enabled_s = _time_best(sweep, repeat, label="sweep_obs_enabled")
    reps = max(1, repeat)
    # Subtract the outer bench:* span each repetition adds itself.
    spans_per_sweep = (len(tracer.spans) - spans_before - reps) / reps

    obs.disable()
    n_calls = 100_000
    t0 = time.perf_counter()
    for _ in range(n_calls):
        with obs.span("noop"):
            pass
    disabled_span_ns = (time.perf_counter() - t0) / n_calls * 1e9

    if was_enabled:
        obs.enable(fresh=False)

    estimated_pct = (
        100.0 * spans_per_sweep * disabled_span_ns / (disabled_s * 1e9)
        if disabled_s else 0.0
    )
    return {
        "disabled_seconds": disabled_s,
        "enabled_seconds": enabled_s,
        "enabled_overhead_pct": (
            100.0 * (enabled_s / disabled_s - 1.0) if disabled_s else 0.0
        ),
        "spans_per_sweep": spans_per_sweep,
        "disabled_span_ns": disabled_span_ns,
        "estimated_disabled_overhead_pct": estimated_pct,
    }


#: Minimum summed wall seconds of the telemetry section's baseline
#: sweeps: one ~10 ms warm smoke sweep is mostly scheduler noise.
TELEMETRY_WINDOW_S = 0.25


def bench_telemetry_overhead(
    mats: Sequence[Tuple[str, BBCMatrix]],
    kernels: Sequence[str],
) -> Dict[str, object]:
    """Cost of the streaming-telemetry channel on the warm fast sweep.

    A worker streams one ``progress`` record per finished case
    (:meth:`~repro.obs.telemetry.TelemetryWriter.case_done`): a
    metrics **delta** snapshot plus one flushed JSONL line.  Both
    regimes here run with the obs registry recording (as a telemetry
    worker does), so the difference is the emission channel alone:

    - ``baseline_seconds`` vs ``streamed_seconds`` — the warm sweep
      without/with a per-case ``case_done`` emission;
    - ``per_emit_us`` — one emission's cost measured directly in
      500-call batches against a registry with dirty series;
    - ``estimated_overhead_pct`` — emissions per sweep x per-emit cost
      as a percentage of the baseline wall time.  Like the obs
      section's dormant-span figure, the budget (<2%, asserted by the
      bench smoke test) is checked against this deterministic estimate
      rather than the difference of two noisy wall-clock numbers.

    The four timings run in interleaved rounds until the baseline
    sweeps add up to ``TELEMETRY_WINDOW_S``; every figure is the median
    over rounds, so neither one ~10 ms sweep nor a host-speed change
    between timings moves the ratios.
    """
    import tempfile

    from repro.obs.telemetry import TelemetryWriter

    cases = [
        (name, bbc, kernel, _operands_for(kernel, bbc, seed=i))
        for i, (name, bbc) in enumerate(mats)
        for kernel in kernels
    ]
    cache = BlockCache()

    def sweep(writer: Optional[TelemetryWriter] = None) -> None:
        done = 0
        for _, bbc, kernel, operands in cases:
            simulate_kernel(kernel, bbc, create_stc("uni-stc"), cache=cache,
                            **operands)
            if writer is not None:
                done += 1
                writer.case_done(done)

    was_enabled = obs.enabled()
    obs.enable(fresh=not was_enabled)
    registry = obs.metrics()
    sweep()  # warm the shared cache; both regimes below are warm

    with tempfile.TemporaryDirectory() as tmp:
        writer = TelemetryWriter(
            Path(tmp) / "bench.telemetry.jsonl", "bench",
            total=len(cases), registry=registry,
        )

        # Direct per-emit cost: each call sees a dirty registry (the
        # tick counter) so it pays the full delta + write + flush path.
        # The tick itself is baseline registry work, not emission, so
        # its separately-measured cost is subtracted back out.
        n_emits = 500

        def emit_loop() -> None:
            for i in range(n_emits):
                registry.inc("bench.telemetry.tick")
                writer.case_done(i)

        def inc_loop() -> None:
            for _ in range(n_emits):
                registry.inc("bench.telemetry.tick")

        # One call of each per round, rounds until the baseline sweeps
        # fill the window.  Every figure is a median over rounds of
        # timings taken side by side, so neither a host-speed change
        # nor one preempted call moves the ratios.
        timed = {"off": sweep, "on": lambda: sweep(writer),
                 "emit": emit_loop, "inc": inc_loop}
        samples: Dict[str, List[float]] = {name: [] for name in timed}
        while sum(samples["off"]) < TELEMETRY_WINDOW_S:
            for name, fn in timed.items():
                with obs.span(f"bench:telemetry_{name}"):
                    t0 = time.perf_counter()
                    fn()
                    samples[name].append(time.perf_counter() - t0)
        writer.finish()

    if not was_enabled:
        obs.disable()

    off, on, emit, inc = (np.asarray(samples[name]) for name in timed)
    per_emit = np.maximum(emit - inc, 0.0) / n_emits
    return {
        "emits_per_sweep": len(cases),
        "baseline_seconds": float(np.median(off)),
        "streamed_seconds": float(np.median(on)),
        "measured_overhead_pct": float(np.median(100.0 * (on / off - 1.0))),
        "per_emit_us": float(np.median(per_emit)) * 1e6,
        "estimated_overhead_pct": float(
            np.median(100.0 * len(cases) * per_emit / off)),
    }


#: Minimum summed wall seconds of the store section's timed rounds,
#: and the fewest rounds it takes: one smoke warm sweep lasts only
#: 5-30 ms, so a best-of over a handful of them is scheduler noise.
STORE_WINDOW_S = 2.0
STORE_MIN_ROUNDS = 5


def bench_store(
    mats: Sequence[Tuple[str, BBCMatrix]],
    kernels: Sequence[str],
) -> Dict[str, object]:
    """Corpus sweeps through a persistent store: cold, warm and store-less.

    The regimes a repeated campaign actually runs in, each one uni-stc
    sweep over the corpus:

    - **cold** — an empty LRU writing every block through to a fresh,
      empty :class:`~repro.store.ResultStore` (a first ``repro corpus
      --store`` campaign);
    - **cold_nostore** — the same cold sweep with no store bound, so
      ``cold_over_nostore`` is what write-through costs a cold run;
    - **warm** — an **empty** LRU (a new process, as far as the cache
      is concerned) over a store holding every block, so every block is
      served from the store;
    - **warm_lru** — the same sweep served from a pre-warmed process
      LRU, so ``warm_over_lru`` is how close a store replay comes to
      memory speed (CI gates it).

    Two untimed sweeps fill the warm store and the warm LRU first; they
    also warm process-wide memos, so the two cold regimes differ only
    in the write-through.  The four timings then run in interleaved
    rounds until they add up to ``STORE_WINDOW_S`` (at least
    ``STORE_MIN_ROUNDS`` rounds).  Seconds are medians over rounds;
    each ratio is the median of its per-round ratios, with the
    quartiles of those ratios as its spread.  Also reported: the warm
    passes' store ``hit_rate`` (1.0 here: a miss would be a keying
    bug), lookups and bytes served per pass, and ``reports_identical``
    — per-case :func:`report_digest` identity of every timed sweep with
    the untimed store-filling sweep, the byte-for-byte replay claim
    ``docs/store.md`` makes.
    """
    import shutil
    import tempfile

    from repro.store import ResultStore

    cases = [
        (name, bbc, kernel, _operands_for(kernel, bbc, seed=i))
        for i, (name, bbc) in enumerate(mats)
        for kernel in kernels
    ]
    reference: Dict[str, str] = {}
    mismatches = set()

    def sweep(cache: BlockCache) -> None:
        for name, bbc, kernel, operands in cases:
            report = simulate_kernel(
                kernel, bbc, create_stc("uni-stc"), cache=cache, **operands
            )
            case = f"{kernel}:{name}"
            digest = report_digest(report)
            if reference.setdefault(case, digest) != digest:
                mismatches.add(case)

    with tempfile.TemporaryDirectory() as tmp, \
            ResultStore(Path(tmp) / "warm") as warm_store:
        sweep(BlockCache(store=warm_store))
        warm_store.flush()
        lru = BlockCache(capacity=None)
        sweep(lru)

        names = ("cold", "cold_nostore", "warm", "warm_lru")
        samples: Dict[str, List[float]] = {name: [] for name in names}
        before = warm_store.stats.snapshot()
        rounds = 0
        while (rounds < STORE_MIN_ROUNDS
               or sum(map(sum, samples.values())) < STORE_WINDOW_S):
            # Each round's cold sweep gets a fresh store, opened and
            # closed outside its timing.
            root = Path(tmp) / f"cold{rounds}"
            with ResultStore(root) as cold_store:
                caches = (BlockCache(store=cold_store), BlockCache(),
                          BlockCache(store=warm_store), lru)
                for name, cache in zip(names, caches):
                    with obs.span(f"bench:store_{name}"):
                        t0 = time.perf_counter()
                        sweep(cache)
                        samples[name].append(time.perf_counter() - t0)
                records, store_bytes = len(cold_store), cold_store.bytes
            shutil.rmtree(root)
            rounds += 1
        warm = warm_store.stats.delta(before)

    seconds = {name: np.asarray(samples[name]) for name in names}

    def ratio(num: str, den: str) -> Tuple[float, List[float]]:
        per_round = seconds[num] / seconds[den]
        q1, median, q3 = np.percentile(per_round, [25, 50, 75])
        return float(median), [float(q1), float(q3)]

    cold_over_nostore, cold_spread = ratio("cold", "cold_nostore")
    warm_over_lru, warm_spread = ratio("warm", "warm_lru")
    return {
        "cases": len(cases),
        "rounds": rounds,
        "records": records,
        "store_bytes": store_bytes,
        "cold_seconds": float(np.median(seconds["cold"])),
        "cold_nostore_seconds": float(np.median(seconds["cold_nostore"])),
        "warm_seconds": float(np.median(seconds["warm"])),
        "warm_lru_seconds": float(np.median(seconds["warm_lru"])),
        "speedup": ratio("cold", "warm")[0],
        "cold_over_nostore": cold_over_nostore,
        "cold_over_nostore_iqr": cold_spread,
        "warm_over_lru": warm_over_lru,
        "warm_over_lru_iqr": warm_spread,
        "hit_rate": warm.hit_rate,
        "lookups": warm.lookups // rounds,
        "served_bytes": warm.served_bytes // rounds,
        "reports_identical": not mismatches,
        "report_mismatches": sorted(mismatches),
    }


def bench_infer(repeat: int, smoke: bool = False) -> Dict[str, object]:
    """Batched end-to-end inference: one warm device vs N cold devices.

    The graph runner's amortisation claim, measured.  Three regimes,
    all simulating the identical 8-request ResNet-50 workload:

    - **sequential** — each request on its own device (fresh
      :class:`BlockCache` per request, ``request_offset`` selecting the
      request), the way 8 independent single-shot runs would execute;
    - **batched** — all 8 requests folded through one device sharing
      one cache: linear layers repeat their tile patterns exactly
      across requests, conv layers partially (fresh activations per
      request), so the batch pays the cold cost once;
    - **store replay** — the batched run against a persistent
      :class:`~repro.store.ResultStore` tier populated by a prior run
      with an empty process LRU, the repeated-service regime.

    ``totals_match`` cross-checks that batched and sequential agree on
    total compute cycles — the amortisation must not change a single
    simulated number — and ``model_digest`` (see :func:`model_digest`)
    is reported for the batched and the store-replay run, which must
    match: served from the LRU or from the store, the graph's
    ``ModelReport`` is the same.
    """
    import tempfile

    from repro.graph import GraphRunner, dnn_graph
    from repro.store import ResultStore

    model, batch = "resnet50", 8
    scale = 0.05 if smoke else 0.125
    graph = dnn_graph(model, scale=scale)

    seq_reports: list = []

    def sequential() -> None:
        seq_reports.clear()
        for r in range(batch):
            runner = GraphRunner(graph, create_stc("uni-stc"), batch=1,
                                 request_offset=r, cache=BlockCache())
            seq_reports.append(runner.run())

    sequential_s = _time_best(sequential, 1, label="infer_sequential")

    batched_holder: list = []

    def batched() -> None:
        batched_holder.clear()
        batched_holder.append(GraphRunner(
            graph, create_stc("uni-stc"), batch=batch, cache=BlockCache(),
        ).run())

    batched_s = _time_best(batched, 1, label="infer_batched")
    breport = batched_holder[0]
    totals_match = (breport.e2e_compute_cycles ==
                    sum(r.e2e_compute_cycles for r in seq_reports))
    seq_hits = sum(r.cache.get("hits", 0.0) for r in seq_reports)
    seq_lookups = seq_hits + sum(r.cache.get("misses", 0.0)
                                 for r in seq_reports)

    with tempfile.TemporaryDirectory() as tmp:
        with ResultStore(Path(tmp) / "inferstore") as store:
            GraphRunner(graph, create_stc("uni-stc"), batch=batch,
                        cache=BlockCache(store=store)).run()
            store.flush()
            before = store.stats.snapshot()
            replay_holder: list = []

            def replay() -> None:
                replay_holder[:] = [GraphRunner(
                    graph, create_stc("uni-stc"), batch=batch,
                    cache=BlockCache(store=store),
                ).run()]

            replay_s = _time_best(replay, repeat, label="infer_store_replay")
            warm = store.stats.delta(before)

    return {
        "model": model,
        "batch": batch,
        "scale": scale,
        "nodes": len(graph),
        "sequential_seconds": sequential_s,
        "batched_seconds": batched_s,
        "speedup": sequential_s / batched_s if batched_s else 0.0,
        "sequential_hit_rate": seq_hits / seq_lookups if seq_lookups else 0.0,
        "batched_hit_rate": breport.cache_hit_rate,
        "totals_match": totals_match,
        "e2e_latency": breport.e2e_latency,
        "e2e_energy_pj": breport.e2e_energy_pj,
        "dram_traffic_bytes": breport.dram_traffic_bytes,
        "model_digest": model_digest(breport),
        "store": {
            "replay_seconds": replay_s,
            "speedup": batched_s / replay_s if replay_s else 0.0,
            "hit_rate": warm.hit_rate,
            "model_digest": model_digest(replay_holder[0]),
        },
    }


def run_bench(
    out: Optional[Union[str, Path]] = None,
    smoke: bool = False,
    sizes: Tuple[int, ...] = (128, 256),
    corpus_limit: Optional[int] = None,
    kernels: Sequence[str] = KERNELS,
    repeat: int = 3,
) -> Dict[str, object]:
    """Run every bench section and optionally write the JSON report.

    ``smoke=True`` shrinks everything (tiny corpus, one repetition) so
    CI can assert the harness runs end-to-end in seconds; its timings
    are not meaningful, only its structure and cross-checks are.
    """
    if smoke:
        sizes, corpus_limit, repeat = (128,), 4, 1
    specs = corpus(sizes=sizes, limit=corpus_limit)
    mats = [(spec.name, BBCMatrix.from_coo(spec.matrix())) for spec in specs]
    report: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "config": {
            "smoke": smoke,
            "sizes": list(sizes),
            "corpus_limit": corpus_limit,
            "repeat": repeat,
            "kernels": list(kernels),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "encode": bench_encode(specs, repeat),
        "enumeration": bench_enumeration(mats, repeat),
        "corpus_sweep": bench_corpus_sweep(mats, kernels, repeat),
        "obs": bench_obs_overhead(mats, kernels, repeat),
        "telemetry": bench_telemetry_overhead(mats, kernels),
        "store": bench_store(mats, kernels),
        "infer": bench_infer(repeat, smoke),
    }
    if out is not None:
        Path(str(out)).write_text(json.dumps(report, indent=2) + "\n")
    return report


def render_summary(report: Dict[str, object]) -> str:
    """Human-readable digest of a bench report."""
    enc = report["encode"]
    sweep = report["corpus_sweep"]
    lines = [
        f"encode: {enc['matrices']} matrices, {enc['total_nnz']} nnz "
        f"in {enc['seconds']:.3f}s ({enc['nnz_per_second']:.3g} nnz/s)",
        "enumeration (batched, coalesce included):",
    ]
    for kernel, row in report["enumeration"].items():
        lines.append(
            f"  {kernel:7s} {row['tasks']:>9d} tasks  "
            f"{row['batched_seconds']:.3f}s"
        )
    lines.append(
        f"corpus sweep ({sweep['cases']} cases, "
        f"{sweep['totals']['t1_tasks']} T1 tasks): "
        f"cold {sweep['cold']['fast_seconds']:.3f}s, "
        f"warm {sweep['warm']['fast_seconds']:.3f}s"
    )
    cache = sweep["cache"]
    lines.append(
        f"cache: {cache['entries']} entries, hit rate {cache['hit_rate']:.1%}, "
        f"{cache['evictions']} evictions"
    )
    ov = report.get("obs")
    if ov:
        lines.append(
            f"obs: dormant span {ov['disabled_span_ns']:.0f}ns x "
            f"{ov['spans_per_sweep']:.0f}/sweep = "
            f"{ov['estimated_disabled_overhead_pct']:.3f}% overhead when off; "
            f"{ov['enabled_overhead_pct']:+.1f}% when tracing"
        )
    tel = report.get("telemetry")
    if tel:
        lines.append(
            f"telemetry: {tel['per_emit_us']:.1f}us/emit x "
            f"{tel['emits_per_sweep']}/sweep = "
            f"{tel['estimated_overhead_pct']:.3f}% overhead when streaming"
        )
    st = report.get("store")
    if st:
        lines.append(
            f"store: {st['records']} records / {st['store_bytes']} bytes; "
            f"medians of {st['rounds']} rounds: cold {st['cold_seconds']:.3f}s "
            f"({st['cold_over_nostore']:.2f}x no store "
            f"{st['cold_nostore_seconds']:.3f}s) -> warm "
            f"{st['warm_seconds']:.3f}s ({st['speedup']:.1f}x, "
            f"{st['warm_over_lru']:.2f}x warm LRU "
            f"{st['warm_lru_seconds']:.3f}s), hit rate {st['hit_rate']:.1%}, "
            f"{st['served_bytes']} bytes served, reports_identical="
            f"{st['reports_identical']}"
        )
        if st.get("report_mismatches"):
            shown = ", ".join(st["report_mismatches"][:5])
            lines.append(f"  REPORT MISMATCH in: {shown}")
    inf = report.get("infer")
    if inf:
        lines.append(
            f"infer: {inf['model']} x{inf['batch']} "
            f"(totals_match={inf['totals_match']}); sequential "
            f"{inf['sequential_seconds']:.3f}s -> batched "
            f"{inf['batched_seconds']:.3f}s ({inf['speedup']:.1f}x), "
            f"hit rate {inf['sequential_hit_rate']:.1%} -> "
            f"{inf['batched_hit_rate']:.1%}; store replay "
            f"{inf['store']['replay_seconds']:.3f}s "
            f"(hit rate {inf['store']['hit_rate']:.1%}, digests_match="
            f"{inf['store']['model_digest'] == inf['model_digest']})"
        )
    return "\n".join(lines)
