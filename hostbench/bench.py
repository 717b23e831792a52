"""Run one workload untraced (end-to-end metrics) or traced (per-layer).

``run_workload`` returns the result object the command prints as its
last line: ``{"correct", "attempted", "failed", "metrics"}``, each
metric a ``{"value", "unit"}`` pair.  The metric names and units here
are the ones ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from hostbench import workloads
from hostbench.probe import settled_factor
from hostbench.tracing import LayerTracer, targets
from hostbench.workloads import (
    COLD_STCS,
    DEFAULT_SEED,
    WORKLOADS,
    Config,
    PassResult,
    Workload,
)
from repro.kernels import KERNELS

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: Share of ``--seconds`` the traced run spends untraced, measuring the
#: wall its traced half is compared against.
UNTRACED_SHARE = 0.5

#: Tracer layer of the host-speed probe; excluded from the per-layer split.
PROBE_LAYER = "hostbench.probe"

#: Per-layer self-time metrics, in report order.
LAYER_TIMES = (
    *(f"arch.simulate_s.{stc}" for stc in COLD_STCS),
    "store.insert_s", "store.flush_s", "store.lookup_s",
    "sim.aggregate_s", "sim.lru_lookup_s", "sim.lru_insert_s",
    "sim.engine_self_s",
    "kernels.enumerate_s", "kernels.coalesce_s",
    "graph.pricing_s", "graph.plan_s", "graph.runner_self_s",
    "energy.breakdown_s", "formats.encode_s", "workloads.generate_s",
)


def load_golden(seed: int, config: Config) -> Optional[Dict[str, str]]:
    """Golden digests for ``seed``, or None when none were recorded."""
    if not config.is_default or not GOLDEN_PATH.is_file():
        return None
    doc = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    return doc["digests"] if doc["seed"] == seed else None


class DigestGate:
    """Decides which cases failed: raised, or a digest differs.

    With golden digests every check must equal its golden value.
    Either way every check must reproduce the first digest seen for its
    id in this run — route identity: ``store-replay``'s store-served
    passes reproduce its set-up cold pass, and every pass reproduces
    the first.  Without golden digests only route identity is checked.
    """

    def __init__(self, golden: Optional[Dict[str, str]]):
        self.golden = golden
        self.expected: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def _bad(self, checks: Dict[str, str]) -> List[str]:
        return [cid for cid, digest in checks.items()
                if self.expected.setdefault(cid, digest) != digest
                or (self.golden is not None and self.golden.get(cid) != digest)]

    def _count(self, cid: str, problem) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.mismatches) < 10:
                self.mismatches.append(f"{cid}: {problem}")

    def check(self, result: PassResult) -> None:
        """Gate every case of a pass."""
        for case, checks in zip(result.cases, result.checks):
            self._count(case.cid, case.error or self._bad(checks))

    def check_setup(self, workload: Workload) -> None:
        """Gate the cases a set-up simulated (``store-replay``'s fill)."""
        for cid, digest in workload.reference_digests().items():
            self._count(cid, self._bad({cid: digest}))


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _passes_for(workload: Workload, seconds: float,
                count: Optional[int] = None) -> List[PassResult]:
    """Run whole passes back to back until ``seconds`` elapsed (or ``count``)."""
    passes: List[PassResult] = []
    t0 = time.perf_counter()
    while True:
        gc.collect()  # start every pass from the same collector state
        passes.append(workload.run_pass())
        if count is not None:
            if len(passes) >= count:
                return passes
        elif time.perf_counter() - t0 >= seconds:
            return passes


def _case_ms(passes: Iterable[PassResult]) -> List[float]:
    return [ms for p in passes for ms in p.case_ms]


def _deciles(ms: List[float]) -> List[float]:
    if len(ms) < 2:
        return (ms or [0.0]) * 9
    return statistics.quantiles(ms, n=10)


def end_to_end(passes: List[PassResult], setup_times: List[float],
               gate: DigestGate) -> Dict[str, Dict[str, object]]:
    deciles = _deciles(_case_ms(passes))
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "tasks_per_s": _metric(
            statistics.median(p.tasks / p.norm_wall_s for p in passes), "1/s"),
        "case_ms.p50": _metric(deciles[4], "ms"),
        "case_ms.p90": _metric(deciles[8], "ms"),
        "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        "ok_frac": _metric(1.0 - gate.failed / max(1, gate.attempted), "ratio"),
    }


def _geomean(values: List[float]) -> float:
    return math.exp(sum(map(math.log, values)) / len(values)) if values else 0.0


def model_outputs(result: PassResult) -> Dict[str, Dict[str, object]]:
    """Deterministic simulated outputs of one pass, as counts."""
    stats = result.stats
    out = {}
    for stc in COLD_STCS:
        out[f"model.cycles.{stc}"] = _metric(stats.cycles.get(stc, 0), "cycles")
        out[f"model.energy_pj.{stc}"] = _metric(stats.energy_pj.get(stc, 0.0), "pJ")
    cyc = stats.case_cycles
    for base in COLD_STCS[1:]:
        for kernel in KERNELS:
            ratios = [cyc[(base, k, m)] / c for (stc, k, m), c in cyc.items()
                      if stc == "uni-stc" and k == kernel and c
                      and (base, k, m) in cyc]
            out[f"model.speedup_vs_{base}.{kernel}"] = _metric(
                _geomean(ratios), "ratio")
    out["graph.e2e_latency"] = _metric(stats.e2e_latency, "cycles")
    out["graph.dram_bytes"] = _metric(stats.dram_bytes, "B")
    return out


def per_layer(tracer: LayerTracer, setup: Tuple[Dict[str, float], Dict[str, int]],
              setup_wall: float, traced: List[PassResult],
              untraced: List[PassResult]) -> Dict[str, Dict[str, object]]:
    """Per-pass self time per layer, the remainder, counts and overhead.

    ``setup`` is the tracer's ``(self_s, calls)`` snapshot taken when
    the traced set-up ended; pass figures are the totals after it,
    divided by the number of traced passes.  The traced wall is the
    passes' own timed windows without the probes, so the layer self
    times plus ``other_s`` equal ``trace.wall_s``.  The overhead
    compares probe-scaled walls of the traced and untraced passes.
    """
    setup_self, setup_calls = setup
    n = len(traced)
    traced_wall = sum(p.wall_s - p.probe_s for p in traced)
    overhead = (sum(p.norm_wall_s for p in traced)
                / sum(p.norm_wall_s for p in untraced) - 1.0)
    pass_self = {k: (v - setup_self.get(k, 0.0)) / n
                 for k, v in tracer.self_s.items() if k != PROBE_LAYER}
    last = traced[-1].stats
    out = {name: _metric(pass_self.get(name, 0.0), "s") for name in LAYER_TIMES}
    for stc in COLD_STCS:
        blocks = last.blocks.get(stc, 0)
        out[f"arch.simulate_blocks.{stc}"] = _metric(blocks, "count")
        out[f"arch.us_per_block.{stc}"] = _metric(
            pass_self.get(f"arch.simulate_s.{stc}", 0.0) / blocks * 1e6
            if blocks else 0.0, "us")
    out.update({
        "store.bytes": _metric(last.store_bytes, "B"),
        "store.records": _metric(last.store_records, "count"),
        "store.hit_rate": _metric(
            last.store_hits / last.store_lookups if last.store_lookups else 0.0,
            "ratio"),
        "kernels.tasks": _metric(last.tasks, "count"),
        "kernels.unique_pairs": _metric(last.unique_pairs, "count"),
        "sim.lru_hit_rate": _metric(
            last.lru_hits / last.unique_pairs if last.unique_pairs else 0.0,
            "ratio"),
        "sim.lru_entries": _metric(last.lru_entries, "count"),
        "other_s": _metric(traced_wall / n - sum(pass_self.values()), "s"),
        "trace.wall_s": _metric(traced_wall / n, "s"),
        "trace.overhead_pct": _metric(
            100.0 * overhead, "%"),
        "trace.passes": _metric(n, "count"),
        "trace.spans": _metric(
            sum(c - setup_calls.get(k, 0) for k, c in tracer.calls.items()
                if k != PROBE_LAYER) / n, "count"),
        "setup.wall_s": _metric(setup_wall, "s"),
        "setup.encode_s": _metric(setup_self.get("formats.encode_s", 0.0), "s"),
        "setup.generate_s": _metric(
            setup_self.get("workloads.generate_s", 0.0), "s"),
    })
    out.update(model_outputs(traced[-1]))
    return out


def run_workload(name: str, seed: int = DEFAULT_SEED, seconds: float = 20.0,
                 trace: bool = False, config: Config = Config(),
                 root: Optional[Path] = None,
                 golden: Optional[Dict[str, str]] = None,
                 log=print) -> Dict[str, object]:
    """Measure one workload; returns the printed result object.

    ``golden`` overrides the recorded golden digests (tests plant a
    mismatch through it); by default they are loaded for ``seed``.
    ``root`` is where scratch stores and the trace file go.
    """
    root = Path(root) if root is not None else Path.cwd()
    if golden is None:
        golden = load_golden(seed, config)
    if golden is None:
        log(f"seed {seed} has no golden digests: checking route identity only")
    scratch = root / ".hostbench"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    workload = WORKLOADS[name](seed, config, workdir)
    try:
        if trace:
            metrics, gate = _traced(workload, seconds, golden,
                                    scratch / f"trace-{name}.json")
        else:
            metrics, gate = _untraced(workload, seconds, golden, log)
    finally:
        workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    for line in gate.mismatches:
        log(f"FAILED {line}")
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }


def _untraced(workload: Workload, seconds: float,
              golden: Optional[Dict[str, str]], log):
    gate = DigestGate(golden)
    setup_times = []
    for _ in range(workload.setup_reps):
        gc.collect()  # free the previous set-up before the next one peaks
        before = settled_factor()
        t0 = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - t0
        # Probes bracket the set-up: scale by the host speed on both sides.
        setup_times.append(elapsed * 2 / (before + settled_factor()))
        gate.check_setup(workload)
    passes = _passes_for(workload, seconds)
    for result in passes:
        gate.check(result)
    ms = _case_ms(passes)
    beyond = sum(1 for v in ms if v > _deciles(ms)[8])
    raw_rate = statistics.median(p.tasks / (p.wall_s - p.probe_s) for p in passes)
    log(f"{workload.name}: {len(passes)} pass(es), {gate.attempted} cases "
        f"attempted, {len(ms)} case times ({beyond} beyond p90), "
        f"failed_frac={gate.failed / max(1, gate.attempted):.4f}")
    log(f"host speed factor {statistics.median(p.speed_factor for p in passes):.3f}"
        f" (probe vs reference); unscaled tasks_per_s {raw_rate:.1f}")
    return end_to_end(passes, setup_times, gate), gate


def _traced(workload: Workload, seconds: float,
            golden: Optional[Dict[str, str]], trace_path: Path):
    gate = DigestGate(golden)
    workload.setup()
    gate.check_setup(workload)
    untraced = _passes_for(workload, seconds * UNTRACED_SHARE)
    with LayerTracer() as tracer:
        # The probe is traced too, so its time is no parent layer's self time.
        tracer.install(targets(COLD_STCS) + [(workloads, "probe", PROBE_LAYER)])
        t0 = time.perf_counter()
        workload.setup()
        setup_wall = time.perf_counter() - t0
        setup = tracer.snapshot()
        traced = _passes_for(workload, 0.0, count=len(untraced))
    gate.check_setup(workload)
    for result in untraced + traced:
        gate.check(result)
    tracer.write_chrome_trace(trace_path, workload=workload.name,
                              seed=workload.seed)
    return per_layer(tracer, setup, setup_wall, traced, untraced), gate
