"""Outside-in layer tracing: spans around the program's public functions.

:class:`LayerTracer` replaces each function named in :func:`targets` by
a wrapper that records a span (layer, start, duration, depth) and
restores the original on :meth:`LayerTracer.restore`.  Nothing inside
``src/`` changes.  Self time per layer is accumulated online — a span's
duration minus the time its traced children cover — so the layer self
times of a traced region plus the untraced remainder (``other_s``)
equal that region's wall time exactly.

Spans are kept in memory (up to :data:`MAX_SPANS`; self times count
every span) and written at the end as Chrome ``trace_event`` JSON, the object
format ``repro.obs`` emits.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple, Union

import repro.graph.build as graph_build
import repro.graph.runner as graph_runner
import repro.sim.engine as engine
from repro.arch.base import BlockResult
from repro.energy.model import EnergyModel
from repro.formats.bbc import BBCMatrix
from repro.graph.runner import GraphRunner
from repro.registry import create_stc
from repro.sim.blockcache import BlockCache
from repro.store import ResultStore
from repro.workloads.suitesparse import MatrixSpec

#: A layer is a fixed name or a function of the call's arguments.
Layer = Union[str, Callable[..., str]]

_ABSENT = object()

#: Spans kept for the Chrome trace; self times count every span.
MAX_SPANS = 100_000


def _stc_layer(model, *args, **kwargs) -> str:
    return f"arch.simulate_s.{model.name}"


def targets(stcs) -> List[Tuple[object, str, Layer]]:
    """``(owner, attribute, layer)`` for every traced public function.

    Functions a module imported by name are patched where they are
    looked up (``repro.sim.engine.coalesce_raw``, not its home module).
    """
    out: List[Tuple[object, str, Layer]] = [
        (engine, "simulate_kernel", "sim.engine_self_s"),
        (graph_runner, "simulate_kernel", "sim.engine_self_s"),
        (engine, "kernel_task_batches", "kernels.enumerate_s"),
        (engine, "coalesce_raw", "kernels.coalesce_s"),
        (BlockCache, "lookup", "sim.lru_lookup_s"),
        (BlockCache, "insert", "sim.lru_insert_s"),
        (ResultStore, "lookup", "store.lookup_s"),
        (ResultStore, "insert", "store.insert_s"),
        (ResultStore, "flush", "store.flush_s"),
        (BlockResult, "action_vector_int", "sim.aggregate_s"),
        (EnergyModel, "breakdown", "energy.breakdown_s"),
        (BBCMatrix, "from_coo", "formats.encode_s"),
        (BBCMatrix, "from_csr", "formats.encode_s"),
        (MatrixSpec, "matrix", "workloads.generate_s"),
        (graph_build, "dlmc_corpus", "workloads.generate_s"),
        (graph_build, "activation_matrix", "workloads.generate_s"),
        (GraphRunner, "run", "graph.runner_self_s"),
        (graph_runner, "plan_buffers", "graph.plan_s"),
        (graph_runner, "kernel_traffic_bytes", "graph.pricing_s"),
        (graph_runner, "spgemm_output_nnz", "graph.pricing_s"),
        (graph_runner, "memory_cycles", "graph.pricing_s"),
    ]
    classes = {type(create_stc(name)) for name in stcs}
    out += [(cls, "simulate_blocks", _stc_layer)
            for cls in sorted(classes, key=lambda c: c.__name__)]
    return out


class LayerTracer:
    """Installs span wrappers, accumulates self time, exports the spans."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.spans: List[Tuple[str, float, float, int]] = []
        self.dropped = 0
        self._children: List[List[float]] = []
        self._saved: List[Tuple[object, str, object]] = []
        self.origin = perf_counter()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn: Callable, layer: Layer) -> Callable:
        stack, self_s, calls, spans = (self._children, self.self_s,
                                       self.calls, self.spans)
        fixed = layer if isinstance(layer, str) else None

        def traced(*args, **kwargs):
            name = fixed or layer(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                self_s[name] += dur - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dur
                if len(spans) < MAX_SPANS:
                    spans.append((name, start, dur, len(stack)))
                else:
                    self.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def install(self, points) -> None:
        """Wrap every ``(owner, attribute, layer)`` in ``points``."""
        for owner, attr, layer in points:
            own = vars(owner).get(attr, _ABSENT)
            self._saved.append((owner, attr, own))
            if isinstance(own, classmethod):
                wrapped = classmethod(self._wrap(own.__func__, layer))
            else:
                wrapped = self._wrap(getattr(owner, attr), layer)
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        """Put back every original, newest first; inherited ones by deletion."""
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- results -----------------------------------------------------------

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Copies of the self-time and call totals so far."""
        return dict(self.self_s), dict(self.calls)

    def chrome_trace(self, **about) -> Dict[str, object]:
        """The spans as a ``trace_event`` object-format document.

        ``about`` (workload, seed) is recorded under ``otherData``.
        """
        events = [
            {"name": name, "cat": "hostbench", "ph": "X",
             "ts": round((start - self.origin) * 1e6, 3),
             "dur": round(dur * 1e6, 3), "pid": 1, "tid": 1,
             "args": {"depth": depth}}
            for name, start, dur, depth in self.spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "hostbench",
                          "spans_dropped": self.dropped, **about},
        }

    def write_chrome_trace(self, path: Path, **about) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = self.chrome_trace(**about)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n",
                        encoding="utf-8")
