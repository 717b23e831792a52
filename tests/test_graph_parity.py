"""Graph-path vs legacy-loop parity: byte-identical per-layer reports.

The refactor contract: request 0 of the graph runner must call
``simulate_kernel`` with exactly the arguments the hand-rolled app
loops used, so every per-layer ``SimReport`` is byte-identical
(compared via the canonical ``report_digest``, which excludes only
host wall time and cache attribution).
"""

import pytest

from repro.apps.dnn import simulate_inference
from repro.apps.gnn import simulate_propagation
from repro.arch.config import FP32, UniSTCConfig
from repro.arch.unistc import UniSTC
from repro.baselines import DsSTC, RmSTC
from repro.formats import CSRMatrix
from repro.perf.bench import report_digest
from repro.workloads.synthetic import random_uniform

from tests.oracles import simulate_inference_legacy, simulate_propagation_legacy

STCS = {
    "uni-stc": lambda: UniSTC(UniSTCConfig(precision=FP32)),
    "ds-stc": lambda: DsSTC(FP32),
    "rm-stc": lambda: RmSTC(FP32),
}


@pytest.fixture(scope="module")
def adjacency():
    return CSRMatrix.from_coo(random_uniform(128, 128, 0.06, seed=9))


@pytest.mark.parametrize("stc_name", sorted(STCS))
@pytest.mark.parametrize("model,scale", [("resnet50", 0.05),
                                         ("transformer", 0.125)])
def test_dnn_graph_matches_legacy_loop(stc_name, model, scale):
    graph = simulate_inference(STCS[stc_name](), model, 0.70, scale=scale)
    legacy = simulate_inference_legacy(STCS[stc_name](), model, 0.70,
                                       scale=scale)
    assert [l.layer.name for l in graph.layers] \
        == [l.layer.name for l in legacy.layers]
    assert [report_digest(l.report) for l in graph.layers] \
        == [report_digest(l.report) for l in legacy.layers]
    assert graph.total_cycles == legacy.total_cycles
    assert graph.total_energy_pj == legacy.total_energy_pj


@pytest.mark.parametrize("stc_name", sorted(STCS))
def test_gnn_graph_matches_legacy_loop(stc_name, adjacency):
    report = simulate_propagation(STCS[stc_name](), adjacency,
                                  feature_dim=32, layers=2)
    legacy = simulate_propagation_legacy(STCS[stc_name](), adjacency,
                                         feature_dim=32, layers=2)
    nodes = report.per_layer(request=0)
    assert len(nodes) == len(legacy) == 3      # 2 propagations + two-hop
    assert [report_digest(n.report) for n in nodes] \
        == [report_digest(r) for r in legacy]


def test_dnn_parity_holds_under_batching():
    """Request 0 of a batched run is still the legacy run."""
    uni = UniSTC(UniSTCConfig(precision=FP32))
    batched = simulate_inference(uni, "resnet50", 0.70, scale=0.05, batch=3)
    legacy = simulate_inference_legacy(uni, "resnet50", 0.70, scale=0.05)
    assert [report_digest(l.report) for l in batched.layers] \
        == [report_digest(l.report) for l in legacy.layers]


def test_dnn_parity_tracks_the_seed():
    """A non-default seed reaches both paths identically."""
    uni = UniSTC(UniSTCConfig(precision=FP32))
    graph = simulate_inference(uni, "resnet50", 0.70, scale=0.05, seed=42)
    legacy = simulate_inference_legacy(uni, "resnet50", 0.70, scale=0.05,
                                       seed=42)
    assert [report_digest(l.report) for l in graph.layers] \
        == [report_digest(l.report) for l in legacy.layers]
    default = simulate_inference_legacy(uni, "resnet50", 0.70, scale=0.05)
    assert [report_digest(l.report) for l in graph.layers] \
        != [report_digest(l.report) for l in default.layers]
