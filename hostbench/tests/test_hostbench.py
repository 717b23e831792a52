"""The benchmark's own tests: ``python3 -m pytest hostbench/tests -q``."""

import json
from pathlib import Path

import pytest

from hostbench.bench import LAYER_TIMES, run_workload
from hostbench.tracing import LayerTracer, targets
from hostbench.workloads import (
    COLD_STCS,
    DEFAULT_SEED,
    TINY,
    InferBatch,
    WORKLOADS,
)

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _tiny(name, tmp_path, trace=False, golden=None):
    return run_workload(name, seed=DEFAULT_SEED, seconds=0.0, trace=trace,
                        config=TINY, root=tmp_path, golden=golden,
                        log=lambda line: None)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_reports_every_named_metric(name, trace, tmp_path):
    result = _tiny(name, tmp_path, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        self_times = sum(m[k] for k in LAYER_TIMES)
        assert m["other_s"] >= 0
        assert self_times + m["other_s"] == pytest.approx(m["trace.wall_s"])
        assert (tmp_path / ".hostbench" /
                f"trace-{name}.json").is_file()
    else:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert not list((tmp_path / ".hostbench").glob("run-*"))


def _digests(tmp_path):
    workload = InferBatch(DEFAULT_SEED, TINY, tmp_path)
    workload.setup()
    result = workload.run_pass()
    golden = {}
    for checks in result.checks:
        golden.update(checks)
    return golden


def test_golden_digests_pass_and_planted_mismatch_fails(tmp_path):
    golden = _digests(tmp_path)
    clean = _tiny("infer-batch", tmp_path, golden=golden)
    assert clean["failed"] == 0

    node = next(cid for cid in golden if cid.count("/") == 3)
    planted = dict(golden, **{node: "0" * 64})
    result = _tiny("infer-batch", tmp_path, golden=planted)
    assert result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(
        1 - 1 / result["attempted"])

    # A mismatching batch-8 run fails every call it made.
    run = "infer/transformer"
    result = _tiny("infer-batch", tmp_path, golden=dict(golden, **{run: "x"}))
    assert result["failed"] == sum(1 for cid in golden
                                   if cid.startswith(run + "/"))


def _bindings():
    return [(owner, attr, vars(owner).get(attr))
            for owner, attr, _ in targets(COLD_STCS)]


def test_traced_run_removes_its_wrappers(tmp_path):
    before = _bindings()
    _tiny("infer-batch", tmp_path, trace=True)
    assert _bindings() == before
    assert not any(hasattr(getattr(owner, attr), "__wrapped__")
                   for owner, attr, _ in before)


def test_wrappers_removed_when_traced_code_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with LayerTracer() as tracer:
            tracer.install(targets(COLD_STCS))
            assert _bindings() != before
            raise RuntimeError("boom")
    assert _bindings() == before
