"""Per-subcommand smoke tests: every CLI run emits a run manifest."""

import json

import pytest

from repro.cli import main


def _manifests(run_dir):
    return sorted(run_dir.glob("*.json"))


def _run(tmp_path, argv, expect=0):
    run_dir = tmp_path / "runs"
    assert main(argv + ["--run-dir", str(run_dir)]) == expect
    paths = _manifests(run_dir)
    assert paths, f"no run manifest written for {argv!r}"
    manifest = json.loads(paths[-1].read_text())
    assert manifest["kind"] == "repro.run"
    assert manifest["command"] == argv[0]
    assert manifest["fingerprint"]
    return manifest


def test_info(tmp_path, capsys):
    manifest = _run(tmp_path, ["info"])
    assert manifest["status"] == "ok"


def test_formats(tmp_path, capsys):
    _run(tmp_path, ["formats", "--matrix", "band:64:8:0.5"])


def test_area(tmp_path, capsys):
    _run(tmp_path, ["area", "--dpgs", "8"])


def test_trace(tmp_path, capsys):
    manifest = _run(tmp_path, ["trace", "--cycles", "2", "--seed", "5"])
    assert manifest["seed"] == 5


def test_kernels(tmp_path, capsys):
    manifest = _run(tmp_path, ["kernels", "--matrix", "band:64:6:0.5",
                               "--kernel", "spmv", "--stc", "ds-stc,uni-stc"])
    assert manifest["params"]["stc"] == "ds-stc,uni-stc"


def test_kernels_error_still_writes_manifest(tmp_path, capsys):
    manifest = _run(tmp_path, ["kernels", "--matrix", "nope:1"], expect=2)
    assert manifest["status"] == "error"
    assert manifest["exit_code"] == 2
    assert "nope" in manifest["error"]


def test_profile(tmp_path, capsys):
    _run(tmp_path, ["profile", "--matrix", "band:64:8:0.5",
                    "--kernel", "spmv", "--stc", "uni-stc"])


def test_amg(tmp_path, capsys):
    _run(tmp_path, ["amg", "--grid", "10", "--stc", "ds-stc,uni-stc"])


def test_corpus(tmp_path, capsys):
    manifest = _run(tmp_path, ["corpus", "--limit", "2", "--kernel", "spmv",
                               "--stc", "ds-stc,uni-stc"])
    assert manifest["params"]["limit"] == 2


def test_faults(tmp_path, capsys):
    _run(tmp_path, ["faults", "--matrix", "band:64:8:0.4",
                    "--trials", "4", "--kinds", "lv1_bitflip"])


def test_bench(tmp_path, capsys):
    _run(tmp_path, ["bench", "--smoke", "--repeat", "1"])


@pytest.mark.parametrize("broken", ["store", "infer"])
def test_bench_digest_mismatch_exits_1(tmp_path, capsys, monkeypatch, broken):
    """A diverging store replay or inference replay fails the run."""
    report = {
        "store": {"reports_identical": broken != "store",
                  "report_mismatches": ["spmv:m0"] if broken == "store" else []},
        "infer": {"model_digest": "a" * 64,
                  "store": {"model_digest": ("b" if broken == "infer" else "a") * 64}},
    }
    monkeypatch.setattr("repro.perf.bench.run_bench", lambda **_: report)
    monkeypatch.setattr("repro.perf.bench.render_summary", lambda _: "")
    manifest = _run(tmp_path, ["bench", "--smoke"], expect=1)
    assert manifest["status"] == "error"
    assert "error:" in capsys.readouterr().err


def test_dse(tmp_path, capsys):
    space = tmp_path / "space.json"
    space.write_text(json.dumps({"config": {"num_dpgs": [4, 8]},
                                 "matrices": ["band:64:8:0.5"],
                                 "kernels": ["spmv"]}))
    manifest = _run(tmp_path, ["dse", "--space", str(space)])
    assert manifest["params"]["strategy"] == "grid"


def test_report(tmp_path, capsys):
    run = tmp_path / "bench.json"
    run.write_text(json.dumps({"benchmarks": [
        {"name": "test_fig18_io_energy", "extra_info": {"write_c_gap": 7.0}},
    ]}))
    _run(tmp_path, ["report", str(run)])


def test_paper(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("subprocess.call", lambda cmd: calls.append(cmd) or 0)
    _run(tmp_path, ["paper", "--filter", "nothing_matches"])
    assert calls and "--benchmark-only" in calls[0]


def test_manifest_dir_can_be_disabled(tmp_path, capsys):
    assert main(["info", "--run-dir", ""]) == 0
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("stc", ["ds-stc", "gamma", "nv-dtc", "nv-dtc-2:4",
                                 "rm-stc", "sigma", "trapezoid", "uni-stc"])
def test_every_registry_stc_is_a_valid_cli_choice(tmp_path, capsys, stc):
    _run(tmp_path, ["kernels", "--matrix", "band:64:8:0.5",
                    "--kernel", "spmv", "--stc", stc])
