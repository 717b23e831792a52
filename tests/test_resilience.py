"""Tests for the fault-tolerant sweep runner (repro.resilience.runner)
and the per-case deadline the campaign supervisor puts around it."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.arch.unistc import UniSTC
from repro.cli import main
from repro.errors import (
    CaseTimeoutError,
    CheckpointError,
    ConfigError,
    DataCorruptionError,
    FormatError,
    ShapeError,
    SimulationError,
)
from repro.exec import CampaignExecutor, ExecPolicy, StcDef, strip_wallclock
from repro.exec.worker import CHAOS_ENV
from repro.resilience.runner import (
    ResilientRunner,
    RetryPolicy,
    classify_error,
)
from repro.sim import engine
from repro.sim.sweep import Sweep
from repro.store import ResultStore
from repro.workloads.synthetic import banded
from tests.conftest import leaked_workers


@pytest.fixture(autouse=True)
def fresh_engine_cache():
    engine.clear_cache()
    yield
    engine.clear_cache()


def make_sweep(n_matrices=2, kernels=("spmv",), stcs=None):
    matrices = {
        f"m{i}": banded(64, 6 + 2 * i, 0.5, seed=i) for i in range(n_matrices)
    }
    return Sweep(
        matrices=matrices,
        stcs=dict(stcs) if stcs else {"uni-stc": UniSTC},
        kernels=list(kernels),
    )


class BoomFactory:
    """A model factory that always fails with a chosen exception."""

    def __init__(self, exc_type=SimulationError, message="boom"):
        self.exc_type = exc_type
        self.message = message
        self.calls = 0

    def __call__(self):
        self.calls += 1
        raise self.exc_type(self.message)


class FlakyFactory:
    """Fails the first ``fail_times`` calls, then behaves like UniSTC."""

    def __init__(self, fail_times=1):
        self.fail_times = fail_times
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise SimulationError("transient glitch")
        return UniSTC()


def make_executor(journal, max_retries=1, **policy):
    """A two-matrix, two-STC campaign under ``ExecPolicy(**policy)``."""
    return CampaignExecutor(
        matrices={"m0": "band:48:4:0.5", "m1": "band:48:6:0.5"},
        stcs=[StcDef.plain("ds-stc"), StcDef.plain("uni-stc")],
        kernels=["spmv"],
        journal_path=journal,
        max_retries=max_retries,
        policy=ExecPolicy(term_grace_s=0.5, **policy),
    )


def journal_entries(journal):
    """Journal entries keyed by (matrix, stc), wall-clock fields stripped."""
    lines = journal.read_text(encoding="utf-8").splitlines()[1:]
    entries = [strip_wallclock(json.loads(line)) for line in lines]
    return {(e["case"]["matrix"], e["case"]["stc"]): e for e in entries}


def assert_timed_out(outcome, attempts):
    assert outcome.status == "failed"
    assert outcome.failure.taxonomy == "timeout"
    assert outcome.failure.type == "CaseTimeoutError"
    assert "budget" in outcome.failure.message
    assert outcome.attempts == attempts


class TestClassifyError:
    def test_taxonomy_labels(self):
        assert classify_error(CaseTimeoutError("t")) == "timeout"
        assert classify_error(DataCorruptionError("d")) == "corruption"
        assert classify_error(FormatError("f")) == "format"
        assert classify_error(ShapeError("s")) == "shape"
        assert classify_error(ConfigError("c")) == "config"
        assert classify_error(SimulationError("s")) == "simulation"
        assert classify_error(MemoryError()) == "resource"
        assert classify_error(RuntimeError("?")) == "unexpected"


class TestCleanRuns:
    def test_matches_plain_sweep(self):
        sweep = make_sweep(2)
        plain = {(r.case.matrix_name, r.case.kernel, r.case.stc_name): r.report.cycles
                 for r in make_sweep(2).run()}
        summary = ResilientRunner(sweep).run()
        assert summary.n_failed == 0
        assert summary.n_ok == len(sweep.cases())
        for result in summary.results:
            key = (result.case.matrix_name, result.case.kernel, result.case.stc_name)
            assert result.report.cycles == plain[key]

    def test_progress_callback_sees_every_case(self):
        sweep = make_sweep(2)
        seen = []
        ResilientRunner(sweep).run(progress=seen.append)
        assert len(seen) == len(sweep.cases())
        assert all(o.status == "ok" for o in seen)


class TestIsolationAndRetry:
    def test_failing_stc_does_not_abort_the_sweep(self):
        sweep = make_sweep(2, stcs={"boom": BoomFactory(), "uni-stc": UniSTC})
        summary = ResilientRunner(
            sweep, retry=RetryPolicy(max_retries=0), sleep=lambda s: None
        ).run()
        assert summary.n_failed == 2
        assert summary.n_ok == 2
        assert summary.taxonomy_counts() == {"simulation": 2}
        failure = summary.failures[0].failure
        assert failure.type == "SimulationError"
        assert "boom" in failure.message

    def test_transient_failure_retried_with_backoff(self):
        sweep = make_sweep(1, stcs={"flaky": FlakyFactory(fail_times=1)})
        sleeps = []
        policy = RetryPolicy(max_retries=2, base_delay_s=0.01, jitter=0.5)
        summary = ResilientRunner(sweep, retry=policy, sleep=sleeps.append).run()
        assert summary.n_failed == 0
        assert summary.outcomes[0].attempts == 2
        assert len(sleeps) == 1
        assert 0.01 <= sleeps[0] <= 0.01 * 1.5

    def test_retry_budget_is_bounded(self):
        boom = BoomFactory()
        sweep = make_sweep(1, stcs={"boom": boom})
        policy = RetryPolicy(max_retries=3, base_delay_s=0.0)
        summary = ResilientRunner(sweep, retry=policy, sleep=lambda s: None).run()
        assert summary.n_failed == 1
        assert summary.outcomes[0].attempts == 4
        assert boom.calls == 4

    def test_structural_errors_are_not_retried(self):
        boom = BoomFactory(exc_type=FormatError, message="bad bytes")
        sweep = make_sweep(1, stcs={"boom": boom})
        policy = RetryPolicy(max_retries=5, base_delay_s=0.0)
        summary = ResilientRunner(sweep, retry=policy, sleep=lambda s: None).run()
        assert summary.outcomes[0].attempts == 1
        assert summary.outcomes[0].failure.taxonomy == "format"

    def test_backoff_schedule_is_seeded(self):
        delays_a, delays_b = [], []
        policy = RetryPolicy(max_retries=3, base_delay_s=0.01)
        for sink in (delays_a, delays_b):
            sweep = make_sweep(1, stcs={"boom": BoomFactory()})
            ResilientRunner(sweep, retry=policy, seed=7, sleep=sink.append).run()
        assert delays_a == delays_b


class TestTimeouts:
    """``--timeout`` is a per-case deadline only the supervisor enforces:
    with ``workers=0`` the campaign runs on one supervised worker."""

    def test_hung_case_times_out_and_sweep_continues(
            self, tmp_path, monkeypatch):
        reference = tmp_path / "single.jsonl"
        make_executor(reference).run()

        monkeypatch.setenv(CHAOS_ENV, "hang:m0/uni-stc")
        journal = tmp_path / "hang.jsonl"
        threads = threading.active_count()
        summary = make_executor(journal, timeout_s=1.0).run()

        by_case = {(o.case.matrix_name, o.case.stc_name): o
                   for o in summary.outcomes}
        assert_timed_out(by_case.pop(("m0", "uni-stc")), attempts=2)
        assert all(o.status == "ok" for o in by_case.values())
        expected, entries = journal_entries(reference), journal_entries(journal)
        assert {k: entries[k] for k in by_case} == \
            {k: expected[k] for k in by_case}
        assert leaked_workers(str(journal) + ".d") == []
        assert threading.active_count() == threads

    def test_fast_cases_unaffected_by_timeout(self, tmp_path):
        reference = tmp_path / "single.jsonl"
        make_executor(reference).run()
        journal = tmp_path / "deadline.jsonl"
        summary = make_executor(journal, timeout_s=30.0).run()
        assert summary.n_failed == 0
        assert journal_entries(journal) == journal_entries(reference)


class _Interrupted(KeyboardInterrupt):
    """Stands in for the user killing the process mid-sweep."""


class CountingFactory:
    """Counts run_case invocations; optionally dies on the Nth call."""

    def __init__(self, die_on_call=None):
        self.calls = 0
        self.die_on_call = die_on_call

    def __call__(self):
        self.calls += 1
        if self.die_on_call is not None and self.calls == self.die_on_call:
            raise _Interrupted()
        return UniSTC()


class TestCheckpointResume:
    def test_killed_mid_sweep_resumes_without_resimulating(self, tmp_path):
        """The acceptance scenario: kill after N cases, resume, complete."""
        journal = tmp_path / "sweep.jsonl"
        dying = CountingFactory(die_on_call=3)
        sweep = make_sweep(3, stcs={"uni-stc": dying})
        runner = ResilientRunner(sweep, journal_path=journal)
        with pytest.raises(KeyboardInterrupt):
            runner.run()
        lines = journal.read_text().splitlines()
        assert len(lines) == 1 + 2  # header + two completed cases
        first_run_reports = {
            (e["case"]["matrix"], e["case"]["kernel"], e["case"]["stc"]):
                e["report"]["cycles"]
            for e in map(json.loads, lines[1:])
        }

        fresh = CountingFactory()
        resumed_sweep = make_sweep(3, stcs={"uni-stc": fresh})
        summary = ResilientRunner(
            resumed_sweep, journal_path=journal, resume=True
        ).run()
        assert summary.n_ok == 3
        assert summary.n_resumed == 2
        # Only the interrupted case was ever simulated on resume.
        assert fresh.calls == 1
        for outcome in summary.outcomes:
            key = (outcome.case.matrix_name, outcome.case.kernel,
                   outcome.case.stc_name)
            if key in first_run_reports:
                assert outcome.resumed
                assert outcome.report.cycles == first_run_reports[key]
        # The journal now covers the full grid.
        assert len(journal.read_text().splitlines()) == 1 + 3

    def test_resumed_reports_are_fully_reconstructed(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        sweep = make_sweep(1)
        original = ResilientRunner(sweep, journal_path=journal).run()
        resumed = ResilientRunner(
            make_sweep(1), journal_path=journal, resume=True
        ).run()
        a, b = original.results[0].report, resumed.results[0].report
        assert a.cycles == b.cycles
        assert a.energy_pj == pytest.approx(b.energy_pj)
        assert np.array_equal(a.util_hist.bins, b.util_hist.bins)
        assert a.counters.as_dict() == pytest.approx(b.counters.as_dict())
        assert a.mean_utilisation == pytest.approx(b.mean_utilisation)

    def test_failed_cases_are_retried_on_resume(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        sweep = make_sweep(1, stcs={"uni-stc": FlakyFactory(fail_times=1)})
        first = ResilientRunner(sweep, journal_path=journal).run()
        assert first.n_failed == 1
        resumed = ResilientRunner(
            make_sweep(1), journal_path=journal, resume=True
        ).run()
        assert resumed.n_failed == 0
        assert resumed.n_resumed == 0

    def test_fingerprint_mismatch_raises_checkpoint_error(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        ResilientRunner(make_sweep(1), journal_path=journal).run()
        other = make_sweep(2)
        with pytest.raises(CheckpointError):
            ResilientRunner(other, journal_path=journal, resume=True).run()

    def test_garbled_header_raises_checkpoint_error(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        journal.write_text("not json at all\n")
        with pytest.raises(CheckpointError):
            ResilientRunner(make_sweep(1), journal_path=journal, resume=True).run()

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        ResilientRunner(make_sweep(2), journal_path=journal).run()
        # Simulate a crash mid-write: chop the last line in half.
        text = journal.read_text()
        journal.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        summary = ResilientRunner(
            make_sweep(2), journal_path=journal, resume=True
        ).run()
        assert summary.n_ok == len(make_sweep(2).cases())

    def test_resume_without_journal_starts_fresh(self, tmp_path):
        journal = tmp_path / "missing.jsonl"
        summary = ResilientRunner(
            make_sweep(1), journal_path=journal, resume=True
        ).run()
        assert summary.n_ok == len(make_sweep(1).cases())
        assert journal.exists()


class TestNoLeakedWorkers:
    """A hung case costs a killed worker process, never a leaked thread."""

    def test_every_hang_is_killed_and_journaled(self, tmp_path, monkeypatch):
        """Two hung cases across two workers: each is killed
        max_retries + 1 times and journaled, nothing aborts, nothing
        outlives the run, and no crash budget or bisection is spent."""
        monkeypatch.setenv(CHAOS_ENV, "hang:uni-stc")
        journal = tmp_path / "hang.jsonl"
        threads = threading.active_count()
        obs.enable()
        try:
            summary = make_executor(journal, max_retries=0, workers=2,
                                    timeout_s=1.0).run()
            metrics = obs.metrics()
            assert metrics.counter("exec.worker_kills").total == 2
            assert metrics.counter("exec.cases_timed_out").total == 2
            assert metrics.counter("exec.worker_crashes").total == 0
            assert metrics.counter("exec.shards_bisected").total == 0
        finally:
            obs.disable()
        for outcome in summary.outcomes:
            if outcome.case.stc_name == "uni-stc":
                assert_timed_out(outcome, attempts=1)
            else:
                assert outcome.status == "ok"
        assert set(journal_entries(journal)) == {
            (o.case.matrix_name, o.case.stc_name) for o in summary.outcomes}
        assert leaked_workers(str(journal) + ".d") == []
        assert threading.active_count() == threads

    def test_hangs_never_abort_the_sweep(self, tmp_path, monkeypatch):
        """However many cases hang, the run returns with every one of
        them journaled as a timeout; no hang budget aborts the sweep."""
        monkeypatch.setenv(CHAOS_ENV, "hang:spmv")
        journal = tmp_path / "hang.jsonl"
        summary = make_executor(journal, max_retries=0, workers=2,
                                timeout_s=0.5).run()
        assert summary.n_failed == len(summary.outcomes) == 4
        for outcome in summary.outcomes:
            assert_timed_out(outcome, attempts=1)
        assert len(journal_entries(journal)) == 4
        assert leaked_workers(str(journal) + ".d") == []

    def test_deadline_kill_warning_names_the_case(
            self, tmp_path, monkeypatch, caplog):
        monkeypatch.setenv(CHAOS_ENV, "hang:m1/ds-stc")
        journal = tmp_path / "hang.jsonl"
        with caplog.at_level("WARNING", logger="repro.exec.supervisor"):
            make_executor(journal, max_retries=0, timeout_s=1.0).run()
        kills = [r.getMessage() for r in caplog.records
                 if "deadline" in r.getMessage()
                 and r.getMessage().startswith("killing")]
        assert len(kills) == 1
        assert "(m1, spmv, ds-stc)" in kills[0]


class TestJournalHardening:
    def test_interior_garbled_line_raises_with_line_number(self, tmp_path):
        """Only a truncated *final* line is crash debris; garble in the
        middle means corruption and must not be silently skipped."""
        journal = tmp_path / "sweep.jsonl"
        ResilientRunner(make_sweep(3), journal_path=journal).run()
        lines = journal.read_text().splitlines()
        lines[2] = '{"case": {"matrix": "m1", "ker'
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="line 3"):
            ResilientRunner(make_sweep(3), journal_path=journal,
                            resume=True).run()

    def test_garbled_non_final_line_with_valid_tail_raises(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        ResilientRunner(make_sweep(2), journal_path=journal).run()
        lines = journal.read_text().splitlines()
        lines[1], lines[2] = "%% flipped bits %%", lines[2]
        journal.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="line 2"):
            ResilientRunner(make_sweep(2), journal_path=journal,
                            resume=True).run()


class TestCacheIntegration:
    def test_corrupt_cache_warns_and_rebuilds(self, tmp_path, caplog):
        """A corrupt store segment is quarantined with a logged error;
        the sweep neither aborts nor trusts it, and rebuilds cold."""
        root = tmp_path / "blocks"
        with ResultStore(root) as store, engine.store_tier(store):
            ResilientRunner(make_sweep(1)).run()
        (segment,) = (root / "segments").glob("*.seg")
        blob = bytearray(segment.read_bytes())
        blob[-1] ^= 0xFF  # inside the last record's payload: CRC mismatch
        segment.write_bytes(bytes(blob))
        engine.clear_cache()
        with caplog.at_level("ERROR", logger="repro.store.resultstore"):
            with ResultStore(root) as store, engine.store_tier(store):
                summary = ResilientRunner(make_sweep(1)).run()
                assert store.stats.quarantined == 1
        assert summary.n_failed == 0
        assert any("quarantined segment" in r.message for r in caplog.records)
        # The cold rebuild wrote through to a fresh, clean segment.
        with ResultStore(root) as store:
            assert len(store) > 0
            assert store.verify()["errors"] == []


class TestCorpusCLI:
    def test_resume_requires_checkpoint(self, capsys):
        assert main(["corpus", "--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_corpus_with_resilience_flags(self, tmp_path, capsys):
        journal = tmp_path / "corpus.jsonl"
        args = ["corpus", "--limit", "2", "--kernel", "spmv",
                "--stc", "ds-stc,uni-stc", "--checkpoint", str(journal),
                "--timeout", "60", "--max-retries", "2"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "Aver P" in first
        assert journal.exists()
        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "resumed" in second
        # The comparison table is reproduced exactly from the journal.
        assert first.splitlines()[-1] == second.splitlines()[-1]
