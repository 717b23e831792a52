"""Robustness subsystem: fault-tolerant sweeps and fault injection.

Two halves, mirroring how long-running analytical simulators (the
Sparseloop / SCALE-Sim service model) stay usable at corpus scale:

- :mod:`repro.resilience.runner` — executes a
  :class:`~repro.sim.sweep.Sweep` case by case with bounded retry
  (exponential backoff + jitter), a structured error taxonomy, and a
  JSONL checkpoint journal that lets an interrupted sweep resume
  without re-simulating finished cases.  Per-case deadlines are the
  campaign supervisor's job (:mod:`repro.exec`).
- :mod:`repro.resilience.faults` — a deterministic, seeded
  :class:`FaultInjector` that corrupts BBC bitmaps/metadata/values,
  drops or duplicates T1 tasks, and poisons cached block results, then
  classifies every injected fault as *detected*, *masked*, or *silent
  data corruption* using :meth:`BBCMatrix.validate` plus numerical
  cross-checks against the golden reference kernels.
"""

from repro.resilience.faults import (
    FAULT_KINDS,
    CampaignReport,
    FaultInjector,
    FaultOutcome,
    InjectedFault,
    run_campaign,
)
from repro.resilience.runner import (
    CaseFailure,
    CaseOutcome,
    ResilientRunner,
    RetryPolicy,
    RunSummary,
    case_key,
    classify_error,
    grid_fingerprint,
    journal_header,
    read_journal,
)

__all__ = [
    "FAULT_KINDS",
    "CampaignReport",
    "CaseFailure",
    "CaseOutcome",
    "FaultInjector",
    "FaultOutcome",
    "InjectedFault",
    "ResilientRunner",
    "RetryPolicy",
    "RunSummary",
    "case_key",
    "classify_error",
    "grid_fingerprint",
    "journal_header",
    "read_journal",
    "run_campaign",
]
