"""Multi-process campaign execution: shards, workers, supervision.

The job-queue executor layered on the RunSpec/Session runtime.  A
campaign (a corpus sweep or a DSE batch) is sharded into
self-describing :class:`ShardSpec` files, dispatched to a pool of
``repro worker`` subprocesses, and supervised with heartbeats, bounded
crash retry, poison-shard bisection down to the single offending
case, and the campaign's one timeout mechanism: a per-case deadline
(``ExecPolicy.timeout_s``, the ``--timeout`` flag) enforced by killing
the worker process.
Per-worker checkpoint journals and obs metric snapshots merge back
deterministically, preserving the runner's zero-re-simulation resume
and the campaign's byte-deterministic artifacts.

``ExecPolicy(workers=0)`` — the default — degrades to the plain
in-process :class:`~repro.resilience.runner.ResilientRunner` path
with identical results; a deadline alone (``workers=0, timeout_s>0``)
runs the campaign on one supervised worker.  See
``docs/robustness.md``.
"""

from repro.exec.journal import (
    MergeStats,
    merge_journals,
    read_raw_journal,
    strip_wallclock,
)
from repro.exec.shard import (
    SHARD_SCHEMA,
    CaseListSweep,
    ShardSpec,
    StcDef,
    shard_cases,
)
from repro.exec.supervisor import CampaignExecutor, ExecPolicy
from repro.exec.worker import (
    EXIT_ERROR,
    EXIT_OK,
    Heartbeat,
    run_shard,
    worker_main,
)

__all__ = [
    "CampaignExecutor",
    "CaseListSweep",
    "EXIT_ERROR",
    "EXIT_OK",
    "ExecPolicy",
    "Heartbeat",
    "MergeStats",
    "SHARD_SCHEMA",
    "ShardSpec",
    "StcDef",
    "merge_journals",
    "read_raw_journal",
    "run_shard",
    "shard_cases",
    "strip_wallclock",
    "worker_main",
]
