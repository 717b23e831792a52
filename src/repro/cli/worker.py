"""The ``worker`` subcommand: one supervised campaign-shard process.

Not meant for humans: ``repro worker --spec FILE`` is the command line
the :class:`~repro.exec.CampaignExecutor` supervisor spawns per shard.
It reads a self-describing :class:`~repro.exec.ShardSpec`, runs the
shard through the resilient runner (resuming from the shard's own
journal if the process is a respawn), stamps each case attempt into
its heartbeat file so the supervisor can enforce ``--timeout`` by
killing it, and reports through the exit codes documented in
:mod:`repro.exec.worker` (0 complete, 2 error).
"""

from __future__ import annotations

import argparse

from repro.exec import worker_main
from repro.runtime import RunSpec, Session


def cmd_worker(args: argparse.Namespace, session: Session) -> int:
    return worker_main(args.spec)


def register(sub: argparse._SubParsersAction) -> None:
    worker_cmd = sub.add_parser(
        "worker",
        help="run one campaign shard (spawned by the exec supervisor)",
    )
    worker_cmd.add_argument(
        "--spec", required=True, metavar="FILE",
        help="shard spec JSON written by the supervisor",
    )
    # Workers keep their own journals/metrics per the shard spec; the
    # supervisor owns the campaign manifest, so none is written here.
    worker_cmd.set_defaults(
        func=cmd_worker,
        make_spec=lambda a: RunSpec(
            command="worker", params={"spec": a.spec}, manifest_dir=""),
    )
