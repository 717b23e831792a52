"""The ``bench`` subcommand: hot-path microbenchmarks."""

from __future__ import annotations

import argparse
import sys

from repro.cli.common import add_obs_flags, add_run_flags, make_spec
from repro.runtime import Session


def cmd_bench(args: argparse.Namespace, session: Session) -> int:
    """Hot-path microbenchmarks: encode, enumeration, corpus sweep."""
    from repro.perf.bench import render_summary, run_bench

    report = run_bench(
        out=args.out or None,
        smoke=args.smoke,
        corpus_limit=args.corpus_limit or None,
        repeat=args.repeat,
    )
    print(render_summary(report))
    if args.out:
        print(f"\nwrote {args.out}")
    store, infer = report["store"], report["infer"]
    if not store["reports_identical"]:
        bad = ", ".join(store["report_mismatches"][:5])
        print(f"error: cold, store-less, store and LRU per-case reports "
              f"diverge ({bad})", file=sys.stderr)
        session.fail("cold, store-less, store and LRU per-case reports diverge")
        return 1
    if infer["model_digest"] != infer["store"]["model_digest"]:
        print("error: batched and store-replay inference digests differ",
              file=sys.stderr)
        session.fail("batched and store-replay inference digests differ")
        return 1
    return 0


def register(sub: argparse._SubParsersAction) -> None:
    bench = sub.add_parser(
        "bench", help="hot-path microbenchmarks (encode / enumeration / sweep)"
    )
    bench.add_argument("--out", default="", help="write the JSON report here")
    bench.add_argument(
        "--smoke", action="store_true",
        help="tiny corpus, one repetition — structure check only",
    )
    bench.add_argument(
        "--corpus-limit", type=int, default=0,
        help="cap on corpus matrices (0 = the full bench corpus)",
    )
    bench.add_argument(
        "--repeat", type=int, default=3,
        help="repetitions per timing (best-of, default 3)",
    )
    add_obs_flags(bench)
    add_run_flags(bench)
    bench.set_defaults(
        func=cmd_bench,
        make_spec=lambda a: make_spec(
            a, "bench",
            {"smoke": a.smoke, "corpus_limit": a.corpus_limit,
             "repeat": a.repeat}),
    )
