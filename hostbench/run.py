"""Host benchmark of the Uni-STC reproduction's simulator.

Run from the repository root::

    python3 hostbench/run.py --workload corpus-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports per-layer self times (and writes a
Chrome trace under ``.hostbench/``).  The last line of standard output
is the JSON result.  See ``hostbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus-cold", "store-replay", "infer-batch"))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the corpus's default seed)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the simulator's source is missing ({SRC / 'repro'}); "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from hostbench.bench import run_workload
    from hostbench.workloads import DEFAULT_SEED

    seed = DEFAULT_SEED if args.seed is None else args.seed
    result = run_workload(args.workload, seed=seed, seconds=args.seconds,
                          trace=bool(args.trace), root=ROOT)
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
