"""Record the golden digests the benchmark checks at the default seed.

Run from the repository root, only when a change is meant to alter the
simulated numbers::

    PYTHONPATH=src python3 -m hostbench.record_golden

One pass of ``corpus-cold`` and of ``infer-batch`` at the default seed
and sizes covers every check id; ``store-replay``'s cases are
``corpus-cold``'s uni-stc cases.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hostbench.bench import GOLDEN_PATH
from hostbench.workloads import DEFAULT_SEED, Config, CorpusCold, InferBatch


def record() -> dict:
    digests = {}
    scratch = Path.cwd() / ".hostbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for cls in (CorpusCold, InferBatch):
            workload = cls(DEFAULT_SEED, Config(), Path(tmp))
            workload.setup()
            result = workload.run_pass()
            workload.teardown()
            for case, checks in zip(result.cases, result.checks):
                if case.error is not None:
                    raise RuntimeError(f"{case.cid} raised: {case.error}")
                digests.update(checks)
    return {"seed": DEFAULT_SEED, "digests": dict(sorted(digests.items()))}


if __name__ == "__main__":
    doc = record()
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(doc['digests'])} digests to {GOLDEN_PATH}")
