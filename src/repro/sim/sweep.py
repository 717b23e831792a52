"""Declarative experiment sweeps: (matrix x STC x kernel) grids.

The benchmark harness hand-writes its fan-outs; this module gives
downstream users the same capability as a library: declare a grid of
cases, run it (with the engine's memoisation shared across cases), and
get tidy rows ready for :mod:`repro.analysis.tables`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro import obs
from repro.arch.base import STCModel
from repro.errors import SimulationError
from repro.formats.bbc import BBCMatrix
from repro.formats.coo import COOMatrix
from repro.kernels.vector import SparseVector
from repro.registry import stc_factory
from repro.sim.engine import simulate_kernel
from repro.sim.results import SimReport, geomean


@dataclass(frozen=True)
class SweepCase:
    """One (matrix, STC, kernel) cell of a sweep grid."""

    matrix_name: str
    stc_name: str
    kernel: str


@dataclass
class SweepResult:
    """One executed cell."""

    case: SweepCase
    report: SimReport


@dataclass
class Sweep:
    """A configured sweep grid.

    ``matrices`` maps names to COO matrices; ``stcs`` maps names to
    zero-argument model factories; ``kernels`` lists kernel names.
    SpMSpV operands are generated at 50% sparsity unless supplied via
    ``spmspv_operands``.
    """

    matrices: Dict[str, COOMatrix]
    stcs: Dict[str, Callable[[], STCModel]]
    kernels: Sequence[str]
    spmspv_operands: Dict[str, SparseVector] = field(default_factory=dict)
    _encoded: Dict[str, BBCMatrix] = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def from_names(
        cls,
        matrices: Dict[str, COOMatrix],
        stc_names: Sequence[str],
        kernels: Sequence[str],
        spmspv_operands: Optional[Dict[str, SparseVector]] = None,
    ) -> "Sweep":
        """Build a grid with STCs resolved through the registry.

        ``stc_names`` are canonical registry names (``uni-stc``,
        ``ds-stc``, ...); each becomes a registry-bound factory, so the
        grid never captures model instances and an unknown name fails
        here with the registry's vocabulary error, not mid-sweep.
        """
        return cls(
            matrices=matrices,
            stcs={name: stc_factory(name) for name in stc_names},
            kernels=list(kernels),
            spmspv_operands=dict(spmspv_operands or {}),
        )

    def cases(self) -> List[SweepCase]:
        """Every cell of the grid, matrices outermost (cache-friendly)."""
        return [
            SweepCase(m, s, k)
            for m in self.matrices
            for k in self.kernels
            for s in self.stcs
        ]

    def _operand(self, name: str, bbc: BBCMatrix) -> SparseVector:
        if name in self.spmspv_operands:
            return self.spmspv_operands[name]
        import hashlib

        import numpy as np

        # A stable digest, NOT hash(): str hashing is salted per process,
        # and sharded multi-process sweeps must draw the same operand for
        # the same matrix in every worker.
        seed = int.from_bytes(
            hashlib.sha256(name.encode("utf-8")).digest()[:4], "big"
        )
        rng = np.random.default_rng(seed)
        dense = rng.random(bbc.shape[1]) * (rng.random(bbc.shape[1]) < 0.5)
        return SparseVector.from_dense(dense)

    def encode(self, matrix_name: str) -> BBCMatrix:
        """The BBC encoding of one matrix, memoised per sweep instance."""
        bbc = self._encoded.get(matrix_name)
        if bbc is None:
            if matrix_name not in self.matrices:
                raise SimulationError(f"unknown sweep matrix {matrix_name!r}")
            with obs.span("encode", matrix=matrix_name):
                bbc = BBCMatrix.from_coo(self.matrices[matrix_name])
            self._encoded[matrix_name] = bbc
        return bbc

    def run_case(self, case: SweepCase) -> SweepResult:
        """Execute a single grid cell independently of the others.

        This is the unit of work the fault-tolerant runner
        (:mod:`repro.resilience.runner`) retries and journals, and the
        campaign supervisor (:mod:`repro.exec`) puts a deadline on;
        encodings are shared across cases via :meth:`encode`.
        """
        if case.stc_name not in self.stcs:
            raise SimulationError(f"unknown sweep STC {case.stc_name!r}")
        with obs.span("matrix", matrix=case.matrix_name, stc=case.stc_name,
                      kernel=case.kernel):
            bbc = self.encode(case.matrix_name)
            kwargs = {}
            if case.kernel == "spmspv":
                kwargs["x"] = self._operand(case.matrix_name, bbc)
            report = simulate_kernel(
                case.kernel, bbc, self.stcs[case.stc_name](),
                matrix=case.matrix_name, **kwargs
            )
        return SweepResult(case=case, report=report)

    def run(self, progress: Optional[Callable[[SweepCase], None]] = None) -> List[SweepResult]:
        """Execute the whole grid; per-matrix encodings happen once."""
        results: List[SweepResult] = []
        with obs.span("sweep", cases=len(self.cases())):
            for case in self.cases():
                if progress is not None:
                    progress(case)
                results.append(self.run_case(case))
        return results


#: Column names matching :func:`rows_from_results`.
ROW_COLUMNS = ["matrix", "kernel", "stc", "cycles", "util", "energy_pj",
               "wall_s", "cache_hit_rate"]


def rows_from_results(results: Iterable[SweepResult]) -> List[List]:
    """Tidy rows (see :data:`ROW_COLUMNS`) for tables.

    ``wall_s`` and ``cache_hit_rate`` come straight off each
    :class:`SimReport` — attributing host time and block-cache
    behaviour per case without re-running anything.
    """
    return [
        [r.case.matrix_name, r.case.kernel, r.case.stc_name,
         r.report.cycles, r.report.mean_utilisation, r.report.energy_pj,
         r.report.wall_s, r.report.cache_hit_rate]
        for r in results
    ]


def geomean_speedups(
    results: Sequence[SweepResult], target: str, baseline: str
) -> Dict[str, float]:
    """Per-kernel geomean speedup of ``target`` over ``baseline``."""
    by_cell: Dict[SweepCase, SimReport] = {r.case: r.report for r in results}
    per_kernel: Dict[str, List[float]] = {}
    for case, report in by_cell.items():
        if case.stc_name != target:
            continue
        base_case = SweepCase(case.matrix_name, baseline, case.kernel)
        if base_case not in by_cell:
            raise SimulationError(f"baseline run missing for {base_case}")
        per_kernel.setdefault(case.kernel, []).append(
            report.speedup_vs(by_cell[base_case])
        )
    return {kernel: geomean(vals) for kernel, vals in per_kernel.items()}
