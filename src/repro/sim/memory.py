"""Off-core memory traffic and roofline analysis.

The paper's simulator sits on Accel-Sim "with added support for
asynchronous memory access": compute cycles only matter when the
memory system can feed them.  This module estimates the global-memory
traffic of each kernel invocation from the exact BBC/operand byte
sizes, converts it to memory cycles under a configurable per-core
bandwidth, and classifies the invocation as compute- or memory-bound —
the roofline view that explains, e.g., why SpMV speedups saturate on
very sparse matrices.

Bandwidth default: an A100 moves ~1.56 TB/s at 1.41 GHz across 108 SMs
with 4 tensor-core slots each -> ~2.5 bytes/cycle per Uni-STC slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.formats.bbc import BBCMatrix
from repro.kernels.vector import SparseVector
from repro.sim.results import SimReport

#: Bytes per FP64 value.
_VALUE_BYTES = 8

#: DRAM access energy per byte (pJ).  HBM2-class parts land around
#: 2.5 pJ/bit device-side; with the PHY/controller the per-byte system
#: cost is ~20 pJ — the figure end-to-end model energy uses to price
#: edge traffic that spills off chip.
DRAM_PJ_PER_BYTE = 20.0


@dataclass(frozen=True)
class MemoryConfig:
    """Per-core bandwidth model."""

    bytes_per_cycle: float = 2.5

    def __post_init__(self) -> None:
        if self.bytes_per_cycle <= 0:
            raise ConfigError("bandwidth must be positive")


DEFAULT_MEMORY = MemoryConfig()


def kernel_traffic_bytes(
    kernel: str,
    a: BBCMatrix,
    b: Optional[BBCMatrix] = None,
    b_cols: int = 64,
    x: Optional[SparseVector] = None,
    c_writes: Optional[float] = None,
    resident: Iterable[str] = (),
) -> Dict[str, float]:
    """Global-memory bytes one kernel invocation moves.

    - reading A: its full BBC encoding (values + metadata);
    - reading B: the dense operand bytes (SpMM), the second matrix's
      encoding (SpGEMM), or the vector (SpMV/SpMSpV);
    - writing C: one value+index per produced output element
      (``c_writes``, normally taken from the simulated report).

    ``resident`` names traffic components served by the on-chip edge
    buffer instead of DRAM: the graph runner's buffer plan passes
    ``{"read_b"}`` when the consumed activation stayed resident and
    ``{"write_c"}`` when the produced one will — those components are
    zeroed (the bytes never cross the memory bus).  A is never
    resident: weights and adjacency structures stream from DRAM.
    """
    kernel = kernel.lower()
    traffic = {"read_a": float(a.storage_bytes())}
    if kernel == "spmv":
        traffic["read_b"] = float(a.shape[1] * _VALUE_BYTES)
    elif kernel == "spmspv":
        if x is None:
            raise ShapeError("spmspv traffic needs the sparse vector x")
        traffic["read_b"] = float(x.nnz * (_VALUE_BYTES + 4))
    elif kernel == "spmm":
        traffic["read_b"] = float(a.shape[1] * b_cols * _VALUE_BYTES)
    elif kernel == "spgemm":
        other = b if b is not None else a
        traffic["read_b"] = float(other.storage_bytes())
    else:
        raise ShapeError(f"unknown kernel {kernel!r}")
    if c_writes is None:
        c_writes = 0.0
    traffic["write_c"] = float(c_writes) * (_VALUE_BYTES + 4)
    for component in resident:
        if component == "read_a":
            raise ShapeError("operand A always streams from DRAM; "
                             "only read_b/write_c can be resident")
        if component not in traffic:
            raise ShapeError(f"unknown traffic component {component!r}")
        traffic[component] = 0.0
    return traffic


def dram_energy_pj(traffic: Dict[str, float]) -> float:
    """DRAM access energy (pJ) for one invocation's traffic dict."""
    return sum(traffic.values()) * DRAM_PJ_PER_BYTE


#: popcount of every byte value.
_POPCOUNT8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)

#: Columns (bits) per window of B's row bitsets: 512 bytes per row.
_WINDOW_BITS = 4096

#: Cap on the bytes of one gathered ``[entries, words]`` bitset block.
_GATHER_BYTES = 1 << 22


def spgemm_output_nnz(a: BBCMatrix, b: Optional[BBCMatrix] = None) -> int:
    """Exact structural nnz of C = A @ B (boolean product).

    Used for SpGEMM write-back traffic: partial products accumulate
    on-chip, so only the final output elements cross to memory.

    Row ``i`` of C is the union of the B rows that row ``i`` of A
    selects.  B's occupied rows are packed into bit words, each A row's
    selected rows are OR-reduced with ``np.bitwise_or.reduceat``, and the
    unions are popcounted.  A B wider than :data:`_WINDOW_BITS` is
    ranked down to its occupied columns and packed that many columns at
    a time, and A's entries are gathered in chunks of at most
    :data:`_GATHER_BYTES`, so memory is bounded by the operands'
    nonzeros — never a dense rows x cols array, which would make the
    large end of the corpus a crash waiting to happen.
    """
    other = b if b is not None else a
    if a.shape[1] != other.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {other.shape}")
    a_rows, a_cols = a.structural_coords()
    b_rows, b_cols = other.structural_coords()
    if a_rows.size == 0 or b_rows.size == 0:
        return 0
    order = np.argsort(a_rows)
    a_rows, a_cols = a_rows[order], a_cols[order]
    if other.shape[1] <= _WINDOW_BITS:
        return _window_output_nnz(a_rows, a_cols, b_rows, b_cols)
    # Wide B: rank its occupied columns (distinct columns stay distinct,
    # so the nnz is unchanged) and take the ranks a window at a time.
    order = np.argsort(b_cols)
    b_rows, b_cols = b_rows[order], b_cols[order]
    b_cols = np.cumsum(np.diff(b_cols, prepend=b_cols[0]) != 0)
    windows = int(b_cols[-1]) // _WINDOW_BITS + 1
    bounds = np.searchsorted(b_cols, np.arange(windows + 1) * _WINDOW_BITS)
    return sum(
        _window_output_nnz(a_rows, a_cols, b_rows[lo:hi],
                           b_cols[lo:hi] - w * _WINDOW_BITS)
        for w, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
    )


def _window_output_nnz(
    a_rows: np.ndarray, a_cols: np.ndarray, b_rows: np.ndarray, b_cols: np.ndarray
) -> int:
    """Output nnz of A (row-sorted entries) times one column window of B."""
    packed_rows, slot = np.unique(b_rows, return_inverse=True)
    words = int(b_cols.max()) // 8 + 1
    # (row, column) pairs are distinct, so each byte is a sum of
    # distinct bit weights (<= 255, exact in bincount's float64).
    packed = np.bincount(
        slot * words + (b_cols >> 3),
        weights=np.left_shift(1, b_cols & 7),
        minlength=packed_rows.size * words,
    ).astype(np.uint8).reshape(packed_rows.size, words)
    pos = np.minimum(np.searchsorted(packed_rows, a_cols), packed_rows.size - 1)
    hit = packed_rows[pos] == a_cols
    rows, slots = a_rows[hit], pos[hit]
    total = 0
    # The last row of a chunk may continue into the next one, so its
    # union is carried and counted once the row is complete.
    carry_row, carry = -1, np.zeros(words, dtype=np.uint8)
    step = max(1, _GATHER_BYTES // words)
    for lo in range(0, rows.size, step):
        r = rows[lo:lo + step]
        heads = np.flatnonzero(np.diff(r, prepend=-1))
        merged = np.bitwise_or.reduceat(packed[slots[lo:lo + step]], heads, axis=0)
        if r[0] == carry_row:
            merged[0] |= carry
        else:
            total += int(_POPCOUNT8[carry].sum())
        carry_row, carry = r[-1], merged[-1]
        total += int(_POPCOUNT8[merged[:-1]].sum(dtype=np.int64))
    return total + int(_POPCOUNT8[carry].sum())


def memory_cycles(traffic: Dict[str, float], config: MemoryConfig = DEFAULT_MEMORY) -> int:
    """Cycles needed to move the given traffic at the configured bandwidth.

    Zero traffic costs zero cycles (an empty invocation moves nothing);
    any positive traffic costs at least one cycle (ceiling division).
    """
    total = sum(traffic.values())
    if total <= 0:
        return 0
    return max(1, int(-(-total // config.bytes_per_cycle)))


@dataclass
class RooflineReport:
    """Compute-vs-memory classification of one kernel invocation."""

    kernel: str
    stc: str
    compute_cycles: int
    memory_cycles: int
    traffic_bytes: float
    products: int = 0

    @property
    def bound(self) -> str:
        """"compute" or "memory" — whichever dominates."""
        return "compute" if self.compute_cycles >= self.memory_cycles else "memory"

    @property
    def effective_cycles(self) -> int:
        """Wall cycles with perfect compute/memory overlap."""
        return max(self.compute_cycles, self.memory_cycles)

    @property
    def arithmetic_intensity(self) -> float:
        """Useful MACs per byte moved.

        ``products`` (the effective multiply count the simulator
        conserves across architectures) over the bytes moved — not
        cycles per byte, which would make a *slower* architecture look
        more "intense" on the same workload.
        """
        return self.products / self.traffic_bytes if self.traffic_bytes else 0.0


def roofline(
    report: SimReport,
    a: BBCMatrix,
    b: Optional[BBCMatrix] = None,
    b_cols: int = 64,
    x: Optional[SparseVector] = None,
    config: MemoryConfig = DEFAULT_MEMORY,
) -> RooflineReport:
    """Combine a simulated report with its memory traffic.

    SpGEMM write-back uses the exact structural nnz of C (partials
    accumulate on-chip); the other kernels write one element per
    simulated output write.
    """
    if report.kernel == "spgemm":
        c_writes = float(spgemm_output_nnz(a, b))
    else:
        c_writes = report.counters.get("c_elem_writes")
    traffic = kernel_traffic_bytes(
        report.kernel, a, b=b, b_cols=b_cols, x=x, c_writes=c_writes,
    )
    return RooflineReport(
        kernel=report.kernel,
        stc=report.stc,
        compute_cycles=report.cycles,
        memory_cycles=memory_cycles(traffic, config),
        traffic_bytes=sum(traffic.values()),
        products=report.products,
    )
