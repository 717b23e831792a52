"""Loop- and hash-based reference implementations for parity tests.

Each function here is the straightforward form of a quantity that
``src/`` computes in closed form over whole arrays; tests assert the two
agree exactly.  They live in the test tree so that each job has one code
path in the package.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Optional, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.formats.bbc import BBCMatrix


def pack_sequential(p: np.ndarray, num_dpgs: int, macs: int) -> Tuple[np.ndarray, int]:
    """Cycle ids of one block's ordered task stream under the MAC budget.

    The exact greedy rule of :meth:`TileMultiplyScheduler.dispatch` for
    conflict-free streams, one bisect per cycle: fill up to ``num_dpgs``
    tasks per cycle, and a task that would push the cycle past ``macs``
    products starts the next cycle.  Every task must satisfy
    ``p <= macs``.
    """
    cum = list(accumulate(p.tolist()))
    total = len(cum)
    cyc = np.empty(total, dtype=np.int64)
    pos = 0
    cycle = 0
    while pos < total:
        budget = (cum[pos - 1] if pos else 0) + macs
        fit = bisect_right(cum, budget)
        nxt = min(pos + num_dpgs, fit)
        cyc[pos:nxt] = cycle
        cycle += 1
        pos = nxt
    return cyc, cycle


#: popcount of every 4-bit value (dot patterns are 4-bit masks).
_POP4 = np.array([bin(v).count("1") for v in range(16)], dtype=np.int64)

#: 16-bit tile bitmap (weight ``1 << (4 * row + col)``) -> its four
#: 4-bit row masks / column masks.
_ROW_MASKS = (np.arange(65536)[:, None] >> (4 * np.arange(4))) & 0xF
_COL_MASKS = np.zeros((65536, 4), dtype=np.int64)
for _n in range(4):
    for _k in range(4):
        _COL_MASKS[:, _n] |= ((np.arange(65536) >> (4 * _k + _n)) & 1) << _k
del _n, _k


def dpg_stats_per_task(
    a_tile_bitmaps: np.ndarray, b_tile_bitmaps: np.ndarray, n_cols: int
) -> np.ndarray:
    """Per-T3-task :func:`~repro.arch.dpg.dpg_stats` over flat arrays.

    Returns ``[T, 6]`` in :data:`~repro.arch.dpg.DPG_STAT_FIELDS` order,
    from the 4-bit dot patterns ``pattern[m][n] = a_row[m] & b_col[n]``:

    - ``a_elem_fetches``: per column-pair group and row, the popcount
      of the union of the group's patterns;
    - ``b_elem_fetches``: per column, ``popcount(b_col & union of all
      a_row)``;
    - broadcasts: total pattern popcount; T4 tasks and C writes: the
      number of nonzero patterns.
    """
    a_rows = _ROW_MASKS[a_tile_bitmaps]                          # [T, m]
    if n_cols == 4:
        b_cols = _COL_MASKS[b_tile_bitmaps]                      # [T, n]
    else:
        b_cols = (np.asarray(b_tile_bitmaps) & 0xF)[:, None]
    pat = a_rows[:, :, None] & b_cols[:, None, :]                # [T, m, n]
    t4 = np.count_nonzero(pat, axis=(1, 2))
    casts = _POP4[pat].sum(axis=(1, 2))
    union_a = a_rows[:, 0] | a_rows[:, 1] | a_rows[:, 2] | a_rows[:, 3]
    b_fetch = _POP4[b_cols & union_a[:, None]].sum(axis=1)
    if n_cols == 4:
        a_fetch = (
            _POP4[pat[:, :, 0] | pat[:, :, 1]].sum(axis=1)
            + _POP4[pat[:, :, 2] | pat[:, :, 3]].sum(axis=1)
        )
    else:
        a_fetch = _POP4[pat[:, :, 0]].sum(axis=1)
    return np.stack([t4, a_fetch, b_fetch, casts, casts, t4], axis=1)


def _csr_structure(m: BBCMatrix):
    """(row_ptr, col_idx) of the structural CSR, decoded sparsely."""
    rows, cols = m.structural_coords()
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    row_ptr = np.zeros(m.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=m.shape[0]), out=row_ptr[1:])
    return row_ptr, cols


def spgemm_output_nnz_flops(a: BBCMatrix, b: Optional[BBCMatrix] = None) -> int:
    """Structural nnz of ``A @ B`` by flop expansion.

    Every structural flop ``(A[i,k] != 0, B[k,j] != 0)`` becomes an int64
    output-coordinate key and distinct keys are counted.
    """
    other = b if b is not None else a
    if a.shape[1] != other.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {other.shape}")
    a_rows, a_cols = a.structural_coords()
    if a_rows.size == 0:
        return 0
    b_row_ptr, b_cols = _csr_structure(other)
    counts = b_row_ptr[a_cols + 1] - b_row_ptr[a_cols]
    keep = counts > 0
    if not np.any(keep):
        return 0
    a_rows, a_cols, counts = a_rows[keep], a_cols[keep], counts[keep]
    ends = np.cumsum(counts)
    offsets = np.arange(int(ends[-1]), dtype=np.int64) - np.repeat(ends - counts, counts)
    out_cols = b_cols[np.repeat(b_row_ptr[a_cols], counts) + offsets]
    out_rows = np.repeat(a_rows, counts)
    keys = out_rows * np.int64(other.shape[1]) + out_cols
    return int(np.unique(keys).size)
