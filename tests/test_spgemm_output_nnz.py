"""Row-bitset SpGEMM output nnz against the flop-expansion oracle.

``repro.sim.memory.spgemm_output_nnz`` ORs packed B rows per A row and
popcounts; ``tests.oracles.spgemm_output_nnz_flops`` expands every
structural flop to a coordinate key and counts distinct keys.  The two
must agree exactly on the operands the graph runner prices, on edge
shapes, and on the multi-window and chunk-edge paths; memory must stay
bounded by the nonzeros.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.apps.gnn import propagation_graph
from repro.formats import BBCMatrix, COOMatrix, CSRMatrix
from repro.graph.build import dnn_graph
from repro.sim import memory
from repro.sim.memory import spgemm_output_nnz
from repro.workloads.synthetic import banded, long_rows, random_uniform
from tests.oracles import spgemm_output_nnz_flops


def _assert_matches(a, b=None):
    got = spgemm_output_nnz(a, b)
    assert got == spgemm_output_nnz_flops(a, b)
    return got


def _coo(shape, rows, cols):
    rows, cols = np.asarray(rows), np.asarray(cols)
    return BBCMatrix.from_coo(COOMatrix(shape, rows, cols, np.ones(rows.size)))


@pytest.mark.parametrize("request_id", [0, 1])
def test_resnet50_conv_operands(request_id):
    graph = dnn_graph("resnet50")
    convs = [node for node in graph.nodes if node.kernel == "spgemm"]
    assert convs
    for node in convs:
        assert _assert_matches(node.a, node.operand_kwargs(request_id)["b"]) > 0


def test_gnn_two_hop_operand():
    adjacency = CSRMatrix.from_coo(random_uniform(128, 128, 0.06, seed=9))
    (node,) = [n for n in propagation_graph(adjacency).nodes
               if n.kernel == "spgemm"]
    _assert_matches(node.a, node.operand_kwargs(0).get("b"))


@pytest.mark.parametrize("a_coo,b_coo", [
    (random_uniform(64, 80, 0.05, seed=1), random_uniform(80, 48, 0.08, seed=2)),
    (banded(96, 8, 0.6, seed=3), banded(96, 12, 0.4, seed=4)),
    (long_rows(64, heavy_rows=2, seed=5), random_uniform(64, 64, 0.02, seed=6)),
    (random_uniform(64, 64, 0.0, seed=1), random_uniform(64, 64, 0.2, seed=2)),
    (random_uniform(64, 64, 0.2, seed=2), random_uniform(64, 64, 0.0, seed=1)),
])
def test_memory_encoding_cases(a_coo, b_coo):
    _assert_matches(BBCMatrix.from_coo(a_coo), BBCMatrix.from_coo(b_coo))


def test_squares_default_to_a(rng):
    _assert_matches(BBCMatrix.from_coo(banded(64, 8, 0.5, seed=7)))
    dense = np.zeros((512, 512))
    dense[0, :] = 1.0
    dense[:, 0] = 1.0
    assert _assert_matches(BBCMatrix.from_dense(dense)) >= 512
    da = rng.random((40, 40)) * (rng.random((40, 40)) < 0.2)
    _assert_matches(BBCMatrix.from_dense(da))


@pytest.mark.parametrize("width", [1, 7, 13, 63, 65, 100])
def test_odd_widths_with_empty_rows_and_columns(width):
    rng = np.random.default_rng(width)
    a = rng.random((37, 29)) < 0.2
    b = rng.random((29, width)) < 0.3
    a[[0, 5, 36]] = False           # empty A rows
    a[:, [3, 11]] = False           # empty A columns
    b[[4, 11, 28]] = False          # empty B rows (one meets an empty A column)
    b[:, 0] = False                 # empty B column
    _assert_matches(BBCMatrix.from_dense(a * 1.0), BBCMatrix.from_dense(b * 1.0))


def test_wide_b_spans_several_windows():
    rng = np.random.default_rng(3)
    a = _coo((48, 40), rng.integers(0, 48, 300), rng.integers(0, 40, 300))
    b = _coo((40, 50_000), rng.integers(0, 40, 12_000),
             rng.integers(0, 50_000, 12_000))
    _assert_matches(a, b)


def test_rows_cut_by_the_gather_cap(monkeypatch):
    """A cap of a few entries splits A rows across chunks; the carried
    partial unions must merge, not double count."""
    a = BBCMatrix.from_coo(long_rows(64, heavy_rows=3, seed=8))
    b = BBCMatrix.from_coo(random_uniform(64, 72, 0.1, seed=9))
    want = spgemm_output_nnz_flops(a, b)
    for cap in (9, 27, 50):
        monkeypatch.setattr(memory, "_GATHER_BYTES", cap)
        assert spgemm_output_nnz(a, b) == want


def test_memory_stays_bounded_by_the_nonzeros():
    """A 16 x 2**20 operand with a few hundred nonzeros: a dense
    rows x cols array (16 MiB as bytes) must never be built."""
    rng = np.random.default_rng(4)
    wide = _coo((16, 1 << 20), rng.integers(0, 16, 400),
                rng.integers(0, 1 << 20, 400))
    tall = _coo((1 << 20, 16), rng.integers(0, 1 << 20, 400),
                rng.integers(0, 16, 400))
    square = _coo((16, 16), rng.integers(0, 16, 60), rng.integers(0, 16, 60))
    for a, b in ((square, wide), (wide, tall)):
        want = spgemm_output_nnz_flops(a, b)
        tracemalloc.start()
        try:
            got = spgemm_output_nnz(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 4 << 20
