"""Shared fixtures for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.arch.config import FP32, FP64
from repro.arch.unistc import UniSTC
from repro.baselines import DsSTC, Gamma, NvDTC, RmSTC, Sigma, Trapezoid
from repro.formats import BBCMatrix, COOMatrix, CSRMatrix
from repro.workloads.synthetic import banded, poisson2d, random_uniform


def leaked_workers(fragment) -> list:
    """PIDs of live processes whose cmdline mentions ``fragment``."""
    pids = []
    for pid in Path("/proc").iterdir():
        if not pid.name.isdigit():
            continue
        try:
            cmdline = (pid / "cmdline").read_bytes()
        except OSError:
            continue
        if str(fragment).encode() in cmdline:
            pids.append(pid.name)
    return pids


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_dense(rng):
    """A 40x56 dense array with ~25% occupancy."""
    return rng.random((40, 56)) * (rng.random((40, 56)) < 0.25)


@pytest.fixture
def small_coo(small_dense):
    return COOMatrix.from_dense(small_dense)


@pytest.fixture
def small_csr(small_coo):
    return CSRMatrix.from_coo(small_coo)


@pytest.fixture
def small_bbc(small_coo):
    return BBCMatrix.from_coo(small_coo)


@pytest.fixture(scope="session")
def poisson_csr():
    return CSRMatrix.from_coo(poisson2d(16))


@pytest.fixture(scope="session")
def banded_bbc():
    """A medium banded matrix shared by simulator tests."""
    return BBCMatrix.from_coo(banded(128, 12, 0.5, seed=3))


@pytest.fixture(scope="session")
def random_bbc():
    return BBCMatrix.from_coo(random_uniform(128, 128, 0.05, seed=4))


@pytest.fixture(scope="session")
def smoke_cases():
    """The ``repro bench --smoke`` cases: 4 corpus matrices x 4 kernels."""
    from repro.kernels import KERNELS
    from repro.perf.bench import _operands_for
    from repro.workloads.suitesparse import corpus

    mats = [(spec.name, BBCMatrix.from_coo(spec.matrix()))
            for spec in corpus(sizes=(128,), limit=4)]
    return [(name, bbc, kernel, _operands_for(kernel, bbc, seed=i))
            for i, (name, bbc) in enumerate(mats) for kernel in KERNELS]


@pytest.fixture
def uni():
    return UniSTC()


@pytest.fixture(params=["nv-dtc", "gamma", "sigma", "trapezoid", "ds-stc", "rm-stc", "uni-stc"])
def any_stc(request):
    """Every simulated architecture, FP64."""
    return {
        "nv-dtc": NvDTC,
        "gamma": Gamma,
        "sigma": Sigma,
        "trapezoid": Trapezoid,
        "ds-stc": DsSTC,
        "rm-stc": RmSTC,
        "uni-stc": UniSTC,
    }[request.param]()


@pytest.fixture(params=[FP64, FP32])
def precision(request):
    return request.param


def make_block_task(a_density: float, b_density: float, seed: int = 0, n: int = 16):
    """Helper used across simulator tests: a random T1 task."""
    from repro.arch.tasks import T1Task

    gen = np.random.default_rng(seed)
    a = gen.random((16, 16)) < a_density
    b = gen.random((16, n)) < b_density
    return T1Task.from_bitmaps(a, b)
