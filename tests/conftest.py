import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import anglekit
from anglekit import linalg, specfun, whquant

settings.register_profile(
    "anglekit",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("anglekit")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def cli_env():
    """Environment for a `python -m anglekit.cli` child process.

    A copy of ``os.environ`` whose ``PYTHONPATH`` starts with the absolute
    directory holding the ``anglekit`` package this test process imported,
    followed by the existing entries made absolute.  The child then imports
    the same package from any working directory, installed or not.
    """
    src = Path(anglekit.__file__).resolve().parent.parent
    old = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + [str(Path(p).resolve()) for p in old if p])
    return env


@pytest.fixture
def no_eig_solve(monkeypatch):
    """Make any general `hermitian_eig` solve fail the test.

    Patches the inverse iteration of each unreduced tridiagonal block,
    which only that solve reaches: the chiral route shares the Householder
    reduction and the Sturm-count kernel, not the eigenvector stage.
    """

    def refuse(d, e):
        raise AssertionError(f"hermitian_eig solve of dim {d.size}")

    monkeypatch.setattr(linalg, "_block_vectors", refuse)


@pytest.fixture
def no_scalar_angle(monkeypatch):
    """Make any scalar `f_coefficient` or terminating 2F1 call fail the test.

    `whquant` binds `gauss_2f1_terminating` by name, so both bindings are patched.
    """

    def refuse(*args):
        raise AssertionError(f"scalar angle coefficient call {args}")

    monkeypatch.setattr(whquant, "f_coefficient", refuse)
    monkeypatch.setattr(whquant, "gauss_2f1_terminating", refuse)
    monkeypatch.setattr(specfun, "gauss_2f1_terminating", refuse)


def random_hermitian(dim, seed):
    gen = np.random.default_rng(seed)
    raw = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    return (raw + raw.conj().T) / 2.0
