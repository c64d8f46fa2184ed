import numpy as np
import pytest
import scipy.sparse as sps

from daecure import bench_io as bio
from daecure import daemodel as dm
from daecure import numkernel as nk
from daecure import spark as sp


def make_ode(lam, b, c, T=None):
    """Stable ODE system with prescribed eigenvalues and residue factors.

    Diagonal realization diag(lam), b, c, optionally disguised by a
    similarity transform T.
    """
    lam = np.asarray(lam, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1, 1)
    c = np.asarray(c, dtype=float).reshape(1, -1)
    n = lam.size
    A = np.diag(lam)
    if T is not None:
        Ti = np.linalg.inv(T)
        A = T @ A @ Ti
        b = T @ b
        c = c @ Ti
    return dm.DaeSystem(sps.eye(n, format="csc"), sps.csc_matrix(A),
                        sps.csc_matrix(b), sps.csc_matrix(c),
                        np.zeros((1, 1)), dm.SemiExplicitIndex1(n))


def basis_at(ds, a, b):
    """The order-2 basis V and its data (S, R) that spark.evaluate makes
    at the shift pair (a, b)."""
    _, _, _, V, data, _, _ = sp.evaluate(ds, a, b)
    return V, data


def make_random_stable_ode(n, seed, m=1, p=1, shift=2.0):
    """Dense random ODE made stable by a symmetric negative shift."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) / np.sqrt(n)
    A = M - (abs(np.linalg.eigvals(M).real).max() + shift) * np.eye(n)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    return dm.DaeSystem(sps.eye(n, format="csc"), sps.csc_matrix(A),
                        sps.csc_matrix(B), sps.csc_matrix(C),
                        np.zeros((p, m)), dm.SemiExplicitIndex1(n))


@pytest.fixture(scope="session")
def index1_small():
    return bio.gen_semi_explicit_index1(50, 10, seed=3)


@pytest.fixture(scope="session")
def stokes_small():
    return bio.gen_stokes_index2(4, seed=1)


@pytest.fixture(scope="session")
def ode_small():
    return make_random_stable_ode(24, seed=11)


@pytest.fixture
def factor_log(monkeypatch):
    """Shifts of every ShiftedFactorization built during the test."""
    made = []
    init = nk.ShiftedFactorization.__init__

    def counting_init(self, A, E, sigma):
        made.append(complex(sigma))
        init(self, A, E, sigma)

    monkeypatch.setattr(nk.ShiftedFactorization, "__init__", counting_init)
    return made


class CountingLU:
    """Stands in for a factorization's SuperLU and records the shape of
    every triangular-solve right-hand side; with ``perturb`` set, the
    first solve's columns ``perturb`` come back scaled by 1 + 1e-6."""

    def __init__(self, lu, log, perturb=()):
        self._lu, self.log, self.perturb = lu, log, list(perturb)

    def solve(self, b, trans="N"):
        self.log.append(np.shape(b))
        x = self._lu.solve(b, trans=trans)
        if len(self.log) == 1 and self.perturb:
            x[:, self.perturb] *= 1 + 1e-6
        return x


@pytest.fixture
def lu_solves(monkeypatch):
    """Right-hand-side shapes of every triangular solve made with a
    ShiftedFactorization built during the test."""
    log = []
    init = nk.ShiftedFactorization.__init__

    def counting_init(self, A, E, sigma):
        init(self, A, E, sigma)
        self._lu = CountingLU(self._lu, log)

    monkeypatch.setattr(nk.ShiftedFactorization, "__init__", counting_init)
    return log
