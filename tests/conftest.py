import contextlib

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
    """The order-2 basis V that spark.evaluate makes at the shift pair
    (a, b), and the pair."""
    point = sp.evaluate(ds, a, b)
    return point.V, point.params


@contextlib.contextmanager
def spark_gtol(value):
    """SPARK's stopping threshold ``spark.GTOL`` set to ``value`` inside
    the block: 0 never stops on the gradient, 1e30 stops at the start
    pair."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sp, "GTOL", value)
        yield


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


#: fixtures of both structures, each plain, with a general E11 and with a
#: singular E11
STRUCTURE_VARIANTS = ["index1_small", "index1_general", "index1_singular_e11",
                      "stokes_small", "stokes_general", "stokes_singular_e11"]


def _equivalent(sys, L, R):
    """The system (L E R, L A R, L B, C R, D): same transfer function and,
    for block-diagonal L, R of the tag's partition, the same tag."""
    L, R = sps.csc_matrix(L), sps.csc_matrix(R)
    return dm.DaeSystem(L @ sys.E @ R, L @ sys.A @ R, L @ sys.B, sys.C @ R,
                        sys.D, sys.structure)


def _near_identity(rng, k):
    return np.eye(k) + 0.3 * rng.standard_normal((k, k)) / np.sqrt(k)


@pytest.fixture(scope="session")
def index1_general(index1_small):
    """diag(T, I) (E, A) [[I, X], [0, I]]: E11 != I and E12 != 0."""
    n1 = index1_small.structure.n1
    n2 = index1_small.n - n1
    rng = np.random.default_rng(5)
    L = sps.block_diag([_near_identity(rng, n1), sps.eye(n2)])
    R = sps.bmat([[sps.eye(n1), rng.standard_normal((n1, n2))],
                  [None, sps.eye(n2)]])
    return _equivalent(index1_small, L, R)


@pytest.fixture(scope="session")
def index1_singular_e11(index1_small):
    """Differential unknown 0 swapped with algebraic unknown n1: E11 is
    singular while [E11, E12] keeps full row rank."""
    n, n1 = index1_small.n, index1_small.structure.n1
    perm = np.arange(n)
    perm[[0, n1]] = [n1, 0]
    return _equivalent(index1_small, sps.eye(n),
                       sps.eye(n, format="csc")[:, perm])


@pytest.fixture(scope="session")
def stokes_general(stokes_small):
    """diag(T, I) (E, A) diag(T2, I): E11 != I, A21 != A12^T."""
    nv, npp = stokes_small.structure.n_v, stokes_small.structure.n_p
    rng = np.random.default_rng(6)
    return _equivalent(
        stokes_small,
        sps.block_diag([_near_identity(rng, nv), sps.eye(npp)]),
        sps.block_diag([_near_identity(rng, nv), sps.eye(npp)]))


@pytest.fixture(scope="session")
def stokes_singular_e11(stokes_small):
    """E[0, 0] = 0: E11 is singular, K = [[E11, A12], [A21, 0]] is not."""
    E = stokes_small.E.tolil()
    E[0, 0] = 0.0
    return dm.DaeSystem(E.tocsc(), stokes_small.A, stokes_small.B,
                        stokes_small.C, stokes_small.D, stokes_small.structure)


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

    def __getattr__(self, name):
        # the factors themselves (L, U) are the stood-in LU's
        return getattr(self._lu, name)

    def solve(self, b):
        self.log.append(np.shape(b))
        x = self._lu.solve(b)
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
