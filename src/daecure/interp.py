"""Rational interpolation bases for descriptor systems.

A reduction basis V is characterized as the solution of the sparse-dense
Sylvester equation

    A V - E V S = B R

whose pair (S, R) encodes the shifts (eigenvalues of S) and tangential
directions (columns of R mapped through the eigenvectors of S).  Carrying
(S, R) along with V is what lets the downstream projection step place the
reduced poles at the mirror images of the shifts without ever forming an
explicit test basis.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sps

from . import daemodel as dm
from . import numkernel as nk
from .errors import DimensionMismatch, DuplicateShift, NonPositiveParams

# shifts closer than this (relative) are treated as duplicates
DUP_TOL = 1e-10

# size limit for the dense controllability rank check
DESK_CHECK_LIMIT = 64


@dataclass
class DeflatedSystem:
    """Sparse system data with the input deflated onto the proper subspace.

    ``B_defl`` starts as Pi_l^f B and is depleted step by step during
    cumulative reduction; A, E, C never change.
    """

    A: sps.csc_matrix
    E: sps.csc_matrix
    B_defl: np.ndarray
    C: np.ndarray
    kit: dm.ProjectorKit = field(repr=False, default=None)
    _fac: object = field(default=None, init=False, repr=False)

    @classmethod
    def from_dae(cls, sys: dm.DaeSystem, kit: dm.ProjectorKit = None):
        if kit is None:
            kit = dm.build_projectors(sys)
        B_defl = np.atleast_2d(kit.apply_left(sys.B.toarray()))
        if B_defl.ndim == 1:
            B_defl = B_defl[:, None]
        return cls(A=sys.A, E=sys.E, B_defl=np.asarray(B_defl, dtype=float),
                   C=sys.C.toarray(), kit=kit)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B_defl.shape[1]

    def eval(self, s):
        """Transfer value C (sE - A)^-1 B_defl (strictly proper by
        construction when B_defl is left-deflated).  The conjugate of the
        previous shift reuses its factorization (A and E never change)."""
        s = complex(s)
        fac = self._fac
        if fac is None or s.imag == 0.0 or s != fac.sigma.conjugate():
            self._fac = fac = None      # free the old LU before the next
            fac = self._fac = nk.factor_shifted(self.A, self.E, s)
        else:
            fac = nk.ConjugateFactorization(fac)
        return -(self.C @ fac.solve(self.B_defl))


@dataclass
class InterpData:
    """Interpolation data in Sylvester form: S (q x q) and R (m x q).

    The shifts are the eigenvalues of S; for an eigenpair (sigma, x) the
    tangential direction is R x.
    """

    S: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        self.S = np.atleast_2d(np.asarray(self.S))
        self.R = np.atleast_2d(np.asarray(self.R))
        if self.S.shape[0] != self.S.shape[1]:
            raise DimensionMismatch("S must be square")
        if self.R.shape[1] != self.S.shape[0]:
            raise DimensionMismatch("R must have one column per shift")

    @property
    def q(self):
        return self.S.shape[0]

    @property
    def m(self):
        return self.R.shape[0]

    def shift_directions(self):
        """List of (shift, direction) pairs from the eigenstructure of S."""
        w, X = spla.eig(self.S)
        out = []
        for i in range(self.q):
            x = X[:, i]
            r = self.R @ x
            nrm = np.linalg.norm(r)
            out.append((w[i], r / nrm if nrm > 0 else r))
        return out

    def check_admissible(self, ds: DeflatedSystem = None):
        """Raise unless the data can steer a well-posed projection.

        Checks shifts in the open RHP, pairwise distinct eigenvalue/pencil
        spectra (a factorization at each shift must succeed), and at small
        order that (-S^H, R^H) is controllable.
        """
        w = spla.eigvals(self.S)
        if np.any(w.real <= 0):
            raise NonPositiveParams("all shifts must lie in the open RHP")
        if ds is not None:
            for s in w:
                nk.factor_shifted(ds.A, ds.E, complex(s))
        if self.q <= DESK_CHECK_LIMIT:
            AM = -self.S.conj().T
            BM = self.R.conj().T
            blocks = [BM]
            for _ in range(self.q - 1):
                blocks.append(AM @ blocks[-1])
            ctrb = np.hstack(blocks)
            if np.linalg.matrix_rank(ctrb) < self.q:
                raise DimensionMismatch(
                    "(S, R) interpolation data is uncontrollable"
                )


@dataclass
class BasisV:
    """A reduction basis with a note on where its shifts came from."""

    V: np.ndarray
    provenance: object = None

    @property
    def q(self):
        return self.V.shape[1]

    def cond(self):
        sv = np.linalg.svd(self.V, compute_uv=False)
        return float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf


def spark_params_matrices(a: float, b: float) -> InterpData:
    """The 2x2 (S, R) pair encoding the shift pair a +- sqrt(a^2 - b)."""
    if not (a > 0 and b > 0):
        raise NonPositiveParams(f"need a > 0 and b > 0, got a={a}, b={b}")
    S = np.array([[a, 1.0], [a * a - b, a]])
    R = np.array([[1.0, 0.0]])
    return InterpData(S=S, R=R)


def spark_basis(ds: DeflatedSystem, a: float, b: float):
    """Order-2 real basis for the shift pair parameterized by (a, b) > 0.

    The Sylvester route stays smooth through the confluence a^2 = b where
    the two shifts merge, which explicit per-shift solves do not.  Requires
    a single-input deflated system.
    """
    if ds.m != 1:
        raise DimensionMismatch("shift-pair basis requires a SISO input")
    data = spark_params_matrices(a, b)
    V = nk.solve_sparse_dense_sylvester(ds.A, ds.E, data.S,
                                        ds.B_defl @ data.R)
    return BasisV(V=V, provenance=(a, b)), data


def realify_shift_directions(shift_dirs, m):
    """Real (S, R) from conjugate-closed (shift, direction) pairs.

    Real shifts give 1x1 blocks; each conjugate pair sigma = alpha +- i beta
    gives the rotation-like block [[alpha, beta], [-beta, alpha]] with the
    real and imaginary parts of the direction as the two R columns.
    """
    shifts = np.array([complex(s) for s, _ in shift_dirs])
    dirs = [np.atleast_1d(np.asarray(r, dtype=complex)) for _, r in shift_dirs]
    for r in dirs:
        if r.shape != (m,):
            raise DimensionMismatch("tangential direction has wrong length")
        if not np.any(r):
            raise DimensionMismatch("zero tangential direction")
    scale = max(np.abs(shifts).max(), 1.0)
    for i in range(shifts.size):
        for j in range(i + 1, shifts.size):
            if abs(shifts[i] - shifts[j]) <= DUP_TOL * scale:
                raise DuplicateShift(f"shifts {i} and {j} coincide")
    used = np.zeros(shifts.size, dtype=bool)
    S_blocks, R_cols = [], []
    for i, s in enumerate(shifts):
        if used[i]:
            continue
        if abs(s.imag) <= DUP_TOL * scale:
            if np.abs(dirs[i].imag).max() > 1e-12 * np.abs(dirs[i]).max():
                raise DimensionMismatch(
                    "real shift carries a complex tangential direction"
                )
            S_blocks.append(np.array([[s.real]]))
            R_cols.append(dirs[i].real.reshape(m, 1))
            used[i] = True
            continue
        cand = np.where(
            ~used & (np.abs(shifts - np.conj(s)) <= DUP_TOL * scale)
        )[0]
        cand = cand[cand != i]
        if cand.size == 0:
            raise DimensionMismatch(
                f"complex shift {s} has no conjugate partner"
            )
        j = int(cand[0])
        si, di = (s, dirs[i]) if s.imag > 0 else (np.conj(s), dirs[j])
        al, be = si.real, si.imag
        S_blocks.append(np.array([[al, be], [-be, al]]))
        R_cols.append(np.column_stack([di.real, di.imag]))
        used[i], used[j] = True, True
    S = spla.block_diag(*S_blocks) if S_blocks else np.zeros((0, 0))
    R = np.hstack(R_cols) if R_cols else np.zeros((m, 0))
    return S, R


def tangential_basis(ds: DeflatedSystem, shift_dirs):
    """Real basis matching conjugate-closed tangential data.

    ``shift_dirs`` is a sequence of (shift, direction) pairs; complex
    shifts must appear together with their conjugates.
    """
    S, R = realify_shift_directions(shift_dirs, ds.m)
    data = InterpData(S=S, R=R)
    data.check_admissible()
    V = nk.solve_sparse_dense_sylvester(ds.A, ds.E, S, ds.B_defl @ R)
    return BasisV(V=V, provenance=[s for s, _ in shift_dirs]), data


def sylvester_residual(ds: DeflatedSystem, basis: BasisV,
                       data: InterpData) -> float:
    """Relative residual of A V - E V S = B R for a candidate basis."""
    V, S, R = basis.V, data.S, data.R
    if V.shape != (ds.n, data.q) or R.shape[0] != ds.m:
        raise DimensionMismatch("basis/data shapes inconsistent with system")
    res = ds.A @ V - ds.E @ (V @ S) - ds.B_defl @ R
    nV = np.linalg.norm(V)
    scale = (
        np.linalg.norm(ds.A.data) * nV
        + np.linalg.norm(ds.E.data) * nV * np.linalg.norm(S)
        + np.linalg.norm(ds.B_defl) * np.linalg.norm(R)
    )
    return float(np.linalg.norm(res) / max(scale, 1e-300))
