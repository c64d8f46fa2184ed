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

from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sps

from . import daemodel as dm
from .errors import DimensionMismatch, NonPositiveParams


@dataclass
class DeflatedSystem:
    """Sparse system data with the input deflated onto the proper subspace.

    ``B_defl`` starts as Pi_l^f B and is depleted step by step during
    cumulative reduction; A, E, C never change.  ``poly`` is the
    polynomial part split off with it.
    """

    A: sps.csc_matrix
    E: sps.csc_matrix
    B_defl: np.ndarray
    C: np.ndarray
    poly: dm.PolyPart

    @classmethod
    def from_dae(cls, sys: dm.DaeSystem):
        """Build the projectors and split the transfer function; the
        saddle-point factorization is released on return."""
        B_defl, poly = dm.split_transfer(sys, dm.build_projectors(sys))
        return cls(A=sys.A, E=sys.E, B_defl=B_defl, C=sys.C.toarray(),
                   poly=poly)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B_defl.shape[1]


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


def spark_params_matrices(a: float, b: float) -> InterpData:
    """The 2x2 (S, R) pair encoding the shift pair a +- sqrt(a^2 - b)."""
    if not (a > 0 and b > 0):
        raise NonPositiveParams(f"need a > 0 and b > 0, got a={a}, b={b}")
    S = np.array([[a, 1.0], [a * a - b, a]])
    R = np.array([[1.0, 0.0]])
    return InterpData(S=S, R=R)

