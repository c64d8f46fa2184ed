"""Reduced-order realizations from certified interpolation bases.

Given a basis V with A V - E V S = B R and shifts (eigenvalues of S) in
the open right half-plane, the reduced model

    Er = Gamma,  Ar = -S^H Gamma,  Br = -R^H,  Cr = C V,

with Gamma solving S^H Gamma + Gamma S = R^H R, matches the full model
tangentially at the shifts and places its own poles at their mirror
images in the left half-plane.  Keeping Er equal to Gamma (instead of
normalizing) is deliberate: the cumulative-reduction bookkeeping uses
these blocks verbatim.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla

from . import numkernel as nk
from .errors import DimensionMismatch
from .interp import InterpData


@dataclass
class RomRealization:
    """Dense reduced realization (Er, Ar, Br, Cr, Dr)."""

    Er: np.ndarray
    Ar: np.ndarray
    Br: np.ndarray
    Cr: np.ndarray
    Dr: np.ndarray = None

    def __post_init__(self):
        self.Er = np.atleast_2d(np.asarray(self.Er))
        self.Ar = np.atleast_2d(np.asarray(self.Ar))
        self.Br = np.atleast_2d(np.asarray(self.Br))
        self.Cr = np.atleast_2d(np.asarray(self.Cr))
        r = self.Er.shape[0]
        if self.Ar.shape != (r, r) or self.Br.shape[0] != r \
                or self.Cr.shape[1] != r:
            raise DimensionMismatch("inconsistent reduced realization blocks")
        if self.Dr is None:
            self.Dr = np.zeros((self.Cr.shape[0], self.Br.shape[1]))
        self.Dr = np.atleast_2d(np.asarray(self.Dr, dtype=float))

    @property
    def order(self):
        return self.Er.shape[0]

    @property
    def m(self):
        return self.Br.shape[1]

    @property
    def p(self):
        return self.Cr.shape[0]

    def eval(self, s):
        """Transfer function value Cr (s Er - Ar)^-1 Br + Dr."""
        M = s * self.Er - self.Ar
        return self.Cr @ np.linalg.solve(M, self.Br.astype(M.dtype)) \
            + self.Dr

    def poles(self):
        return spla.eigvals(self.Ar, self.Er)


def pork_input(V: np.ndarray, data: InterpData,
               C: np.ndarray) -> RomRealization:
    """Project onto V in the pole-mirroring frame fixed by (S, R).

    The reduced controllability Gramian is Er^-1 = Gamma^-1.
    """
    S, R = data.S, data.R
    Gamma = nk.solve_small_lyapunov(S, R)
    return RomRealization(
        Er=Gamma,
        Ar=-S.conj().T @ Gamma,
        Br=-R.conj().T,
        Cr=np.atleast_2d(C) @ V,
    )


def check_interpolation(fom_eval, rom: RomRealization,
                        data: InterpData) -> list:
    """Per-shift relative tangential residuals.

    ``fom_eval(s)`` must evaluate the (deflated, strictly proper) target;
    for each shift sigma with direction r the residual is
    ||(G(sigma) - G_r(sigma)) r|| / ||G(sigma) r||.
    """
    out = []
    for s, r in data.shift_directions():
        full = np.atleast_2d(fom_eval(s)) @ r
        red = rom.eval(s) @ r
        denom = max(np.linalg.norm(full), 1e-300)
        out.append(float(np.linalg.norm(full - red) / denom))
    return out

