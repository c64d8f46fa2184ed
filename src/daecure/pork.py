"""Reduced-order realizations from certified interpolation bases.

Given the basis V of a shift pair, A V - E V S = B R with the pair's
closed-form (S, R) (``spark.SparkParams``), the reduced model

    Er = Gamma,  Ar = -S^T Gamma,  Br = -R^T,  Cr = C V,

with Gamma the closed-form solution of S^T Gamma + Gamma S = R^T R,
matches the full model at both shifts and places its own poles at their
mirror images in the left half-plane.  Keeping Er equal to Gamma
(instead of normalizing) is deliberate: the cumulative-reduction
bookkeeping uses these blocks verbatim.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla

from .errors import DimensionMismatch
from .spark import SparkParams


@dataclass
class RomRealization:
    """Dense reduced realization (Er, Ar, Br, Cr, Dr): Er and Ar r x r,
    Br r x m, Cr p x r and Dr p x m, zero when not given; other shapes
    raise DimensionMismatch."""

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
        if self.Er.shape != (r, r) or self.Ar.shape != (r, r) \
                or self.Br.shape[0] != r or self.Cr.shape[1] != r:
            raise DimensionMismatch("inconsistent reduced realization blocks")
        if self.Dr is None:
            self.Dr = np.zeros((self.p, self.m))
        self.Dr = np.atleast_2d(np.asarray(self.Dr, dtype=float))
        if self.Dr.shape != (self.p, self.m):
            raise DimensionMismatch(
                f"Dr is {self.Dr.shape[0]} x {self.Dr.shape[1]}, not "
                f"p x m = {self.p} x {self.m}")

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
        """Transfer function value Cr (s Er - Ar)^-1 Br + Dr at a shift s,
        a p x m matrix, or at each shift of an array s, stacked into shape
        s.shape + (p, m) by one stacked solve."""
        M = np.asarray(s)[..., None, None] * self.Er - self.Ar
        return self.Cr @ np.linalg.solve(M, self.Br.astype(M.dtype)) \
            + self.Dr

    def poles(self):
        return spla.eigvals(self.Ar, self.Er)


def pork_input(V: np.ndarray, pair: SparkParams,
               C: np.ndarray) -> RomRealization:
    """Project onto V, the basis of ``pair``, in the pole-mirroring frame
    fixed by its (S, R).

    The reduced controllability Gramian is Er^-1 = Gamma^-1.
    """
    Gamma = pair.gamma()
    return RomRealization(
        Er=Gamma,
        Ar=-pair.S.T @ Gamma,
        Br=-pair.R.T,
        Cr=np.atleast_2d(C) @ V,
    )


def check_interpolation(fom_eval, rom: RomRealization, shifts) -> list:
    """Per-shift relative residuals ||G(sigma) - G_r(sigma)|| / ||G(sigma)||
    at each sigma of ``shifts``.

    ``fom_eval(s)`` must evaluate the (deflated, strictly proper) target.
    The input is scalar, so every tangential direction is 1.
    """
    out = []
    for s in shifts:
        full = np.atleast_2d(fom_eval(s))
        denom = max(np.linalg.norm(full), 1e-300)
        out.append(float(np.linalg.norm(full - rom.eval(s)) / denom))
    return out
