"""H2 norms and inner products for descriptor systems and reduced models.

Two independent routes are provided and cross-checked in the tests:

* a pole-residue sum that needs only a handful of transfer-function
  evaluations of the (possibly large) system, and
* a dense projected-Sylvester route that deflates both pencils to their
  finite coordinates, solves ordinary Sylvester/Lyapunov equations there
  and maps the Gramians back to the original coordinates.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla

from . import daemodel as dm
from . import numkernel as nk
from .errors import (
    DefectivePencil,
    DeskScaleExceeded,
    DimensionMismatch,
    UnstableSystem,
)
from .interp import DeflatedSystem
from .pork import RomRealization

# relative gap below which reduced poles count as multiple
POLE_SEP_TOL = 1e-8

# stability admission margin relative to the spectral scale
STABLE_MARGIN = 1e-10


@dataclass
class PoleResidueForm:
    """First-order pole-residue data: G(s) = sum_i c_i b_i / (s - pole_i)."""

    poles: np.ndarray      # (q,) complex
    b_rows: np.ndarray     # (q, m): row i is the input residue b_i
    c_cols: np.ndarray     # (p, q): column i is the output residue c_i

    @property
    def q(self):
        return self.poles.size

    def eval(self, s):
        p, m = self.c_cols.shape[0], self.b_rows.shape[1]
        G = np.zeros((p, m), dtype=complex)
        for i in range(self.q):
            G += np.outer(self.c_cols[:, i], self.b_rows[i]) \
                / (s - self.poles[i])
        return G


def rom_to_pole_residue(rom: RomRealization) -> PoleResidueForm:
    """Eigentriplet pole-residue decomposition of a reduced realization.

    Requires distinct finite poles; repeated poles raise DefectivePencil.
    """
    w, vl, vr = spla.eig(rom.Ar, rom.Er, left=True, right=True)
    if not np.all(np.isfinite(w)):
        raise DefectivePencil("reduced pencil has infinite eigenvalues")
    scale = max(np.abs(w).max(), 1.0)
    for i in range(w.size):
        for j in range(i + 1, w.size):
            if abs(w[i] - w[j]) <= POLE_SEP_TOL * scale:
                raise DefectivePencil(
                    f"poles {w[i]} and {w[j]} too close for a first-order "
                    "pole-residue form"
                )
    b_rows = np.zeros((w.size, rom.m), dtype=complex)
    c_cols = np.zeros((rom.p, w.size), dtype=complex)
    for i in range(w.size):
        d = vl[:, i].conj() @ rom.Er @ vr[:, i]
        b_rows[i] = (vl[:, i].conj() @ rom.Br) / d
        c_cols[:, i] = rom.Cr @ vr[:, i]
    return PoleResidueForm(poles=w, b_rows=b_rows, c_cols=c_cols)


def h2_inner_pole_residue(eval_G, gm: PoleResidueForm):
    """<G, G_M> from the pole-residue form of the second argument.

    Only q evaluations of G are needed, at the mirror points of the poles
    of G_M: <G, G_M> = sum_i c_i^H G(-conj(pole_i)) b_i^H.
    """
    if np.any(gm.poles.real >= 0):
        raise UnstableSystem("pole-residue factor must be stable")
    val = 0.0 + 0.0j
    for i in range(gm.q):
        Gval = np.atleast_2d(eval_G(-np.conj(gm.poles[i])))
        val += gm.c_cols[:, i].conj() @ Gval @ gm.b_rows[i].conj()
    if abs(val.imag) <= 1e-12 * max(abs(val), 1.0):
        return float(val.real)
    return complex(val)


def _finite_std(obj):
    """Finite-coordinate standard realization (A1, B1, C1) plus the
    Gramian map-back factors (XR1, R1) with X = XR1 Xff XR1_H^H and
    Y = R1^H Yff R1_H.

    A reduced realization with singular Er (one that carries a polynomial
    part, such as a constant block) is deflated like a full system, so
    its strictly proper part is analyzed."""
    if isinstance(obj, RomRealization):
        E, A, B, C = obj.Er, obj.Ar, obj.Br, obj.Cr
        n = E.shape[0]
        if np.linalg.matrix_rank(E) == n:
            return np.linalg.solve(E, A), np.linalg.solve(E, B), \
                np.asarray(C, dtype=float), np.eye(n), np.linalg.inv(E)
    elif isinstance(obj, DeflatedSystem):
        E, A = obj.E.toarray(), obj.A.toarray()
        B, C = obj.B_defl, obj.C
    elif isinstance(obj, dm.DaeSystem):
        E, A = obj.E.toarray(), obj.A.toarray()
        B, C = obj.B.toarray(), obj.C.toarray()
    else:
        raise DimensionMismatch(f"cannot analyze object of type {type(obj)}")
    n = E.shape[0]
    if n > nk.DENSE_LIMIT:
        raise DeskScaleExceeded(
            f"dense H2 analysis limited to n <= {nk.DENSE_LIMIT}, got {n}"
        )
    defl = nk.PencilDeflation(E, A)
    nf = defl.nf
    A1, B1, C1 = defl.finite_realization(B, C)
    XR1 = defl.XR[:, :nf]
    R1 = np.linalg.solve(defl.Ef, defl.XL[:nf, :])
    return A1, B1, C1, XR1, R1


def _check_stable(A1, what="system"):
    w = spla.eigvals(A1)
    scale = max(np.abs(w).max(), 1.0)
    if np.any(w.real >= -STABLE_MARGIN * scale):
        raise UnstableSystem(f"{what} is not asymptotically stable")


def h2_inner_sylvester_dense(sysA, sysB):
    """<G_A, G_B> by deflated Sylvester solves; returns (value, X, Y).

    X and Y are the cross-Gramians mapped back to the original
    coordinates, so trace(C_A X C_B^H) = value = trace(B_A^H Y B_B) and X
    satisfies the right-projector constraint of the underlying projected
    Sylvester equation.
    """
    A1, B1, C1, XR1, R1 = _finite_std(sysA)
    A2, B2, C2, XR2, R2 = _finite_std(sysB)
    _check_stable(A1, "first system")
    _check_stable(A2, "second system")
    if B1.shape[1] != B2.shape[1] or C1.shape[0] != C2.shape[0]:
        raise DimensionMismatch("systems must share input/output counts")
    Xff = nk.solve_dense_sylvester(A1, A2.conj().T, B1 @ B2.conj().T)
    Yff = nk.solve_dense_sylvester(A1.conj().T, A2, C1.conj().T @ C2)
    val_c = np.trace(C1 @ Xff @ C2.conj().T)
    val_b = np.trace(B1.conj().T @ Yff @ B2)
    denom = max(abs(val_c), abs(val_b), 1e-300)
    if abs(val_c - val_b) > 1e-6 * denom:
        raise UnstableSystem(
            "controllability/observability Gramian traces disagree: "
            f"{val_c} vs {val_b}"
        )
    X = XR1 @ Xff @ XR2.conj().T
    Y = R1.conj().T @ Yff @ R2
    val = val_c
    if abs(np.imag(val)) <= 1e-10 * max(abs(val), 1.0):
        val = float(np.real(val))
    return val, X, Y


def h2_norm(obj) -> float:
    """H2 norm of a stable strictly proper system or reduced realization."""
    A1, B1, C1, _, _ = _finite_std(obj)
    _check_stable(A1)
    P = nk.solve_dense_sylvester(A1, A1.conj().T, B1 @ B1.conj().T)
    val = float(np.real(np.trace(C1 @ P @ C1.conj().T)))
    return float(np.sqrt(max(val, 0.0)))


def h2_error_norm(ds: DeflatedSystem, rom: RomRealization) -> float:
    """||G - G_r|| via an augmented error realization at desk scale."""
    A1, B1, C1, _, _ = _finite_std(ds)
    A2, B2, C2, _, _ = _finite_std(rom)
    _check_stable(A1, "full model")
    _check_stable(A2, "reduced model")
    n1, n2 = A1.shape[0], A2.shape[0]
    Aa = np.zeros((n1 + n2, n1 + n2))
    Aa[:n1, :n1] = A1
    Aa[n1:, n1:] = A2
    Ba = np.vstack([B1, B2])
    Ca = np.hstack([C1, -C2])
    P = nk.solve_dense_sylvester(Aa, Aa.T, Ba @ Ba.T)
    val = float(np.trace(Ca @ P @ Ca.T))
    return float(np.sqrt(max(val, 0.0)))
