"""H2 norms and inner products for descriptor systems and reduced models.

Two independent routes are provided and cross-checked in the tests:

* a pole-residue sum that needs only a handful of transfer-function
  evaluations of the (possibly large) system, and
* a dense projected-Sylvester route that deflates both pencils to their
  finite coordinates, solves ordinary Sylvester/Lyapunov equations there
  and maps the Gramians back to the original coordinates.

A system's finite coordinates come from its saddle-point projectors
(``dm.build_projectors``).  Dense QZ (``nk.PencilDeflation``) is used
only for a reduced realization whose Er is singular, such as an index-1
ROM carrying its constant part as a block with Er = 0.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla
from scipy.linalg import lapack

from . import daemodel as dm
from . import numkernel as nk
from .errors import (
    DefectivePencil,
    DeskScaleExceeded,
    DimensionMismatch,
    SpectraOverlap,
    StructureViolation,
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

    A deflated system is brought to its finite coordinates by its
    saddle-point projectors.  A reduced realization with singular Er (one
    that carries a polynomial part, such as a constant block) is deflated
    by QZ, so its strictly proper part is analyzed."""
    if isinstance(obj, DeflatedSystem):
        return _finite_std_projected(obj)
    if not isinstance(obj, RomRealization):
        raise DimensionMismatch(f"cannot analyze object of type {type(obj)}")
    E, A, B, C = obj.Er, obj.Ar, obj.Br, obj.Cr
    n = E.shape[0]
    if np.linalg.matrix_rank(E) == n:
        return np.linalg.solve(E, A), np.linalg.solve(E, B), \
            np.asarray(C, dtype=float), np.eye(n), np.linalg.inv(E)
    _check_dense_size(n)
    defl = nk.PencilDeflation(E, A)
    nf = defl.nf
    A1, B1, C1 = defl.finite_realization(B, C)
    XR1 = defl.XR[:, :nf]
    R1 = np.linalg.solve(defl.Ef, defl.XL[:nf, :])
    return A1, B1, C1, XR1, R1


def _check_dense_size(n):
    if n > nk.DENSE_LIMIT:
        raise DeskScaleExceeded(
            f"dense H2 analysis limited to n <= {nk.DENSE_LIMIT}, got {n}"
        )


def _finite_std_projected(ds: DeflatedSystem):
    """Finite coordinates from the spectral projectors (Stykel, ETNA 30,
    2008): Z spans range Pi_r, Y = orth(E Z) spans range Pi_l, and
    (s E - A) Z = Y (s Ef - Af) with Ef = Y^T E Z, Af = Y^T A Z.  The
    finite part of the resolvent is Z (s Ef - Af)^-1 Y^T Pi_l, so
    XR1 = Z and R1 = Ef^-1 Y^T Pi_l.  The saddle-point LU behind the
    projectors also certifies a regular pencil."""
    n = ds.n
    _check_dense_size(n)
    kit = dm.build_projectors(ds)
    Pr = kit.apply_right(np.eye(n))
    tag = ds.structure
    if isinstance(tag, dm.SemiExplicitIndex1):
        nf = tag.n1
    else:
        nf = tag.n_v - tag.n_p
    rank = int(round(np.trace(Pr)))
    if rank != nf:
        raise StructureViolation(
            f"right projector has rank {rank}, but the structure tag "
            f"implies {nf} finite eigenvalues"
        )
    Z = spla.qr(Pr, mode="economic", pivoting=True)[0][:, :nf]
    Y, Ef = np.linalg.qr(ds.E @ Z)
    R1 = np.linalg.solve(Ef, kit.apply_left_t(Y).T)
    A1 = np.linalg.solve(Ef, Y.T @ (ds.A @ Z))
    return A1, R1 @ ds.B_defl, ds.C @ Z, Z, R1


def _check_stable(A, what="system", cplx=False):
    """Schur form (T, U) of A, complex if A is or ``cplx``.

    Raises UnstableSystem unless every eigenvalue lies left of
    -STABLE_MARGIN times the spectral scale.  Real parts are read from the
    diagonal of T: LAPACK leaves a real 2x2 block as [[a, b], [c, a]] with
    eigenvalues a +- sqrt(bc)."""
    cplx = cplx or np.iscomplexobj(A)
    T, U = spla.schur(A, output="complex" if cplx else "real")
    d = np.diag(T)
    bc = np.abs(np.diag(T, 1) * np.diag(T, -1))
    mag2 = np.abs(d) ** 2
    mag2[:-1] += bc
    mag2[1:] += bc
    scale = max(np.sqrt(mag2.max(initial=0.0)), 1.0)
    if np.any(d.real >= -STABLE_MARGIN * scale):
        raise UnstableSystem(f"{what} is not asymptotically stable")
    return T, U


def _lyapunov_trace(blocks, B, C):
    """trace(C P C^H) for A P + P A^H + B B^H = 0 with A the block
    diagonal of the (matrix, name) pairs in ``blocks``.

    One Schur form per block gives both its stability test and the
    triangular Lyapunov solve; the residual is checked against the same
    1e-10 contract as ``nk.solve_dense_sylvester``."""
    cplx = any(np.iscomplexobj(x) for x in [B] + [a for a, _ in blocks])
    schurs = [_check_stable(a, what, cplx) for a, what in blocks]
    A = spla.block_diag(*(a for a, _ in blocks))
    T = spla.block_diag(*(t for t, _ in schurs))
    U = spla.block_diag(*(u for _, u in schurs))
    Q = B @ B.conj().T
    trsyl = lapack.get_lapack_funcs("trsyl", (T,))
    Xt, scale, info = trsyl(T, T, -(U.conj().T @ Q @ U),
                            tranb="C" if cplx else "T")
    if info < 0:
        raise SpectraOverlap(f"trsyl failed with info={info}")
    P = U @ (Xt / scale) @ U.conj().T
    nA, nP = np.linalg.norm(A, "fro"), np.linalg.norm(P, "fro")
    res = np.linalg.norm(A @ P + P @ A.conj().T + Q, "fro")
    if res > 1e-10 * max(2 * nA * nP + np.linalg.norm(Q, "fro"), 1e-300):
        raise SpectraOverlap(f"Lyapunov residual {res:.2e} exceeds contract")
    return float(np.real(np.trace(C @ P @ C.conj().T)))


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
    val = _lyapunov_trace([(A1, "system")], B1, C1)
    return float(np.sqrt(max(val, 0.0)))


def h2_error_norm(ds: DeflatedSystem, rom: RomRealization) -> float:
    """||G - G_r|| via an augmented error realization at desk scale."""
    A1, B1, C1, _, _ = _finite_std(ds)
    A2, B2, C2, _, _ = _finite_std(rom)
    val = _lyapunov_trace([(A1, "full model"), (A2, "reduced model")],
                          np.vstack([B1, B2]), np.hstack([C1, -C2]))
    return float(np.sqrt(max(val, 0.0)))
