"""H2 norms of descriptor systems and reduced models.

Every object is analyzed in the finite coordinates of its pencil, which
come from saddle-point projectors (Stykel, ETNA 30, 2008), with no QZ:
a system's from its structure tag, and a reduced realization's after an
SVD of Er has brought it to semi-explicit index-1 form.  The H2 norm of
the strictly proper part is then one small Lyapunov solve there.
"""

import numpy as np
import scipy.linalg as spla
from scipy.linalg import lapack

from . import daemodel as dm
from . import numkernel as nk
from .errors import (
    DeskScaleExceeded,
    SpectraOverlap,
    StructureViolation,
    UnstableSystem,
)
from .pork import RomRealization

# stability admission margin relative to the spectral scale
STABLE_MARGIN = 1e-10


def _finite_std(obj):
    """Finite-coordinate standard realization (A1, B1, C1) of the strictly
    proper part, plus the Gramian map-back factors (XR1, R1) with
    X = XR1 Xff XR1_H^H and Y = R1^H Yff R1_H.

    A reduced realization is first brought to semi-explicit index-1 form:
    with Er = U diag(sv) V^T and r its numerical rank (numpy's
    ``matrix_rank`` tolerance), U^T (s Er - Ar) V has E = diag(sv_r, 0).
    Its saddle-point LU certifies index 1, as for a system.  Only a
    sparse system is refused above ``nk.DENSE_LIMIT``, before anything is
    densified; a reduced realization is dense already."""
    if not isinstance(obj, RomRealization):
        if obj.n > nk.DENSE_LIMIT:
            raise DeskScaleExceeded(
                f"dense H2 analysis limited to n <= {nk.DENSE_LIMIT}, "
                f"got {obj.n}")
        return _finite_std_projected(obj)
    U, sv, Vt = np.linalg.svd(obj.Er)
    n = sv.size
    r = int(np.count_nonzero(sv > sv.max(initial=0.0) * n
                             * np.finfo(sv.dtype).eps))
    sv[r:] = 0.0
    ds = dm.DaeSystem(np.diag(sv), U.T @ obj.Ar @ Vt.T, U.T @ obj.Br,
                      obj.Cr @ Vt.T, obj.Dr, dm.SemiExplicitIndex1(r))
    A1, B1, C1, Z, R1 = _finite_std_projected(ds)
    return A1, B1, C1, Vt.T @ Z, R1 @ U.T


def _finite_std_projected(ds):
    """Finite coordinates from the spectral projectors (Stykel, ETNA 30,
    2008): Z spans range Pi_r, Y = orth(E Z) spans range Pi_l, and
    (s E - A) Z = Y (s Ef - Af) with Ef = Y^T E Z, Af = Y^T A Z.  The
    finite part of the resolvent is Z (s Ef - Af)^-1 Y^T Pi_l, so
    XR1 = Z and R1 = Ef^-1 Y^T Pi_l.  The saddle-point LU behind the
    projectors also certifies a regular pencil and deflates a DaeSystem's
    input."""
    n = ds.n
    kit = dm.build_projectors(ds)
    B, C = (dm.split_transfer(ds, kit)[0], ds.C.toarray()) \
        if isinstance(ds, dm.DaeSystem) else (ds.B_defl, ds.C)
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
    return A1, R1 @ B, C @ Z, Z, R1


def _check_stable(A, cplx=False):
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
        raise UnstableSystem("system is not asymptotically stable")
    return T, U


def _lyapunov_trace(A, B, C):
    """trace(C P C^H) for A P + P A^H + B B^H = 0.

    One Schur form of A gives both its stability test and the triangular
    Lyapunov solve, whose residual must be within 1e-10 relative."""
    cplx = np.iscomplexobj(A) or np.iscomplexobj(B)
    T, U = _check_stable(A, cplx)
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


def h2_norm(obj) -> float:
    """H2 norm of the strictly proper part of a stable system or ROM."""
    A1, B1, C1, _, _ = _finite_std(obj)
    val = _lyapunov_trace(A1, B1, C1)
    return float(np.sqrt(max(val, 0.0)))
