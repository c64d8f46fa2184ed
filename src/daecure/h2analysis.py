"""H2 norms of descriptor systems and reduced models.

Every object is analyzed in the finite coordinates of its pencil, which
come from saddle-point projectors (Stykel, ETNA 30, 2008), with no QZ:
a system's from its structure tag, and a reduced realization's after an
SVD of Er has brought it to semi-explicit index-1 form.  The right
projector is applied to n_f orthonormal columns chosen from the tag (a
basis of range E^T for index 1, of ker A21 padded with zero pressure
rows for Stokes), so it never sees more columns than the finite
subspace has dimensions.  They must be orthonormal: E times their image
is factored with no rescaling, and unscaled rows of an E whose singular
values span many decades would square that spread.  The H2 norm of
the strictly proper part is then one small Lyapunov solve there.
"""

import numpy as np
import scipy.linalg as spla
from scipy.linalg import lapack

from . import daemodel as dm
from . import numkernel as nk
from .errors import (
    DaecureError,
    DeskScaleExceeded,
    SpectraOverlap,
    StructureViolation,
    UnstableSystem,
)
from .pork import RomRealization

# stability admission margin relative to the spectral scale
STABLE_MARGIN = 1e-10


def _finite_basis(sys):
    """Orthonormal n x n_f columns V0 on which Pi_r of ``sys`` is one to
    one, from its structure tag.

    Index 1: an orthonormal basis of range E^T, the complement of
    ker E = ker Pi_r, from one QR of the differential rows' transpose.
    Stokes: [N; 0] with N an orthonormal basis of ker A21, on which the
    velocity block P of Pi_r is the identity, from one complete QR of
    A21^T."""
    tag = sys.structure
    if isinstance(tag, dm.SemiExplicitIndex1):
        return np.linalg.qr(sys.E[:tag.n1].T.toarray())[0]
    nv = tag.n_v
    Q = np.linalg.qr(sys.A[nv:, :nv].T.toarray(), mode="complete")[0]
    return dm._with_zeros(Q[:, tag.n_p:], 0, tag.n_p)


def _finite_std(obj):
    """Finite-coordinate standard realization (A1, B1, C1) of the strictly
    proper part of a DaeSystem or a RomRealization.

    A reduced realization is first brought to semi-explicit index-1 form:
    with Er = U diag(sv) V^T and r its numerical rank (numpy's
    ``matrix_rank`` tolerance), U^T (s Er - Ar) V has E = diag(sv_r, 0).
    With r = 0 its strictly proper part is zero, once an LU of Ar has
    certified a regular pencil.  Only a sparse system is refused above
    ``nk.DENSE_LIMIT``, before anything is densified; a reduced
    realization is dense already.

    The finite coordinates come from the spectral projectors (Stykel,
    ETNA 30, 2008): Z = Pi_r V0 spans range Pi_r for the n_f orthonormal
    columns V0 of ``_finite_basis`` (index 1: range E^T, which is
    [I_r; 0] for a reduced realization; Stokes: [N; 0] with
    N spanning ker A21).  Y = orth(E Z) spans range Pi_l, and
    (s E - A) Z = Y (s Ef - Af) with Ef = Y^T E Z, Af = Y^T A Z.  The
    deflated input Pi_l B lies in range Y, so the strictly proper part is
    C Z (s Ef - Af)^-1 Y^T Pi_l B.  Z needs no QR of its own: E Z = E V0,
    so Ef is as well conditioned as E on range V0.  That holds only for an
    orthonormal V0; unscaled rows of an E whose singular values span many
    decades would square that spread into Ef.  The saddle-point LU behind
    the projectors also certifies a regular pencil and deflates the
    input.  As a self-check, Pi_r must return z = Z 1 / sqrt(n_f), a
    point of its range, to 1e-8 relative; else StructureViolation."""
    if isinstance(obj, RomRealization):
        U, sv, Vt = np.linalg.svd(obj.Er)
        n = sv.size
        r = int(np.count_nonzero(sv > sv.max(initial=0.0) * n
                                 * np.finfo(sv.dtype).eps))
        if r == 0:
            dm._factor_assembled(obj.Ar, "Ar of a reduced model with Er = 0")
            return np.zeros((0, 0)), np.zeros((0, obj.m)), \
                np.zeros((obj.p, 0))
        sv[r:] = 0.0
        obj = dm.DaeSystem(np.diag(sv), U.T @ obj.Ar @ Vt.T, U.T @ obj.Br,
                           obj.Cr @ Vt.T, obj.Dr, dm.SemiExplicitIndex1(r))
    elif obj.n > nk.DENSE_LIMIT:
        raise DeskScaleExceeded(
            f"dense H2 analysis limited to n <= {nk.DENSE_LIMIT}, "
            f"got {obj.n}")
    kit = dm.build_projectors(obj)
    B = dm.split_transfer(obj, kit)[0]
    Z = kit.apply_right(_finite_basis(obj))
    z = Z.sum(axis=1) / np.sqrt(max(Z.shape[1], 1))
    defect = np.linalg.norm(kit.apply_right(z) - z)
    if not defect <= 1e-8 * np.linalg.norm(z):
        raise StructureViolation(
            f"right projector is not idempotent on the {Z.shape[1]} "
            f"finite columns the structure tag implies (relative defect "
            f"{defect / np.linalg.norm(z):.1e})"
        )
    Y, Ef = np.linalg.qr(obj.E @ Z)
    A1 = np.linalg.solve(Ef, Y.T @ (obj.A @ Z))
    B1 = np.linalg.solve(Ef, Y.T @ B)
    return A1, B1, obj.C.toarray() @ Z


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
    """H2 norm of the strictly proper part of a stable system or ROM.

    The scales of B1 and C1 (their largest entries) are taken out before
    the Lyapunov trace and multiplied back after its root, so a norm that
    is representable is not lost to overflow or underflow of its square.
    Raises DaecureError if the norm itself is not finite."""
    A1, B1, C1 = _finite_std(obj)
    if not A1.size:
        return 0.0
    nb = float(np.abs(B1).max()) or 1.0
    nc = float(np.abs(C1).max()) or 1.0
    val = _lyapunov_trace(A1, B1 / nb, C1 / nc)
    norm = nb * nc * float(np.sqrt(max(val, 0.0)))
    if not np.isfinite(norm):
        raise DaecureError(f"H2 norm is not finite: {norm}")
    return norm
