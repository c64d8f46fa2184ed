"""H2 norms of descriptor systems and reduced models, and transfer
function sweeps of systems up to ``nk.DENSE_LIMIT``.

Every object is analyzed in the finite coordinates of its pencil, which
come from saddle-point projectors (Stykel, ETNA 30, 2008), with no QZ:
a system's from its ``dm.build_projectors`` kit, and a reduced
realization's after an SVD of Er has brought it to semi-explicit index-1
form.  The right projector is applied to the kit's n_f orthonormal
columns V0 (a basis of range E^T for index 1, of ker A21 padded with
zero pressure rows for Stokes), so it never sees more columns than the
finite subspace has dimensions.  They must be orthonormal: E times their image
is factored with no rescaling, and unscaled rows of an E whose singular
values span many decades would square that spread.  The H2 norm of
the strictly proper part is then one small Lyapunov solve there.  A
sweep of the whole transfer function reduces that realization once to
Hessenberg form and costs O(n_f^2) per shift, each value certified by
its residual on the full pencil (``sweep_transfer``).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla
from scipy.linalg import lapack

from . import daemodel as dm
from . import numkernel as nk
from .errors import (
    DaecureError,
    DeskScaleExceeded,
    SingularShift,
    SpectraOverlap,
    StructureViolation,
    UnstableSystem,
)
from .pork import RomRealization

# stability admission margin relative to the spectral scale
STABLE_MARGIN = 1e-10

#: columns of V0 that Pi_r is applied to at once, in place: its solves'
#: n x k temporaries then fit the heap a reduction leaves.  Applied to
#: all 145 columns at once, Stokes m=12's ``h2norm`` left about 0.5 MB
#: more anonymous memory resident; the values are the same bits
BASIS_BLOCK = 64


@dataclass
class FiniteRealization:
    """The strictly proper part of a system as the standard realization
    (A1, B1, C1) in finite coordinates x = Z w, with what evaluating the
    whole transfer function needs besides: the deflated input
    ``B_defl`` = Pi_l B and the polynomial part ``poly``."""

    A1: np.ndarray
    B1: np.ndarray
    C1: np.ndarray
    Z: np.ndarray
    B_defl: np.ndarray
    poly: dm.PolyPart


def _check_dense(sys):
    """Refuse a sparse system above ``nk.DENSE_LIMIT``, before anything
    is densified."""
    if sys.n > nk.DENSE_LIMIT:
        raise DeskScaleExceeded(
            f"dense analysis limited to n <= {nk.DENSE_LIMIT}, "
            f"got {sys.n}")


def _semi_explicit(rom):
    """A reduced realization in semi-explicit index-1 form, a DaeSystem,
    or None when its strictly proper part is zero.

    With Er = U diag(sv) V^T and r its numerical rank (numpy's
    ``matrix_rank`` tolerance), U^T (s Er - Ar) V has E = diag(sv_r, 0).
    With r = 0 the strictly proper part is zero, once an LU of Ar has
    certified a regular pencil."""
    U, sv, Vt = np.linalg.svd(rom.Er)
    n = sv.size
    r = int(np.count_nonzero(sv > sv.max(initial=0.0) * n
                             * np.finfo(sv.dtype).eps))
    if r == 0:
        dm._factor_assembled(rom.Ar, "Ar of a reduced model with Er = 0")
        return None
    sv[r:] = 0.0
    return dm.DaeSystem(np.diag(sv), U.T @ rom.Ar @ Vt.T, U.T @ rom.Br,
                        rom.Cr @ Vt.T, rom.Dr, dm.SemiExplicitIndex1(r))


def _finite_std(sys) -> FiniteRealization:
    """Finite-coordinate realization of a DaeSystem, from one projector
    build.

    The finite coordinates come from the spectral projectors (Stykel,
    ETNA 30, 2008): Z = Pi_r V0 spans range Pi_r for the n_f orthonormal
    columns V0 of ``kit.finite_basis`` (index 1: range E^T, which is
    [I_r; 0] for a reduced realization; Stokes: [N; 0] with
    N spanning ker A21), overwritten by Z ``BASIS_BLOCK`` columns at a
    time.  Y = orth(E Z) spans range Pi_l, and
    (s E - A) Z = Y (s Ef - Af) with Ef = Y^T E Z, Af = Y^T A Z.  The
    deflated input Pi_l B lies in range Y, so the strictly proper part is
    C Z (s Ef - Af)^-1 Y^T Pi_l B.  Only the first ``kit.n_diff`` rows of
    E (n1 or n_v) are nonzero, so the QR of E Z and the products with
    Y^T run over them alone; Ef is their R factor, applied by triangular
    solves.  Z needs no QR of its own: E Z = E V0, so Ef is as well
    conditioned as E on range V0.  That holds only for an orthonormal
    V0; unscaled rows of an E whose singular values span many decades
    would square that spread into Ef.  The saddle-point LU behind the
    projectors also certifies a regular pencil and deflates the input.
    As a self-check, Pi_r must return z = Z 1 / sqrt(n_f), a point of its
    range, to 1e-8 relative; else StructureViolation."""
    kit = dm.build_projectors(sys)
    Z = kit.finite_basis()
    for c in range(0, Z.shape[1], BASIS_BLOCK):
        Z[:, c:c + BASIS_BLOCK] = kit.apply_right(Z[:, c:c + BASIS_BLOCK])
    z = Z.sum(axis=1) / np.sqrt(max(Z.shape[1], 1))
    defect = np.linalg.norm(kit.apply_right(z) - z)
    if not defect <= 1e-8 * np.linalg.norm(z):
        raise StructureViolation(
            f"right projector is not idempotent on the {Z.shape[1]} "
            f"finite columns the structure tag implies (relative defect "
            f"{defect / np.linalg.norm(z):.1e})"
        )
    k = kit.n_diff
    Y, Ef = np.linalg.qr(sys.E[:k] @ Z)
    A1 = spla.solve_triangular(Ef, Y.T @ (sys.A[:k] @ Z))
    B1 = spla.solve_triangular(Ef, Y.T @ kit.B_defl[:k])
    return FiniteRealization(A1, B1, sys.C.toarray() @ Z, Z, kit.B_defl,
                             kit.poly)


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

    A sparse system above ``nk.DENSE_LIMIT`` is refused before anything
    is densified; a reduced realization is dense already, and is first
    brought to semi-explicit index-1 form (``_semi_explicit``).  The
    scales of B1 and C1 (their largest entries) are taken out before the
    Lyapunov trace and multiplied back after its root, so a norm that is
    representable is not lost to overflow or underflow of its square.
    Raises DaecureError if the norm itself is not finite."""
    if isinstance(obj, RomRealization):
        obj = _semi_explicit(obj)
        if obj is None:
            return 0.0
    else:
        _check_dense(obj)
    fr = _finite_std(obj)
    A1, B1, C1 = fr.A1, fr.B1, fr.C1
    del fr  # its n x n_f basis goes before the Lyapunov solve
    if not A1.size:
        return 0.0
    nb = float(np.abs(B1).max()) or 1.0
    nc = float(np.abs(C1).max()) or 1.0
    val = _lyapunov_trace(A1, B1 / nb, C1 / nc)
    norm = nb * nc * float(np.sqrt(max(val, 0.0)))
    if not np.isfinite(norm):
        raise DaecureError(f"H2 norm is not finite: {norm}")
    return norm


def sweep_transfer(sys, s):
    """G(s) = C (sE - A)^-1 B + D at each shift of an array s, for a
    system of order at most ``nk.DENSE_LIMIT``, in its finite
    coordinates, and the certificate of each value.

    One ``_finite_std`` realization, and one reduction of A1 to upper
    Hessenberg form H = Q^T A1 Q, make each shift cost O(n_f^2) (Laub,
    IEEE TAC 26(2), 1981): a banded LU of sI - H with one subdiagonal
    (LAPACK gbtrf) and a solve with it for y, under the ``TOL_SOLVE``
    contract of ``nk._gated_solve`` on that system.  Then
    G(s) = C1 Q y + P(s), with the polynomial part P of the projector kit.
    Every shift is certified on the full pencil: x = Z Q y must solve
    (sE - A) x = Pi_l B to ``TOL_SOLVE`` relative in each column, else
    SingularShift, as for a shift at which sI - H is singular.

    Returns (G, residuals): G of shape s.shape + (p, m), and at each
    shift the largest relative full-pencil residual of its columns.
    """
    _check_dense(sys)
    s = np.asarray(s)
    fr = _finite_std(sys)
    nf = fr.A1.shape[0]
    G = fr.poly.at(s).astype(complex)
    residuals = np.zeros(s.shape)
    if not nf:
        return G, residuals
    # a non-finite A1 is left to fail the gated solves
    H, Q = spla.hessenberg(fr.A1, calc_q=True, check_finite=False)
    Bq, Cq = Q.T @ fr.B1, fr.C1 @ Q
    ZQ = fr.Z @ Q
    B_defl, E, A = fr.B_defl, sys.E, sys.A
    # the realization's n x n_f basis and its square factors go before
    # the sweep allocates anything
    del fr, Q
    nb = np.maximum(np.linalg.norm(B_defl, axis=0), 1e-300)
    # -H in LAPACK band storage, kl = 1 and ku = n_f - 1, under the kl
    # rows that the LU fills: (-H)[i, j] at row n_f + i - j
    band = np.zeros((nf + 2, nf), dtype=complex, order="F")
    i, j = np.triu_indices(nf, -1)
    band[nf + i - j, j] = -H[i, j]
    gbtrf, gbtrs = lapack.get_lapack_funcs(("gbtrf", "gbtrs"), (band,))
    for k, sk in np.ndenumerate(s):
        ab = band.copy(order="F")
        ab[nf] += sk
        lu, piv, info = gbtrf(ab, 1, nf - 1, overwrite_ab=True)
        if info != 0:
            raise SingularShift(f"sI - H is singular at shift {sk}")

        def solve(b):
            return gbtrs(lu, 1, nf - 1, b, piv)[0]

        def apply(y):
            return sk * y - nk._dense_matmul(H, y)

        y = nk._gated_solve(solve, apply, band.dtype, Bq, f"shift {sk}")
        x = nk._dense_matmul(ZQ, y)
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.linalg.norm(sk * (E @ x) - A @ x - B_defl, axis=0)
            residuals[k] = np.max(r / nb)
        if not residuals[k] <= nk.TOL_SOLVE:
            raise SingularShift(
                f"full-pencil residual {residuals[k]:.2e} exceeds "
                f"{nk.TOL_SOLVE:.0e} for shift {sk}")
        G[k] += Cq @ y
    return G, residuals
