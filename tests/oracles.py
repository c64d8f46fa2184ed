"""Dense desk-scale oracles that the tests and CI compare daecure against.

No CLI path needs any of them, so they live beside the tests.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sps
from scipy.linalg import lapack

from daecure import h2analysis as h2
from daecure import numkernel as nk
from daecure.errors import DimensionMismatch, SpectraOverlap, UnstableSystem
from daecure.interp import DeflatedSystem
from daecure.pork import RomRealization
from daecure.spark import SparkParams

#: finite/infinite classification threshold, applied after pencil scaling
EIG_INFINITE_CUTOFF = 1.0 / np.sqrt(np.finfo(float).eps)

# relative gap below which reduced poles count as multiple
POLE_SEP_TOL = 1e-8


class PencilDeflation:
    """Dense separation of a regular pencil into finite / infinite parts.

    Built from a reordered QZ decomposition: invertible XL, XR with
    ``XL @ E @ XR = blockdiag(Ef, Einf)`` and
    ``XL @ A @ XR = blockdiag(Af, Ainf)`` where (Ef, Af) carries the finite
    eigenvalues (Ef nonsingular).
    """

    def __init__(self, E, A, cutoff=EIG_INFINITE_CUTOFF):
        E = np.atleast_2d(np.asarray(E, dtype=float))
        A = np.atleast_2d(np.asarray(A, dtype=float))
        n = E.shape[0]
        nA = max(np.linalg.norm(A, "fro"), 1e-300)
        nE = max(np.linalg.norm(E, "fro"), 1e-300)

        def select(alpha, beta):
            return np.abs(beta) * nA > np.abs(alpha) * nE / cutoff

        SS, TT, alpha, beta, Q, Z = spla.ordqz(A, E, sort=select)
        nf = int(np.count_nonzero(select(alpha, beta)))
        self.n = n
        self.nf = nf
        S11, S12, S22 = SS[:nf, :nf], SS[:nf, nf:], SS[nf:, nf:]
        T11, T12, T22 = TT[:nf, :nf], TT[:nf, nf:], TT[nf:, nf:]
        if nf in (0, n):
            Rh = np.zeros((nf, n - nf))
            L = np.zeros((nf, n - nf))
        else:
            Rh, L, scale, _, info = lapack.dtgsyl(S11, S22, -S12, T11, T22, -T12)
            if info != 0:
                raise np.linalg.LinAlgError(f"tgsyl failed with info={info}")
            Rh = Rh / scale
            L = L / scale
        # XL = [[I, -L], [0, I]] @ Q^T,  XR = Z @ [[I, Rh], [0, I]]
        M = np.eye(n)
        M[:nf, nf:] = -L
        N = np.eye(n)
        N[:nf, nf:] = Rh
        self.XL = M @ Q.T
        self.XR = Z @ N
        self.Ef = T11
        self.Af = S11

    def projectors(self):
        """Dense finite spectral projectors (left, right)."""
        n, nf = self.n, self.nf
        Sel = np.zeros((n, n))
        Sel[:nf, :nf] = np.eye(nf)
        Pi_r = self.XR @ Sel @ np.linalg.inv(self.XR)
        Pi_l = np.linalg.inv(self.XL) @ Sel @ self.XL
        return Pi_l, Pi_r

    def finite_realization(self, B, C):
        """Standard-form ODE (A1, B1, C1) of the strictly proper part.

        G^sp(s) = C1 (s I - A1)^{-1} B1 with A1 = Ef^{-1} Af.
        """
        B = np.atleast_2d(np.asarray(B.toarray() if sps.issparse(B) else B, dtype=float))
        C = np.atleast_2d(np.asarray(C.toarray() if sps.issparse(C) else C, dtype=float))
        nf = self.nf
        Bt = (self.XL @ B)[:nf]
        A1 = spla.solve(self.Ef, self.Af)
        B1 = spla.solve(self.Ef, Bt)
        C1 = (C @ self.XR)[:, :nf]
        return A1, B1, C1


def qz_finite_std(obj):
    """Finite standard realization (A1, B1, C1) of the strictly proper part
    of a DaeSystem, DeflatedSystem or RomRealization by reordered QZ of its
    dense pencil, with the Gramian map-back factors XR[:, :nf] and
    Ef^-1 XL[:nf].  It shares no step with the projector route of
    ``h2analysis``; XL[:nf] B = XL[:nf] Pi_l B, so a system's raw input
    serves."""
    if isinstance(obj, RomRealization):
        E, A, B, C = obj.Er, obj.Ar, obj.Br, obj.Cr
    else:
        E, A, C = obj.E.toarray(), obj.A.toarray(), obj.C
        B = obj.B_defl if isinstance(obj, DeflatedSystem) else obj.B
    defl = PencilDeflation(E, A)
    nf = defl.nf
    A1, B1, C1 = defl.finite_realization(B, C)
    return A1, B1, C1, defl.XR[:, :nf], np.linalg.solve(defl.Ef,
                                                         defl.XL[:nf])


def qz_h2_norm(obj) -> float:
    """H2 norm of the strictly proper part in QZ finite coordinates."""
    return float(np.sqrt(max(h2_inner_sylvester_dense(obj, obj)[0], 0.0)))


def solve_dense_sylvester(A, B, C):
    """Solve A*X + X*B + C = 0 for dense A (m x m), B (k x k), C (m x k).

    Raises SpectraOverlap when spectra of A and -B are not disjoint to
    working precision.
    """
    A, B, C = (np.atleast_2d(np.asarray(M)) for M in (A, B, C))
    if A.shape[0] != A.shape[1] or B.shape[0] != B.shape[1]:
        raise DimensionMismatch("A and B must be square")
    if C.shape != (A.shape[0], B.shape[1]):
        raise DimensionMismatch("C must be m x k")
    la = spla.eigvals(A)
    lb = spla.eigvals(B)
    sep = np.abs(la[:, None] + lb[None, :]).min()
    scale = max(np.abs(la).max(initial=0.0), np.abs(lb).max(initial=0.0), 1.0)
    if sep <= 1e-12 * scale:
        raise SpectraOverlap(
            f"min |lambda(A) + lambda(B)| = {sep:.2e} (scale {scale:.2e})"
        )
    X = spla.solve_sylvester(A, B, -C)
    res = np.linalg.norm(A @ X + X @ B + C, "fro")
    bound = (
        np.linalg.norm(A, "fro") * np.linalg.norm(X, "fro")
        + np.linalg.norm(X, "fro") * np.linalg.norm(B, "fro")
        + np.linalg.norm(C, "fro")
    )
    if res > 1e-10 * max(bound, 1e-300):
        raise SpectraOverlap(f"Sylvester residual {res:.2e} exceeds contract")
    return X


def transfer(ds):
    """The transfer function s -> C (sE - A)^-1 B_defl of a DeflatedSystem
    (strictly proper by construction when B_defl is left-deflated)."""
    def G(s):
        return -(ds.C @ nk.ShiftedFactorization(ds.A, ds.E, s)
                 .solve(ds.B_defl))
    return G


@dataclass
class PoleResidueForm:
    """First-order pole-residue data: G(s) = sum_i c_i b_i / (s - pole_i)."""

    poles: np.ndarray      # (q,) complex
    b_rows: np.ndarray     # (q, m): row i is the input residue b_i
    c_cols: np.ndarray     # (p, q): column i is the output residue c_i


def rom_to_pole_residue(rom: RomRealization) -> PoleResidueForm:
    """Eigentriplet pole-residue decomposition of a reduced realization.

    Requires distinct finite poles; repeated poles raise ValueError.
    """
    w, vl, vr = spla.eig(rom.Ar, rom.Er, left=True, right=True)
    if not np.all(np.isfinite(w)):
        raise ValueError("reduced pencil has infinite eigenvalues")
    scale = max(np.abs(w).max(), 1.0)
    for i in range(w.size):
        for j in range(i + 1, w.size):
            if abs(w[i] - w[j]) <= POLE_SEP_TOL * scale:
                raise ValueError(
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
    for i in range(gm.poles.size):
        Gval = np.atleast_2d(eval_G(-np.conj(gm.poles[i])))
        val += gm.c_cols[:, i].conj() @ Gval @ gm.b_rows[i].conj()
    if abs(val.imag) <= 1e-12 * max(abs(val), 1.0):
        return float(val.real)
    return complex(val)


def h2_inner_sylvester_dense(sysA, sysB):
    """<G_A, G_B> by deflated Sylvester solves; returns (value, X, Y).

    Both arguments are brought to finite coordinates by QZ.  X and Y are
    the cross-Gramians mapped back to the original coordinates, so
    trace(C_A X C_B^H) = value = trace(B_A^H Y B_B) and X satisfies the
    right-projector constraint of the underlying projected Sylvester
    equation.
    """
    A1, B1, C1, XR1, R1 = qz_finite_std(sysA)
    A2, B2, C2, XR2, R2 = qz_finite_std(sysB)
    h2._check_stable(A1)
    h2._check_stable(A2)
    if B1.shape[1] != B2.shape[1] or C1.shape[0] != C2.shape[0]:
        raise DimensionMismatch("systems must share input/output counts")
    Xff = solve_dense_sylvester(A1, A2.conj().T, B1 @ B2.conj().T)
    Yff = solve_dense_sylvester(A1.conj().T, A2, C1.conj().T @ C2)
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


def h2_error_norm(ds, rom: RomRealization) -> float:
    """||G - G_r|| via an augmented error realization in QZ finite
    coordinates at desk scale."""
    A1, B1, C1, _, _ = qz_finite_std(ds)
    A2, B2, C2, _, _ = qz_finite_std(rom)
    val = h2._lyapunov_trace(spla.block_diag(A1, A2), np.vstack([B1, B2]),
                             np.hstack([C1, -C2]))
    return float(np.sqrt(max(val, 0.0)))


def check_orthogonality(ds, rom: RomRealization, pair, trials: int = 10,
                        seed: int = 0) -> float:
    """Max normalized |<G - G_r, G_M>| over random test models G_M.

    G_M ranges over C_M (s I + S^H)^-1 R^H with random C_M, i.e. all
    models sharing the reduced poles and input residue directions.  For a
    pseudo-optimal reduced model every inner product vanishes; values are
    normalized by ||G|| * ||G_M||.
    """
    rng = np.random.default_rng(seed)
    S, R = pair.S, pair.R
    norm_g = qz_h2_norm(ds)
    worst = 0.0
    for _ in range(trials):
        CM = rng.standard_normal((rom.p, S.shape[0]))
        gm = RomRealization(Er=np.eye(S.shape[0]), Ar=-S.conj().T,
                            Br=R.conj().T, Cr=CM)
        ip_err = h2_inner_pole_residue(
            lambda s: transfer(ds)(s) - rom.eval(s),
            rom_to_pole_residue(gm))
        worst = max(worst, abs(ip_err) / max(norm_g * qz_h2_norm(gm), 1e-300))
    return worst


def allpass_factor(rec) -> RomRealization:
    """The unit-feedthrough error factor (Er, Ar, Br, R, I) of one CURE
    step's record."""
    return RomRealization(Er=rec.rom.Er, Ar=rec.rom.Ar, Br=rec.rom.Br,
                          Cr=rec.params.R, Dr=np.eye(rec.rom.m))


def trace_derivatives(ds, a, b, hessian=True):
    """(J, gradient, Hessian) of J(a, b) = -tr(Cr G Cr^T) at the shift pair
    (a, b), one trace product per term, from the solves of a
    ``SylvesterContext``; the Hessian is None without ``hessian``.  These
    are the formulas ``spark.evaluate`` contracts into one."""
    pair = SparkParams(a, b)
    ctx = nk.SylvesterContext(ds.A, ds.E, pair.S)
    E = ds.E
    S_a = np.array([[1.0, 0.0], [2 * a, 1.0]])
    S_b = np.array([[0.0, 0.0], [-1.0, 0.0]])
    S_aa = np.array([[0.0, 0.0], [2.0, 0.0]])
    V = ctx.solve(ds.B_defl @ pair.R)
    Va = ctx.solve(E @ (V @ S_a))
    Vb = ctx.solve(E @ (V @ S_b))
    Cr, Ca, Cb = (ds.C @ X for X in (V, Va, Vb))
    G = np.array([[4 * a, 4 * a * a], [4 * a * a, 4 * a * (a * a + b)]])
    Ga = np.array([[4.0, 8 * a], [8 * a, 12 * a * a + 4 * b]])
    Gb = np.array([[0.0, 0.0], [0.0, 4 * a]])

    def tr(X, M, Y):
        return float(np.trace(X @ M @ Y.T))

    J = -tr(Cr, G, Cr)
    g = np.array([-2 * tr(Ca, G, Cr) - tr(Cr, Ga, Cr),
                  -2 * tr(Cb, G, Cr) - tr(Cr, Gb, Cr)])
    if not hessian:
        return J, g, None
    Vaa = ctx.solve(E @ (2 * Va @ S_a + V @ S_aa))
    Vab = ctx.solve(E @ (Va @ S_b + Vb @ S_a))
    Vbb = ctx.solve(E @ (2 * Vb @ S_b))
    Caa, Cab, Cbb = (ds.C @ X for X in (Vaa, Vab, Vbb))
    Gaa = np.array([[0.0, 8.0], [8.0, 24 * a]])
    Gab = np.array([[0.0, 0.0], [0.0, 4.0]])
    Gbb = np.zeros((2, 2))

    def second(Cij, Ci, Cj, Gi, Gj, Gij):
        return -2 * (tr(Cij, G, Cr) + tr(Ci, G, Cj) + tr(Ci, Gj, Cr)
                     + tr(Cj, Gi, Cr)) - tr(Cr, Gij, Cr)

    Hab = second(Cab, Ca, Cb, Ga, Gb, Gab)
    H = np.array([[second(Caa, Ca, Ca, Ga, Ga, Gaa), Hab],
                  [Hab, second(Cbb, Cb, Cb, Gb, Gb, Gbb)]])
    return J, g, H


def sylvester_residual(ds, V, pair) -> float:
    """Relative residual of A V - E V S = B R for a candidate basis of the
    shift pair ``pair``."""
    S, R = pair.S, pair.R
    if V.shape != (ds.n, S.shape[0]) or R.shape[0] != ds.m:
        raise DimensionMismatch("basis/pair shapes inconsistent with system")
    res = ds.A @ V - ds.E @ (V @ S) - ds.B_defl @ R
    nV = np.linalg.norm(V)
    scale = (
        np.linalg.norm(ds.A.data) * nV
        + np.linalg.norm(ds.E.data) * nV * np.linalg.norm(S)
        + np.linalg.norm(ds.B_defl) * np.linalg.norm(R)
    )
    return float(np.linalg.norm(res) / max(scale, 1e-300))
