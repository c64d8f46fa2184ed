"""Numeric primitives: shifted solves, small dense Sylvester/Lyapunov
solvers and dense generalized eigenvalue machinery.

Sparse matrices are held in SciPy CSC format throughout (duplicate entries
are summed on conversion; stored shape is the declared shape).  Dense
reduced-order quantities are plain ``numpy.ndarray``; a pencil given as
two of them (a Galerkin surrogate) stays dense and gets LAPACK LUs.
"""

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sps
import scipy.sparse.linalg as spsla
from scipy.linalg import lapack

from .errors import (
    DimensionMismatch,
    NotAntistable,
    SingularPencil,
    SingularShift,
    SpectraOverlap,
)

#: relative residual guaranteed by a ShiftedFactorization solve
TOL_SOLVE = 1e-10

#: Schur diagonal entries of a real S conjugate to within this (relative
#: to ||S||; complex Schur is off by a few ulps) share one factorization
CONJ_TOL = 1e-12


def as_csc(M):
    """Return ``M`` as a CSC matrix with duplicates summed."""
    M = sps.csc_matrix(M)
    M.sum_duplicates()
    return M


def _pencil(A, E):
    """(A, E) as they are when both are dense arrays, else both as CSC."""
    if isinstance(A, np.ndarray) and isinstance(E, np.ndarray):
        return A, E
    return as_csc(A), as_csc(E)


class DenseLU:
    """LAPACK getrf LU of a dense square matrix, with SuperLU's
    ``solve(b, trans)`` for trans "N" or "T".  Raises RuntimeError, as
    ``splu`` does, on an exact zero pivot or a non-finite factor."""

    def __init__(self, M):
        getrf, self._getrs = lapack.get_lapack_funcs(("getrf", "getrs"), (M,))
        self._lu, self._piv, info = getrf(M)
        if info != 0 or not np.isfinite(self._lu).all():
            raise RuntimeError(f"dense LU failed (getrf info={info})")

    def solve(self, b, trans="N"):
        x, _ = self._getrs(self._lu, self._piv, b, trans=int(trans == "T"))
        return x


class ShiftedFactorization:
    """Direct factorization of (A - sigma*E) with residual-checked solves:
    SuperLU for a sparse pencil, LAPACK for a dense one (see ``_pencil``).

    A factorization may be used from one execution context at a time;
    distinct factorizations are independent.
    """

    def __init__(self, A, E, sigma):
        A, E = _pencil(A, E)
        dense = isinstance(A, np.ndarray)
        if A.shape != E.shape or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(
                f"A {A.shape} and E {E.shape} must be square and equal-sized"
            )
        self.sigma = complex(sigma)
        self.n = A.shape[0]
        self._A = A
        self._E = E
        if self.sigma.imag == 0.0:
            M = A - self.sigma.real * E
        else:
            M = A.astype(complex) - self.sigma * E
        self._M = M if dense else as_csc(M)
        try:
            self._lu = (DenseLU if dense else spsla.splu)(self._M)
        except RuntimeError as exc:
            raise SingularShift(
                f"factorization of (A - {sigma}*E) failed: {exc}"
            ) from exc

    def solve(self, rhs, trans="N"):
        """Solve (A - sigma*E) x = rhs (or the transposed system).

        ``rhs`` is an (n,) vector or an (n, k) block.  Each column whose
        residual misses ``TOL_SOLVE`` relative to its own right-hand side
        gets one step of iterative refinement; raises SingularShift if a
        column still misses the bound.  A complex block on a real
        factorization is solved as one real block [Re | Im].
        """
        rhs = np.asarray(rhs)
        b = rhs.reshape(self.n, -1)
        split = np.iscomplexobj(b) and not np.iscomplexobj(self._M)
        if split:
            b = np.hstack([b.real, b.imag])
        b = b.astype(self._M.dtype, copy=False)
        M = self._M if trans == "N" else self._M.T
        x = self._lu.solve(b, trans=trans)
        nb = np.linalg.norm(b, axis=0)
        refine = ~(np.linalg.norm(b - M @ x, axis=0) <= TOL_SOLVE * nb)
        if refine.any():
            x[:, refine] += self._lu.solve(b[:, refine] - M @ x[:, refine],
                                           trans=trans)
            rel = np.linalg.norm(b[:, refine] - M @ x[:, refine], axis=0) \
                / np.maximum(nb[refine], 1e-300)
            if not np.all(rel <= TOL_SOLVE):
                raise SingularShift(
                    f"residual {np.max(rel):.2e} exceeds {TOL_SOLVE:.0e} "
                    f"for shift {self.sigma}"
                )
        if split:
            k = x.shape[1] // 2
            x = x[:, :k] + 1j * x[:, k:]
        return x.reshape(rhs.shape)


class ConjugateFactorization:
    """(A - conj(sigma) E) for real A, E, solved through the factorization
    at sigma: its solution is conj of (A - sigma E)^-1 conj(b), which
    meets the same ``TOL_SOLVE`` contract without a second LU."""

    def __init__(self, fac: ShiftedFactorization):
        if np.iscomplexobj(fac._A) or np.iscomplexobj(fac._E):
            raise DimensionMismatch("conjugate sharing needs real A and E")
        self._fac = fac
        self.sigma = fac.sigma.conjugate()

    def solve(self, rhs, trans="N"):
        return np.conj(self._fac.solve(np.conj(rhs), trans=trans))


def solve_dense_sylvester(A, B, C):
    """Solve A*X + X*B + C = 0 for dense A (m x m), B (k x k), C (m x k).

    Raises SpectraOverlap when spectra of A and -B are not disjoint to
    working precision.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float if not np.iscomplexobj(A) else complex))
    B = np.atleast_2d(np.asarray(B, dtype=float if not np.iscomplexobj(B) else complex))
    C = np.atleast_2d(np.asarray(C, dtype=float if not np.iscomplexobj(C) else complex))
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


def solve_small_lyapunov(S, R):
    """Solve S* Gamma + Gamma S - R* R = 0 for antistable S.

    Returns the Hermitian positive definite solution, symmetrized by
    averaging.  Raises NotAntistable if an eigenvalue of S has nonpositive
    real part.
    """
    S = np.atleast_2d(np.asarray(S))
    R = np.atleast_2d(np.asarray(R))
    if R.shape[1] != S.shape[0]:
        raise DimensionMismatch("R must have as many columns as S")
    ev = spla.eigvals(S)
    if np.any(ev.real <= 0):
        raise NotAntistable(f"eigenvalues of S not in open RHP: {ev}")
    Q = R.conj().T @ R
    G = spla.solve_sylvester(S.conj().T, S, Q)
    G = 0.5 * (G + G.conj().T)
    if not np.iscomplexobj(S) and not np.iscomplexobj(R):
        G = G.real
    res = np.linalg.norm(S.conj().T @ G + G @ S - Q, "fro")
    if res > 1e-12 * max(np.linalg.norm(Q, "fro"), np.linalg.norm(G, "fro"), 1e-300):
        raise SpectraOverlap(f"Lyapunov residual {res:.2e} exceeds contract")
    return G


#: largest full-order size a dense oracle (QZ deflation, dense
#: eigenvalues) is run on
DENSE_LIMIT = 500

#: finite/infinite classification threshold, applied after pencil scaling
EIG_INFINITE_CUTOFF = 1.0 / np.sqrt(np.finfo(float).eps)


def _check_regular(E, A, n_probe=3, tol=1e-12):
    rng = np.random.default_rng(1234)
    n = E.shape[0]
    scale = max(np.linalg.norm(A, "fro"), np.linalg.norm(E, "fro"), 1e-300)
    for _ in range(n_probe):
        lam = rng.standard_normal() + 1j * rng.standard_normal()
        s = np.linalg.svd(lam * E - A, compute_uv=False)
        if s[-1] > tol * scale:
            return
    raise SingularPencil("det(lambda*E - A) vanishes on all probe points")


class PencilDeflation:
    """Dense separation of a regular pencil into finite / infinite parts.

    Built from a reordered QZ decomposition: invertible XL, XR with
    ``XL @ E @ XR = blockdiag(Ef, Einf)`` and
    ``XL @ A @ XR = blockdiag(Af, Ainf)`` where (Ef, Af) carries the finite
    eigenvalues (Ef nonsingular).  Desk-scale oracle only; never used on
    large systems.  Its one pipeline caller is ``h2analysis._finite_std``
    for a reduced realization with singular Er (``daecure h2norm`` of an
    index-1 ROM directory); a system's finite coordinates come from its
    saddle-point projectors instead.
    """

    def __init__(self, E, A, cutoff=None):
        E = np.atleast_2d(np.asarray(E, dtype=float))
        A = np.atleast_2d(np.asarray(A, dtype=float))
        if cutoff is None:
            cutoff = EIG_INFINITE_CUTOFF
        _check_regular(E, A)
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
                raise SingularPencil(f"tgsyl failed with info={info}")
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
        self.Einf = T22
        self.Ainf = S22

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


class SylvesterContext:
    """Solver for the sparse-dense Sylvester equation A*X - E*X*S = F.

    S is small (q x q); a complex Schur form of S decouples the columns into
    q shifted sparse solves, which remains well defined for defective S
    (confluent shifts).  Factorizations are reused across right-hand sides.
    For real A, E and S, a Schur diagonal entry within ``CONJ_TOL`` of the
    conjugate of an earlier one becomes that exact conjugate and shares
    its factorization, so a conjugate shift pair costs one complex LU.
    """

    def __init__(self, A, E, S):
        self.A, self.E = _pencil(A, E)
        S = np.atleast_2d(np.asarray(S))
        self.S = S
        self.T, self.U = spla.schur(S.astype(complex), output="complex")
        real = not any(map(np.iscomplexobj, (self.A, self.E, S)))
        tol = CONJ_TOL * np.linalg.norm(S)
        self.factors = []
        for j in range(S.shape[0]):
            sigma = self.T[j, j]
            fac = next((f for f in self.factors
                        if real and sigma.imag != 0.0
                        and isinstance(f, ShiftedFactorization)
                        and abs(sigma - f.sigma.conjugate()) <= tol), None)
            if fac is None:
                fac = ShiftedFactorization(self.A, self.E, sigma)
            else:
                fac = ConjugateFactorization(fac)
                self.T[j, j] = fac.sigma
            self.factors.append(fac)

    def solve(self, F):
        """Return X with A X - E X S = F; real when the inputs are real.

        ``F`` is one n x q right-hand side or a stack of k of them, shape
        (k, n, q); X has the shape of ``F``.  Schur column j of all k
        equations is one block solve with ``factors[j]``.
        """
        F = np.asarray(F)
        Fs = F if F.ndim == 3 else np.atleast_2d(F)[None]
        n, q = self.A.shape[0], self.S.shape[0]
        if Fs.shape[1:] != (n, q):
            raise DimensionMismatch(f"F must be {n} x {q} or k x {n} x {q}")
        Ft = Fs.astype(complex) @ self.U
        Xt = np.zeros(Ft.shape, dtype=complex)
        for j in range(q):
            rhs = Ft[:, :, j].T
            if j > 0:
                rhs = rhs + self.E @ (Xt[:, :, :j] @ self.T[:j, j]).T
            Xt[:, :, j] = self.factors[j].solve(rhs).T
        X = Xt @ self.U.conj().T
        if not np.iscomplexobj(self.S) and not np.iscomplexobj(F):
            # the exact solution is real; accept the real cast only if it
            # still solves each equation (guards against genuine breakdown)
            X = np.ascontiguousarray(X.real)
            for Xi, Fi in zip(X, Fs):
                AX = self.A @ Xi
                res = AX - self.E @ (Xi @ self.S) - Fi
                if np.abs(res).max() > 1e-8 * (np.abs(AX).max()
                                               + np.abs(Fi).max() + 1e-300):
                    raise SpectraOverlap(
                        "real Sylvester problem produced a complex solution"
                    )
        return X if F.ndim == 3 else X[0]
