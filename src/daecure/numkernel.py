"""Numeric primitives: shifted solves, the sparse-dense Sylvester solver
and a small dense Lyapunov solver.

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


#: largest order of a sparse system that is densified (for its H2 norm)
DENSE_LIMIT = 500


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
