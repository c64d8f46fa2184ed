"""Numeric primitives: shifted solves and the Sylvester solvers.

Sparse matrices are held in SciPy CSC format throughout (duplicate entries
are summed on conversion; stored shape is the declared shape).  Dense
reduced-order quantities are plain ``numpy.ndarray``; a pencil given as
two of them gets LAPACK LUs.  That covers a Galerkin surrogate, and a
full pencil of order at most ``DENSE_LIMIT`` whose SuperLU factors fill
at least ``DENSE_FILL`` of n^2 (``cheapest_pencil``): LAPACK's dense LU
is then the cheaper exact kernel.

``SylvesterContext`` solves A X - E X S = F through a Schur form of S
with the fewest shifted LUs and triangular solves its shifts allow:
real Schur data for real shifts, one LU per conjugate pair or repeated
shift, and one complex solve per conjugate pair of order two.  Its LUs
certify an interpolation step.  ``KroneckerSylvester`` solves the same
equation for a small dense pencil, a Galerkin surrogate's, with one real
LU of I kron A - S^T kron E.
"""

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sps
import scipy.sparse.linalg as spsla
from scipy.linalg import lapack

from .errors import DimensionMismatch, SingularShift, SpectraOverlap

#: relative residual guaranteed by a ShiftedFactorization solve
TOL_SOLVE = 1e-10

#: Schur diagonal entries equal, or for real data conjugate, to within
#: this (relative to ||S||; complex Schur is off by a few ulps) share one
#: factorization
CONJ_TOL = 1e-12


def as_csc(M):
    """Return ``M`` as a CSC matrix with duplicates summed."""
    M = sps.csc_matrix(M)
    M.sum_duplicates()
    return M


def _dense_matmul(A, x):
    """A @ x for a dense A; a complex x on a real A is one real product
    over the interleaved real and imaginary parts, without a complex copy
    of A."""
    if np.iscomplexobj(x) and not np.iscomplexobj(A):
        x = np.ascontiguousarray(x)
        return (A @ x.view(np.float64)).view(np.complex128)
    return A @ x


def _pencil(A, E):
    """(A, E) as they are when both are dense arrays, else both as CSC."""
    if isinstance(A, np.ndarray) and isinstance(E, np.ndarray):
        return A, E
    return as_csc(A), as_csc(E)


class DenseLU:
    """LAPACK getrf LU of a dense square matrix, with SuperLU's
    ``solve(b)``; a Fortran-ordered M is factored in place.  Raises
    RuntimeError, as ``splu`` does, on an exact zero pivot or a
    non-finite factor."""

    def __init__(self, M):
        getrf, self._getrs = lapack.get_lapack_funcs(("getrf", "getrs"), (M,))
        self._lu, self._piv, info = getrf(M, overwrite_a=True)
        if info != 0 or not np.isfinite(self._lu).all():
            raise RuntimeError(f"dense LU failed (getrf info={info})")

    def solve(self, b):
        x, _ = self._getrs(self._lu, self._piv, b)
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
        self._s = self.sigma if self.sigma.imag else self.sigma.real
        self.dtype = np.result_type(A.dtype, E.dtype, self._s)
        if dense:
            # the LU overwrites M, and residuals are taken with A and E; a
            # real E forms M with real temporaries only
            M = np.array(A, dtype=self.dtype, order="F")
            if np.iscomplexobj(E):
                M -= self._s * E
            else:
                M.real -= self.sigma.real * E
                if self.sigma.imag:
                    M.imag -= self.sigma.imag * E
            self._M = None
        else:
            self._M = as_csc(A.astype(self.dtype, copy=False) - self._s * E)
        try:
            self._lu = DenseLU(M) if dense else spsla.splu(self._M)
        except RuntimeError as exc:
            raise SingularShift(
                f"factorization of (A - {sigma}*E) failed: {exc}"
            ) from exc

    def _apply(self, x):
        """(A - sigma*E) x."""
        if self._M is not None:
            return self._M @ x
        return _dense_matmul(self._A, x) - self._s * _dense_matmul(self._E, x)

    def solve(self, rhs):
        """Solve (A - sigma*E) x = rhs.

        ``rhs`` is an (n,) vector or an (n, k) block, solved under the
        residual contract of ``_gated_solve``.
        """
        rhs = np.asarray(rhs)
        x = _gated_solve(self._lu, self._apply, self.dtype,
                         rhs.reshape(self.n, -1), f"shift {self.sigma}")
        return x.reshape(rhs.shape)


def _gated_solve(lu, apply, dtype, b, what):
    """x with apply(x) = b for an (N, k) block b, from the LU ``lu`` (of
    dtype ``dtype``) of the matrix that ``apply`` multiplies by.

    Each column whose residual misses ``TOL_SOLVE`` relative to its own
    right-hand side gets one step of iterative refinement; raises
    SingularShift, naming ``what``, if a column still misses the bound.
    A solve or residual that overflows or is NaN misses it too, silently.
    A complex block on a real LU is solved as one real block [Re | Im].
    """
    split = np.iscomplexobj(b) and dtype.kind != "c"
    if split:
        b = np.hstack([b.real, b.imag])
    b = b.astype(dtype, copy=False)
    x = lu.solve(b)
    nb = np.linalg.norm(b, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        refine = ~(np.linalg.norm(b - apply(x), axis=0) <= TOL_SOLVE * nb)
        if refine.any():
            x[:, refine] += lu.solve(b[:, refine] - apply(x[:, refine]))
            rel = np.linalg.norm(b[:, refine] - apply(x[:, refine]),
                                 axis=0) / np.maximum(nb[refine], 1e-300)
            if not np.all(rel <= TOL_SOLVE):
                raise SingularShift(
                    f"residual {np.max(rel):.2e} exceeds {TOL_SOLVE:.0e} "
                    f"for {what}"
                )
    if split:
        k = x.shape[1] // 2
        x = x[:, :k] + 1j * x[:, k:]
    return x


class ConjugateFactorization:
    """(A - conj(sigma) E) for real A, E, solved through the factorization
    at sigma: its solution is conj of (A - sigma E)^-1 conj(b), which
    meets the same ``TOL_SOLVE`` contract without a second LU."""

    def __init__(self, fac: ShiftedFactorization):
        if np.iscomplexobj(fac._A) or np.iscomplexobj(fac._E):
            raise DimensionMismatch("conjugate sharing needs real A and E")
        #: the factorization at sigma that every solve goes through
        self.base = fac
        self.sigma = fac.sigma.conjugate()

    def solve(self, rhs):
        return np.conj(self.base.solve(np.conj(rhs)))


#: largest order of a sparse system that is densified: for its H2 norm,
#: and for LAPACK LUs of a densely filled pencil (``cheapest_pencil``)
DENSE_LIMIT = 500

#: share of n^2 entries in the SuperLU factors of a pencil from which its
#: LUs are dense ones.  On the benchmark systems any cut in 0.25-0.75
#: decides alike: index-1 250/50 fills 83 % (getrf is 3-4x faster there),
#: Stokes m=12 fills 11 % (getrf is 3.6x slower)
DENSE_FILL = 0.5

#: a conjugate pair of order two recovers the real X from Schur column 0
#: only while [Re u0, Im u0], u0 that column's Schur vector, has at most
#: this condition number.  The recovery amplifies the solve's rounding by
#: about that much.  For S(a, b) it is max(d, 1/d), d = sqrt(b - a^2),
#: so it grows toward confluence (it is 100 at the start pair (1e-4, 1e-4))
RECOVER_COND = 1e3


def cheapest_pencil(A, E, fac: ShiftedFactorization):
    """(A, E) as dense arrays if LAPACK LUs are the cheaper kernel for
    this pencil, else as given.

    Decided on ``fac``, a factorization of A - sigma E for one sigma:
    dense when n <= ``DENSE_LIMIT`` and its SuperLU factors hold at least
    ``DENSE_FILL`` n^2 entries, as SuperLU counts them (``nnz``, without
    copying L and U out).  A dense pencil stays dense.
    """
    lu, n = fac._lu, fac.n
    if isinstance(lu, DenseLU) or n > DENSE_LIMIT \
            or lu.nnz < DENSE_FILL * n * n:
        return A, E
    return A.toarray(), E.toarray()


class SylvesterContext:
    """Solver for the sparse-dense Sylvester equation A*X - E*X*S = F.

    S is small (q x q); a Schur form of S decouples the columns into q
    shifted solves, which remains well defined for defective S (confluent
    shifts).  Factorizations are reused across right-hand sides, and
    Schur diagonal entries equal within ``CONJ_TOL`` (relative to ||S||)
    share one.  For real A, E and S:

    - real eigenvalues give a triangular real Schur form, and the columns
      are solved in real arithmetic;
    - otherwise the complex Schur form is used, and an entry within
      ``CONJ_TOL`` of the conjugate of an earlier one becomes that exact
      conjugate and shares its factorization, so a conjugate pair costs
      one complex LU.  For q = 2 and a real F, Schur column 0 alone fixes
      the real X = [Re x0, Im x0] [Re u0, Im u0]^-1: one complex solve,
      taken while that 2 x 2 matrix is conditioned within
      ``RECOVER_COND``.
    """

    def __init__(self, A, E, S):
        self.A, self.E = _pencil(A, E)
        S = np.atleast_2d(np.asarray(S))
        self.S = S
        real = not any(map(np.iscomplexobj, (self.A, self.E, S)))
        if real:
            self.T, self.U = spla.schur(S, output="real")
        if not real or np.tril(self.T, -1).any():
            self.T, self.U = spla.schur(S.astype(complex), output="complex")
        tol = CONJ_TOL * np.linalg.norm(S)
        self.factors = []
        for j in range(S.shape[0]):
            sigma = self.T[j, j]
            fac = next((f for f in self.factors
                        if abs(sigma - f.sigma) <= tol), None)
            if fac is None and real and sigma.imag != 0.0:
                fac = next((ConjugateFactorization(f) for f in self.factors
                            if isinstance(f, ShiftedFactorization)
                            and abs(sigma - f.sigma.conjugate()) <= tol),
                           None)
            if fac is None:
                fac = ShiftedFactorization(self.A, self.E, sigma)
            else:
                self.T[j, j] = fac.sigma if np.iscomplexobj(self.T) \
                    else fac.sigma.real
            self.factors.append(fac)
        self._recover = None
        if real and S.shape[0] == 2 \
                and isinstance(self.factors[1], ConjugateFactorization):
            u0 = self.U[:, 0]
            P = np.column_stack([u0.real, u0.imag])
            if np.linalg.cond(P) <= RECOVER_COND:
                self._recover = np.linalg.inv(P)

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
        if self._recover is not None and not np.iscomplexobj(Fs):
            # the real X maps u0 to Schur column 0: X [Re u0, Im u0] =
            # [Re x0, Im x0]
            x0 = self.factors[0].solve((Fs @ self.U[:, 0]).T).T
            X = np.stack([x0.real, x0.imag], axis=-1) @ self._recover
        else:
            Ft = Fs @ self.U
            Xt = np.zeros(Ft.shape, dtype=Ft.dtype)
            for j in range(q):
                rhs = Ft[:, :, j].T
                if j > 0:
                    rhs = rhs + self.E @ (Xt[:, :, :j] @ self.T[:j, j]).T
                Xt[:, :, j] = self.factors[j].solve(rhs).T
            X = Xt @ self.U.conj().T
        if not any(map(np.iscomplexobj, (self.A, self.E, self.S, F))):
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


class KroneckerSylvester:
    """Solver for A X - E X S = F with a small dense pencil (A, E), n x n,
    and S q x q: one LAPACK LU of the qn x qn matrix I kron A - S^T kron E
    that maps vec(X) to vec(F) (columns stacked).

    It needs no Schur form of S, so it stays smooth through confluent
    shifts, and a real problem is solved in real arithmetic.  Solves keep
    the ``TOL_SOLVE`` contract of ``ShiftedFactorization`` per right-hand
    side; an exact zero pivot, or a residual that refinement does not
    bring within it, raises SingularShift, as at a shift that is an
    eigenvalue of the pencil.
    """

    def __init__(self, A, E, S):
        A, E = np.asarray(A), np.asarray(E)
        S = np.atleast_2d(np.asarray(S))
        n, q = A.shape[0], S.shape[0]
        if A.shape != (n, n) or E.shape != (n, n) or S.shape != (q, q):
            raise DimensionMismatch(
                f"A {A.shape} and E {E.shape} must be square and "
                f"equal-sized, S {S.shape} square")
        self.A, self.E, self.S = A, E, S
        # block (i, j) of the matrix is delta_ij A - S[j, i] E; its
        # Fortran-ordered storage is the C-ordered (q, n, q, n) array
        # with entry [j, b, i, a] = (delta_ij A - S[j, i] E)[a, b]
        K = (-S[:, None, :, None] * E.T[None, :, None, :]).astype(
            np.result_type(A, E, S), copy=False)
        for i in range(q):
            K[i, :, i, :] += A.T
        K = K.reshape(q * n, q * n).T
        self._K = K.copy(order="F")
        try:
            self._lu = DenseLU(K)
        except RuntimeError as exc:
            raise SingularShift(
                f"factorization of I kron A - S^T kron E failed: {exc}"
            ) from exc

    def solve(self, F):
        """Return X with A X - E X S = F.

        ``F`` is one n x q right-hand side or a stack of k of them, shape
        (k, n, q), solved as one block of k columns vec(F_i); X has the
        shape of ``F``.
        """
        F = np.asarray(F)
        Fs = F if F.ndim == 3 else np.atleast_2d(F)[None]
        n, q = self.A.shape[0], self.S.shape[0]
        if Fs.shape[1:] != (n, q):
            raise DimensionMismatch(f"F must be {n} x {q} or k x {n} x {q}")
        k = Fs.shape[0]
        b = Fs.transpose(0, 2, 1).reshape(k, q * n).T
        x = _gated_solve(self._lu, self._K.dot, self._K.dtype, b,
                         "the Kronecker system")
        X = x.T.reshape(k, q, n).transpose(0, 2, 1)
        return X if F.ndim == 3 else X[0]
