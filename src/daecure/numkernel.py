"""Numeric primitives: shifted solves and the Sylvester solvers.

Sparse matrices are held in SciPy CSC format throughout (duplicate entries
are summed on conversion; stored shape is the declared shape).  Dense
reduced-order quantities are plain ``numpy.ndarray``; a pencil given as
two of them gets LAPACK LUs.  That covers a Galerkin surrogate, and a
full pencil of order at most ``DENSE_LIMIT`` whose SuperLU factors fill
at least ``DENSE_FILL`` of n^2 (``cheapest_pencil``): LAPACK's dense LU
is then the cheaper exact kernel.

Both Sylvester solvers take a shift pair (``spark.SparkParams``) and
solve A X - E X S = F for its S = S(a, b).  ``SylvesterContext`` does so
through the pair's closed-form Schur data with the fewest shifted LUs
and triangular solves the pair allows: two real LUs for a real pair, one
for a confluent one, and one complex LU and solve for a conjugate pair.
Its LUs, one per shift up to conjugation, certify an interpolation step.
``KroneckerSylvester`` solves the same equation for a small dense pencil,
a Galerkin surrogate's, with one real LU of I kron A - S^T kron E.
"""

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spsla
from scipy.linalg import lapack

from .errors import DimensionMismatch, SingularShift, SpectraOverlap

#: relative residual guaranteed by a ShiftedFactorization solve
TOL_SOLVE = 1e-10


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
        x = _gated_solve(self._lu.solve, self._apply, self.dtype,
                         rhs.reshape(self.n, -1), f"shift {self.sigma}")
        return x.reshape(rhs.shape)


def _gated_solve(solve, apply, dtype, b, what):
    """x with apply(x) = b for an (N, k) block b, from ``solve``, an LU
    solve (in dtype ``dtype``) with the matrix that ``apply`` multiplies
    by.

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
    x = solve(b)
    nb = np.linalg.norm(b, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        refine = ~(np.linalg.norm(b - apply(x), axis=0) <= TOL_SOLVE * nb)
        if refine.any():
            x[:, refine] += solve(b[:, refine] - apply(x[:, refine]))
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


#: largest order of a sparse system that is densified: for its H2 norm,
#: and for LAPACK LUs of a densely filled pencil (``cheapest_pencil``)
DENSE_LIMIT = 500

#: share of n^2 entries in the SuperLU factors of a pencil from which its
#: LUs are dense ones.  On the benchmark systems any cut in 0.25-0.75
#: decides alike: index-1 250/50 fills 83 % (getrf is 3-4x faster there),
#: Stokes m=12 fills 11 % (getrf is 3.6x slower)
DENSE_FILL = 0.5

#: a conjugate pair recovers the real X from Schur column 0 only while
#: max(|d|, 1/|d|), d = sqrt(a^2 - b), is at most this: the condition
#: number of [Re u0, Im u0] for that column's Schur vector u0 = (1, d) / c.
#: The recovery amplifies the solve's rounding by about that much, so it
#: grows toward confluence (it is 100 at the start pair (1e-4, 1e-4))
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
    """Solver for the sparse-dense Sylvester equation A X - E X S = F,
    S = S(a, b) of a shift pair ``pair`` (``spark.SparkParams``).

    The pair's closed-form Schur data S = U T U^H decouple the two
    columns of Y = X U into shifted solves, column j at
    ``pair.shifts()[j]``.  ``factors`` holds one LU per shift up to
    conjugation, reused across right-hand sides: two real LUs for a real
    pair, in ``shifts()`` order, solved in real arithmetic; one LU for a
    confluent pair, b = a^2, whose shifts are equal; one complex LU at
    the first shift for a conjugate pair, which needs real A and E: the
    second column's solve is conj((A - sigma E)^-1 conj(r)).  For a
    conjugate pair and a real F, column 0 alone gives the real
    X = [Re y, Im y / |d|], where d = sqrt(a^2 - b) and
    (A - (a + d) E) y = F (1, d)^T: one complex solve, taken while
    max(|d|, 1/|d|) <= ``RECOVER_COND``.
    """

    def __init__(self, A, E, pair):
        self.A, self.E = _pencil(A, E)
        self.S = pair.S
        self.T, self.U = pair.schur()
        s0, s1 = pair.shifts()
        conjugate = np.iscomplexobj(s0)
        if conjugate and (np.iscomplexobj(self.A)
                          or np.iscomplexobj(self.E)):
            raise DimensionMismatch("a conjugate pair needs real A and E")
        self.factors = [ShiftedFactorization(self.A, self.E, s0)]
        if not conjugate and s1 != s0:
            self.factors.append(ShiftedFactorization(self.A, self.E, s1))
        d = abs(s0.imag)
        self._recover = d if conjugate and max(d, 1 / d) <= RECOVER_COND \
            else None

    def solve(self, F):
        """Return X with A X - E X S = F; real when F is real.

        ``F`` is one n x 2 right-hand side or a stack of k of them, shape
        (k, n, 2); X has the shape of ``F``.  Column j of all k equations
        is one block solve.
        """
        F = np.asarray(F)
        Fs = F if F.ndim == 3 else F[None]
        real = not np.iscomplexobj(Fs)
        fac = self.factors[0]
        if self._recover is not None and real:
            # y = X (1, d)^T = X[:, 0] + i |d| X[:, 1]
            d = self._recover
            y = fac.solve((Fs[:, :, 0] + 1j * d * Fs[:, :, 1]).T).T
            X = np.stack([y.real, y.imag / d], axis=-1)
        else:
            Ft = Fs @ self.U
            y0 = fac.solve(Ft[:, :, 0].T)
            r1 = Ft[:, :, 1].T + self.T[0, 1] * (self.E @ y0)
            if fac.sigma.imag:
                y1 = np.conj(fac.solve(np.conj(r1)))
            else:
                y1 = self.factors[-1].solve(r1)
            X = np.stack([y0.T, y1.T], axis=-1) @ self.U.conj().T
        if real:
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
    and S = S(a, b) of a shift pair ``pair`` (``spark.SparkParams``): one
    LAPACK LU of the 2n x 2n matrix I kron A - S^T kron E that maps vec(X)
    to vec(F) (columns stacked).

    It needs no Schur form of S, so it stays smooth through confluent
    shifts, and a real problem is solved in real arithmetic.  Solves keep
    the ``TOL_SOLVE`` contract of ``ShiftedFactorization`` per right-hand
    side; an exact zero pivot, or a residual that refinement does not
    bring within it, raises SingularShift, as at a shift that is an
    eigenvalue of the pencil.
    """

    def __init__(self, A, E, pair):
        A, E, S = np.asarray(A), np.asarray(E), pair.S
        self.n = n = A.shape[0]
        # block (i, j) of the matrix is delta_ij A - S[j, i] E; its
        # Fortran-ordered storage is the C-ordered (2, n, 2, n) array
        # with entry [j, b, i, a] = (delta_ij A - S[j, i] E)[a, b]
        K = -S[:, None, :, None] * E.T[None, :, None, :]
        for i in range(2):
            K[i, :, i, :] += A.T
        K = K.reshape(2 * n, 2 * n).T
        self._K = K.copy(order="F")
        try:
            self._lu = DenseLU(K)
        except RuntimeError as exc:
            raise SingularShift(
                f"factorization of I kron A - S^T kron E failed: {exc}"
            ) from exc

    def solve(self, F):
        """Return X with A X - E X S = F.

        ``F`` is one n x 2 right-hand side or a stack of k of them, shape
        (k, n, 2), solved as one block of k columns vec(F_i); X has the
        shape of ``F``.
        """
        F = np.asarray(F)
        Fs = F if F.ndim == 3 else F[None]
        n = self.n
        if Fs.shape[1:] != (n, 2):
            raise DimensionMismatch(f"F must be {n} x 2 or k x {n} x 2")
        k = Fs.shape[0]
        b = Fs.transpose(0, 2, 1).reshape(k, 2 * n).T
        x = _gated_solve(self._lu.solve, self._K.dot, self._K.dtype, b,
                         "the Kronecker system")
        X = x.T.reshape(k, 2, n).transpose(0, 2, 1)
        return X if F.ndim == 3 else X[0]
