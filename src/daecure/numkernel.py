"""Numeric primitives: shifted solves and the Sylvester solver.

Sparse matrices are held in SciPy CSC format throughout (duplicate entries
are summed on conversion; stored shape is the declared shape).  A pencil
given as two ``numpy.ndarray`` gets LAPACK LUs: its owner densifies a
full pencil of order at most ``DENSE_LIMIT`` whose first SuperLU LU fills
at least ``DENSE_FILL`` of n^2 (``cheapest_pencil``), the cheaper kernel.

The Sylvester solver ``SylvesterContext`` takes a shift pair
(``spark.SparkParams``) and solves A X - E X S = F for its S = S(a, b)
through the pair's closed-form Schur data with the fewest shifted LUs
and triangular solves the pair allows: two real LUs for a real pair, one
for a confluent one, and one complex LU and solve for a conjugate pair.
Its input solve also returns (A - s E)^-1 B at each LU's shift s.

Every LU is made on a ``Pencil``, prepared once per pencil: its
union pattern of A and E, fixed for every shift, carries the pencil's
``elimination_order``, and a shifted matrix costs one axpy on that
pattern.  A pattern that is structurally symmetric, a Stokes
saddle-point pencil or a pressure Schur complement, is then factored
in its matched velocity-pressure order with diagonal pivots
(``OrderedLU``), with a supernode relaxation and panel width chosen
for its narrow supernodes (``ORDERED_RELAX``, ``ORDERED_PANEL``).  Any
other pattern, every index-1 pencil here among them, keeps SuperLU's
COLAMD LU with partial pivoting and SuperLU's default settings, which
also replaces a failed ordered LU; only its failure raises
SingularShift.
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


def _match(G, diag):
    """A maximum matching of the rows of the symmetric pattern ``G`` (CSC)
    that have no diagonal (``diag`` false) to distinct columns j with
    G[i, j] != 0 and a diagonal: ``partner[i]`` is row i's column, -1 for
    a row left unmatched or with a diagonal.

    The matching is SciPy's Hopcroft-Karp.  The candidates are ranked by
    their number of neighbours in G (most first, the lowest index among
    equals) and each row lists its own by rank, so SciPy's first, greedy
    pass gives each row, in index order, its free candidate with the most
    neighbours.  A merged pair (``elimination_order``) adds the row's
    neighbours that its partner lacks, and that partner holds the most.
    Hopcroft-Karp keeps the greedy matching wherever it is maximum and
    augments it wherever it is not.
    """
    from scipy.sparse.csgraph import maximum_bipartite_matching

    n = G.shape[0]
    zero = np.flatnonzero(~diag)
    deg = np.diff(G.indptr)
    # one mask per degree value, not a sort (see ``_scatter``)
    ranked = np.concatenate([np.flatnonzero(diag & (deg == d))
                             for d in np.flatnonzero(np.bincount(deg))[::-1]])
    k = ranked.size
    # B[r, c] = G[zero[r], ranked[c]]: row i of G is its column i
    B = G[:, zero].T @ sps.csc_matrix((np.ones(k), ranked, np.arange(k + 1)),
                                      shape=(n, k))
    B.sort_indices()
    match = maximum_bipartite_matching(B, perm_type="column")
    partner = np.full(n, -1)
    taken = match >= 0
    partner[zero[taken]] = ranked[match[taken]]
    return partner


def elimination_order(G):
    """A symmetric elimination order of the sparse pattern ``G`` (CSC,
    canonical, every stored entry nonzero: a ``Pencil``'s union pattern
    of A and E), or None when it is not structurally symmetric.

    Each row of G without a diagonal (a pressure row of a saddle-point
    pencil) is matched to a distinct neighbour with one, the one with the
    most neighbours where a maximum matching allows (``_match``); for a
    Stokes pencil the candidates are pattern(A21) and pattern(A12^T),
    which agree.  Each pair is merged into one node, the merged graph is
    ordered by SuperLU's ``MMD_AT_PLUS_A``, and each node is expanded
    partner first: eliminating the partner fills the pressure row's
    diagonal, so every pivot of the order can be a diagonal one.  The
    order is independent of sigma, computed once per pencil.

    When every row of G has a diagonal there is nothing to merge, and the
    order is empty: SuperLU then computes the same MMD order inside the
    factorization (``OrderedLU``), which costs less than computing it
    apart.
    """
    G = sps.csc_matrix((np.ones(G.nnz), G.indices, G.indptr),
                       shape=G.shape)
    Gt = G.T.tocsc()
    # compared as bytes: numpy's integer comparison would page in 128 kB
    # of its machine code for this one use
    if (G.indptr.tobytes() != Gt.indptr.tobytes()
            or G.indices.tobytes() != Gt.indices.tobytes()):
        return None
    n = G.shape[0]
    diag = G.diagonal() != 0
    if diag.all():
        return np.empty(0, dtype=np.intp)
    partner = _match(G, diag)
    follower = np.full(n, -1)
    paired = np.flatnonzero(partner >= 0)
    follower[partner[paired]] = paired
    # node ids: one per index that no partner absorbs
    lead = np.ones(n, dtype=bool)
    lead[paired] = False
    node = np.full(n, -1)
    node[lead] = np.arange(np.count_nonzero(lead))
    node[paired] = node[partner[paired]]
    Q = sps.csr_matrix((np.ones(n), node, np.arange(n + 1)),
                       shape=(n, np.count_nonzero(lead)))
    merged = (Q.T @ G @ Q).tocsc()
    # MMD reads the pattern only; an incomplete LU of a diagonally dominant
    # matrix with that pattern computes it without a full factorization
    merged.data[:] = 1.0
    merged = (merged + sps.diags(np.diff(merged.indptr) + 1.0)).tocsc()
    perm = spsla.spilu(merged, drop_tol=0.9, fill_factor=1,
                       drop_rule="basic", permc_spec="MMD_AT_PLUS_A",
                       relax=1, panel_size=1,
                       options={"SymmetricMode": True}).perm_c
    leads = np.flatnonzero(lead)[_scatter(np.arange(perm.size), perm)]
    order = np.stack([leads, follower[leads]], axis=1).ravel()
    return order[order >= 0]


def _scatter(y, perm):
    """x with x[perm] = y, by a scatter: ``_scatter(arange(n), perm)`` is
    the inverse permutation, without numpy's sorts, which would page in
    hundreds of kB of their machine code for this one use (640 kB in a
    Stokes m=12 reduction); a solution in a permuted order comes back in
    the original one."""
    x = np.empty_like(y)
    x[perm] = y
    return x


class Pencil:
    """The pencil (A, E), prepared once for the LUs of A - sigma E at
    any number of shifts.

    A and E must be real, dense or sparse (DimensionMismatch otherwise).
    Two ``numpy.ndarray`` make a dense pencil: ``at(sigma)`` is a new
    Fortran-ordered A - sigma E, which ``DenseLU`` factors in place.
    Otherwise A and E are held as CSC.  One complex sum
    A + iE gives their union pattern, with A and E as its real and
    imaginary parts (they cannot cancel); ``order`` is that pattern's
    ``elimination_order``, and a nonempty order permutes the pattern
    once, columns and rows alike, into the matrix ``OrderedLU`` factors.
    The real arrays ``a`` and ``e`` hold A and E on the prepared pattern,
    so ``at(sigma)`` is one axpy on fixed index arrays.  An entry with
    a_ij = sigma e_ij stays in that pattern as a stored zero.
    """

    def __init__(self, A, E):
        self.dense = isinstance(A, np.ndarray) and isinstance(E, np.ndarray)
        if not self.dense:
            A, E = as_csc(A), as_csc(E)
        if A.shape != E.shape or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(
                f"A {A.shape} and E {E.shape} must be square and equal-sized"
            )
        if np.iscomplexobj(A) or np.iscomplexobj(E):
            raise DimensionMismatch("a pencil needs real A and E")
        self.A, self.E, self.n = A, E, A.shape[0]
        self.order = self.perm = None
        if self.dense:
            return
        U = A + E * 1j
        self.order = elimination_order(U)
        if self.order is not None and self.order.size:
            # gather the columns, then renumber the rows: row fancy
            # indexing of a CSC matrix would argsort
            self.perm = self.order
            U = U[:, self.perm]
            inv = _scatter(np.arange(self.n), self.perm)
            U = sps.csc_matrix((U.data, inv[U.indices],
                                U.indptr), shape=U.shape)
            U.sort_indices()
        self._indices, self._indptr = U.indices, U.indptr
        self.a, self.e = U.data.real.copy(), U.data.imag.copy()

    def at(self, sigma):
        """A - sigma E: CSC on the prepared pattern, P (A - sigma E) P^T
        for a nonempty order's permutation P, or a dense array.  Real for
        a real sigma."""
        sigma = complex(sigma)
        s = sigma if sigma.imag else sigma.real
        if self.dense:
            # the real E forms M with real temporaries only
            M = np.array(self.A, dtype=np.result_type(self.A, self.E, s),
                         order="F")
            M.real -= sigma.real * self.E
            if sigma.imag:
                M.imag -= sigma.imag * self.E
            return M
        M = sps.csc_matrix((self.a - s * self.e, self._indices,
                            self._indptr), shape=(self.n, self.n))
        M.has_canonical_format = True
        return M


#: SuperLU's supernode relaxation and panel width for an ``OrderedLU``,
#: in place of its defaults (relax 10, panel_size 20), which suit wide
#: dense supernodes.  The matched-order saddle-point patterns here have
#: narrow ones: relaxed by 1 column, no padded supernode is stored, and
#: in panels of 4 every ordered Stokes LU measured (m = 12 ... 100, at a
#: real and a complex shift, and the pressure Schur complements) was
#: 6-20 % faster than with the defaults.  A panel of 1 was faster still
#: up to m = 60 but not faster on the complex m = 100 LU.  The COLAMD LU
#: keeps SuperLU's defaults: a panel of 1 or 4 made its LUs of index-1
#: pencils up to 1.8x slower
ORDERED_RELAX = 1
ORDERED_PANEL = 4


class OrderedLU:
    """SuperLU LU of a ``Pencil.at`` matrix M of a pencil with an
    elimination ``order``, with the diagonal pivot wherever it is nonzero
    (``SymmetricMode``, ``diag_pivot_thresh`` 0): with no column
    reordering (``NATURAL``) when the order has permuted M already, and
    with SuperLU's ``MMD_AT_PLUS_A`` of M when the order is empty.
    Supernodes are relaxed by ``ORDERED_RELAX`` and factored in panels
    of ``ORDERED_PANEL`` columns.  ``solve(b)`` solves with M, and
    ``nnz`` counts the entries of the factors."""

    def __init__(self, M, order):
        self._lu = spsla.splu(
            M, permc_spec="NATURAL" if order.size else "MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0, relax=ORDERED_RELAX,
            panel_size=ORDERED_PANEL, options={"SymmetricMode": True})
        self.nnz = self._lu.nnz
        self.solve = self._lu.solve


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
    """Direct factorization of (A - sigma*E) of a ``Pencil``, with
    residual-checked solves: SuperLU for a sparse pencil, LAPACK for a
    dense one.

    A sparse pencil with an elimination order gets an ``OrderedLU``; if
    that LU fails, or a solve on it misses the residual bound after
    refinement, it is replaced by the COLAMD LU of the same matrix and the
    solve is retried.  A pencil without one gets the COLAMD LU.  Solves
    run on the pencil's prepared matrix: a right-hand side is permuted
    once into its order and the solution once back.

    A factorization may be used from one execution context at a time;
    distinct factorizations are independent.
    """

    def __init__(self, pencil: Pencil, sigma):
        self.pencil = pencil
        self.sigma = complex(sigma)
        self.n = pencil.n
        self._s = self.sigma if self.sigma.imag else self.sigma.real
        M = pencil.at(self._s)
        self.dtype = M.dtype
        self._ordered = False
        if pencil.dense:
            # the LU overwrites M, and residuals are taken with A and E
            self._M = None
            self._lu = self._factor(DenseLU, M)
            return
        self._M = M
        if pencil.order is not None:
            try:
                self._lu = OrderedLU(M, pencil.order)
                self._ordered = True
                return
            except RuntimeError:
                pass
        self._lu = self._factor(spsla.splu, M)

    def _factor(self, lu, M):
        """``lu(M)``; SingularShift when it fails."""
        try:
            return lu(M)
        except RuntimeError as exc:
            raise SingularShift(
                f"factorization of (A - {self._s}*E) failed: {exc}"
            ) from exc

    def _apply(self, x):
        """(A - sigma*E) x, in the prepared matrix's order."""
        if self._M is not None:
            return self._M @ x
        P = self.pencil
        return _dense_matmul(P.A, x) - self._s * _dense_matmul(P.E, x)

    def _lu_solve(self, b):
        """The LU's solution of (A - sigma*E) x = b for an (n, k) block b,
        with no residual check."""
        p = self.pencil.perm
        if p is None:
            return self._lu.solve(b)
        return _scatter(self._lu.solve(b[p]), p)

    def solve(self, rhs):
        """Solve (A - sigma*E) x = rhs.

        ``rhs`` is an (n,) vector or an (n, k) block, solved under the
        residual contract of ``_gated_solve``.
        """
        rhs = np.asarray(rhs)
        b = rhs.reshape(self.n, -1)
        p = self.pencil.perm
        if p is not None:
            b = b[p]
        what = f"shift {self.sigma}"
        try:
            x = _gated_solve(self._lu.solve, self._apply, self.dtype, b,
                             what)
        except SingularShift:
            if not self._ordered:
                raise
            self._lu = self._factor(spsla.splu, self._M)
            self._ordered = False
            x = _gated_solve(self._lu.solve, self._apply, self.dtype, b,
                             what)
        if p is not None:
            x = _scatter(x, p)
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


#: largest order of a sparse system that is densified: for its H2 norm
#: and its ``bode`` sweep in finite coordinates, and for LAPACK LUs of a
#: densely filled pencil (``cheapest_pencil``)
DENSE_LIMIT = 500

#: share of n^2 entries in the SuperLU factors of a pencil from which its
#: LUs are dense ones.  On the benchmark systems any cut in 0.25-0.75
#: decides alike: index-1 250/50 fills 83 % (getrf is 3-4x faster there),
#: Stokes m=12 fills 11 % (getrf is 3.6x slower)
DENSE_FILL = 0.5

#: a conjugate pair recovers the real X from Schur column 0 whenever
#: 1/|d|, d = sqrt(a^2 - b), is at most this.  The recovery amplifies the
#: solve's rounding by about max(|d|, 1/|d|), the condition number of
#: [Re u0, Im u0] for the Schur vector u0 = (1, d) / c; toward confluence
#: (it is 100 at the start pair (1e-4, 1e-4)) both columns are solved
RECOVER_COND = 1e3


def cheapest_pencil(fac: ShiftedFactorization) -> Pencil:
    """The pencil of ``fac``, a factorization of A - sigma E for one
    sigma, as a dense ``Pencil`` if LAPACK LUs are the cheaper kernel for
    it, else as it is.

    Dense when n <= ``DENSE_LIMIT`` and the SuperLU factors hold at least
    ``DENSE_FILL`` n^2 entries, as SuperLU counts them (``nnz``, without
    copying L and U out).  A dense pencil stays dense.
    """
    P, n = fac.pencil, fac.n
    if P.dense or n > DENSE_LIMIT or fac._lu.nnz < DENSE_FILL * n * n:
        return P
    return Pencil(P.A.toarray(), P.E.toarray())


class SylvesterContext:
    """Solver for the sparse-dense Sylvester equation A X - E X S = F,
    S = S(a, b) of a shift pair ``pair`` (``spark.SparkParams``), with
    real A, E and F, and so a real X.

    The pair's closed-form Schur data S = U T U^H decouple the two
    columns of Y = X U into shifted solves, column j at
    ``pair.shifts()[j]``.  ``factors`` holds one LU per shift up to
    conjugation, made on the ``Pencil`` (see ``ShiftedFactorization``)
    and reused across right-hand sides: two real LUs for a real pair, in
    ``shifts()`` order, solved in real arithmetic; one LU for a confluent
    pair, b = a^2, whose shifts are equal; one complex LU at the first
    shift for a conjugate pair: the second column's solve is
    conj((A - sigma E)^-1 conj(r)).  For a conjugate pair, column 0
    alone gives X = [Re y, Im y / |d|], where d = sqrt(a^2 - b) and
    (A - (a + d) E) y = F (1, d)^T: one complex solve, taken whenever
    |d| >= 1 / ``RECOVER_COND``; nearer confluence, the Schur path's two.
    """

    def __init__(self, pencil: Pencil, pair):
        self.pencil = pencil
        self.pair, self.S = pair, pair.S
        self.T, self.U = pair.schur()
        s0, s1 = pair.shifts()
        conjugate = np.iscomplexobj(s0)
        self.factors = [ShiftedFactorization(pencil, s0)]
        if not conjugate and s1 != s0:
            self.factors.append(ShiftedFactorization(pencil, s1))
        d = abs(s0.imag)
        self._recover = d if conjugate and d >= 1 / RECOVER_COND else None

    def solve_input(self, B):
        """(V, z) of A V - E V S = B R, R = [1, 0], for a real (n, 1) B: the
        real V, and z[j] = (A - s_j E)^-1 B at ``factors[j]``'s shift from
        V's own solves, the recover path's y or the Schur path's y0 / u00;
        a real pair's second LU solves Schur column 1 and B in one block."""
        F, z = (B @ self.pair.R)[None], [self.factors[0].solve(B)]
        if self._recover is not None:
            return self._real(z[0], None, F)[0], z
        y0 = self.U[0, 0] * z[0]
        r1 = self.U[0, 1] * B + self.T[0, 1] * (self.pencil.E @ y0)
        if len(self.factors) == 2:
            y1, z1 = np.hsplit(self.factors[1].solve(np.hstack([r1, B])), 2)
            return self._real(y0, y1, F)[0], z + [z1]
        return self._real(y0, self._second(r1), F)[0], z

    def solve(self, F):
        """Return the real X with A X - E X S = F.

        ``F`` is one real n x 2 right-hand side or a stack of k of them,
        shape (k, n, 2); X has the shape of ``F``.  Column j of all k
        equations is one block solve.
        """
        F = np.asarray(F)
        Fs = F if F.ndim == 3 else F[None]
        fac = self.factors[0]
        if self._recover is not None:
            # y = X (1, d)^T = X[:, 0] + i |d| X[:, 1]
            d = self._recover
            y = fac.solve((Fs[:, :, 0] + 1j * d * Fs[:, :, 1]).T)
            X = self._real(y, None, Fs)
        else:
            Ft = Fs @ self.U
            y0 = fac.solve(Ft[:, :, 0].T)
            r1 = Ft[:, :, 1].T + self.T[0, 1] * (self.pencil.E @ y0)
            X = self._real(y0, self._second(r1), Fs)
        return X if F.ndim == 3 else X[0]

    def _second(self, r1):
        """Schur column 1, (A - s_1 E)^-1 r1: conj((A - s_0 E)^-1 conj(r1))
        for a conjugate pair."""
        fac = self.factors[-1]
        return np.conj(fac.solve(np.conj(r1))) if fac.sigma.imag \
            else fac.solve(r1)

    def _real(self, y0, y1, Fs):
        """The real X (k, n, 2) of the equations ``Fs`` from Schur columns
        y0, y1 (n, k): [y0, y1] U^H, or [Re y0, Im y0 / |d|] for y1 None."""
        if y1 is None:
            X = np.stack([y0.real.T, y0.imag.T / self._recover], axis=-1)
        else:
            X = np.stack([y0.T, y1.T], axis=-1) @ self.U.conj().T
        # the exact solution is real; accept the real cast only if it
        # still solves each equation (guards against genuine breakdown)
        A, E = self.pencil.A, self.pencil.E
        X = np.ascontiguousarray(X.real)
        for Xi, Fi in zip(X, Fs):
            AX = A @ Xi
            res = AX - E @ (Xi @ self.S) - Fi
            if np.abs(res).max() > 1e-8 * (np.abs(AX).max()
                                           + np.abs(Fi).max() + 1e-300):
                raise SpectraOverlap(
                    "real Sylvester problem produced a complex solution"
                )
        return X
