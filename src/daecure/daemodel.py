"""Descriptor system representation, structured spectral projectors and
transfer function evaluation.

Two structures are supported: semi-explicit index-1 and Stokes-type
index-2.  For each, one sparse LU behind a saddle-point matrix (M for
index 1, K for Stokes) applies the finite spectral projectors implicitly
and extracts the polynomial part; no projector or block inverse is ever
materialized.  With a diagonal E11 that LU is of the Schur complement of
E11 (order n2 for M, n_p for K), otherwise of M or K itself.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spsla
from scipy.linalg import lapack

from . import numkernel as nk
from .errors import (
    DaecureError,
    SingularSchurComplement,
    SingularShift,
    StructureViolation,
)


@dataclass(frozen=True)
class SemiExplicitIndex1:
    """E = [[E11, E12], [0, 0]] (n1 differential rows) with
    M = [[E11, E12], [A21, A22]] nonsingular, the index-1 condition."""

    n1: int


@dataclass(frozen=True)
class StokesIndex2:
    """E = [[E11, 0], [0, 0]], A = [[A11, A12], [A21, 0]] with
    K = [[E11, A12], [A21, 0]] nonsingular."""

    n_v: int
    n_p: int


@dataclass
class DaeSystem:
    """Sparse descriptor realization (E, A, B, C, D) with a structure tag.

    Construction checks shapes and the tag's structural zero blocks;
    regularity is certified where the projectors are built.
    """

    E: sps.csc_matrix
    A: sps.csc_matrix
    B: sps.csc_matrix
    C: sps.csc_matrix
    D: np.ndarray
    structure: object

    def __post_init__(self):
        self.E = nk.as_csc(self.E)
        self.A = nk.as_csc(self.A)
        self.B = nk.as_csc(self.B)
        self.C = nk.as_csc(self.C)
        self.D = np.atleast_2d(np.asarray(self.D, dtype=float))
        n = self.E.shape[0]
        if self.A.shape != (n, n) or self.E.shape != (n, n):
            raise StructureViolation("E, A must be square with equal shape")
        if self.B.shape[0] != n or self.C.shape[1] != n:
            raise StructureViolation("B/C dimensions inconsistent with E, A")
        if self.D.shape != (self.C.shape[0], self.B.shape[1]):
            raise StructureViolation("D must be p x m")
        if not (self.m and self.p):
            raise StructureViolation(f"need m, p >= 1, got {self.m}, {self.p}")
        _validate_structure(self)

    @property
    def n(self):
        return self.E.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]


def _validate_structure(sys):
    tag = sys.structure
    n = sys.n
    if isinstance(tag, SemiExplicitIndex1):
        n1 = tag.n1
        if not 1 <= n1 <= n:
            raise StructureViolation(f"n1={n1} out of range for n={n}")
        if sys.E[n1:, :].count_nonzero():
            raise StructureViolation("semi-explicit tag: E rows below n1 not zero")
    elif isinstance(tag, StokesIndex2):
        nv, npp = tag.n_v, tag.n_p
        if nv + npp != n or min(nv, npp) < 1:
            raise StructureViolation(
                f"need n_v + n_p = n = {n}, both >= 1, got {nv}, {npp}")
        if (sys.E[nv:, :].count_nonzero()
                or sys.E[:nv, nv:].count_nonzero()):
            raise StructureViolation("Stokes tag: E must be [[E11,0],[0,0]]")
        if sys.A[nv:, nv:].count_nonzero():
            raise StructureViolation("Stokes tag: A22 block must be zero")
    else:
        raise StructureViolation(f"unknown structure tag {tag!r}")


def _with_zeros(x, above, below):
    """``x`` with ``above`` zero rows on top and ``below`` zero rows under it."""
    x = np.asarray(x)

    def zeros(k):
        return np.zeros((k,) + x.shape[1:], dtype=x.dtype)

    return np.concatenate([zeros(above), x, zeros(below)])


@dataclass
class ProjectorKit:
    """The finite spectral projectors of a system and the split
    G = G_sp + P of its transfer function.

    ``apply_left`` and ``apply_right`` map an (n,) vector or (n, k) block,
    real or complex.  ``saddle`` is the one factorization they solve
    with, of M = [[E11, E12], [A21, A22]] (index 1) or
    K = [[E11, A12], [A21, 0]] (Stokes).  ``B_defl`` = Pi_l B realizes
    G_sp and ``poly`` is P, both read off the solves of ``apply_left`` at
    B.  E is zero below its first ``n_diff`` rows (n1 or n_v), and
    ``finite_basis()`` returns new orthonormal n x n_f columns V0 on
    which Pi_r is one to one.
    """

    apply_left: callable = field(repr=False)
    apply_right: callable = field(repr=False)
    saddle: "nk.ShiftedFactorization | SchurSaddle" = field(repr=False)
    B_defl: np.ndarray = field(repr=False)
    poly: "PolyPart"
    n_diff: int
    finite_basis: callable = field(repr=False)


def build_projectors(sys: DaeSystem) -> ProjectorKit:
    """The ``ProjectorKit`` of ``sys``: its implicit finite spectral
    projectors, Pi_l B, the polynomial part and the finite basis, from one
    factorization; what follows the projectors sees the structure tag
    only through it.

    Raises SingularSchurComplement when the saddle-point matrix M (index 1)
    or K (Stokes) is singular, i.e. the pencil does not have the declared
    structure.  A nonsingular M or K also certifies a regular pencil:
    scaling sE - A by diag(s^-1 I, I) on the left (and, for Stokes, by
    diag(I, s I) on the right) gives a matrix whose determinant tends to
    +-det M or +-det K as s -> oo, so det(sE - A) is not identically
    zero.  With a diagonal E11 the LU is of the Schur complement S of E11
    in M or K, and det M (or det K) = det E11 det S, so either LU
    certifies it.  Constructing a DaeSystem therefore checks only shapes
    and structural zeros.
    """
    if isinstance(sys.structure, SemiExplicitIndex1):
        return _projectors_semi_explicit(sys)
    return _projectors_stokes(sys)


class SchurSaddle:
    """Solves with a saddle-point matrix [[D, X], [Y, Z]] whose D = diag(d)
    has no zero entry, through an LU of its Schur complement
    S = Z - Y D^-1 X: S x2 = b2 - Y D^-1 b1, then x1 = D^-1 (b1 - X x2).
    The LU of S is made on its own ``nk.Pencil`` (S, 0), and so in its
    elimination order when it has one.

    ``solve`` keeps the ``TOL_SOLVE`` contract of
    ``nk.ShiftedFactorization`` against the whole matrix.  Raises
    SingularShift, as that LU does, when S is exactly singular.
    """

    def __init__(self, d, X, Y, Z, what):
        self._d, self._dinv = d, 1.0 / d
        self._X, self._Y, self._Z = X, Y, Z
        S = Z - Y @ (sps.diags(self._dinv) @ X)
        self._schur = nk.ShiftedFactorization(
            nk.Pencil(S, sps.csc_matrix(S.shape)), 0.0)
        self.n = d.size + S.shape[0]
        self.dtype = np.result_type(self._dinv, self._schur.dtype)
        self._what = what

    def _solve_blocks(self, b):
        """The block solve of an (n, k) block b, without a residual check;
        overflow and NaN are left to the check."""
        nd = self._d.size
        dinv = self._dinv[:, None]
        x = np.empty_like(b)
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(dinv, b[:nd], out=x[:nd])
            x[nd:] = self._schur._lu_solve(b[nd:] - self._Y @ x[:nd])
            x[:nd] -= dinv * (self._X @ x[nd:])
        return x

    def _apply(self, x):
        """[[D, X], [Y, Z]] x for an (n, k) block x."""
        nd = self._d.size
        y = np.empty_like(x)
        y[:nd] = self._X @ x[nd:]
        y[:nd] += self._d[:, None] * x[:nd]
        y[nd:] = self._Y @ x[:nd]
        y[nd:] += self._Z @ x[nd:]
        return y

    def solve(self, rhs):
        """Solve [[D, X], [Y, Z]] x = rhs for an (n,) vector or an (n, k)
        block."""
        rhs = np.asarray(rhs)
        x = nk._gated_solve(self._solve_blocks, self._apply, self.dtype,
                            rhs.reshape(self.n, -1), self._what)
        return x.reshape(rhs.shape)


def _probed(fac):
    """``fac`` after one residual-checked solve, which also rejects a
    near-singular matrix whose factorization succeeds."""
    fac.solve(np.random.default_rng(0).standard_normal(fac.n))
    return fac


def _factor_saddle(D, X, Y, Z, what):
    """Factorization of the saddle-point matrix [[D, X], [Y, Z]], named
    ``what``.

    A diagonal D with no zero entry (by value) and a Z of positive order
    get a ``SchurSaddle``.  Any other D, an exactly singular Schur
    complement, or a probe solve that misses the residual bound (a badly
    scaled D) gets the LU of the assembled matrix instead, which alone
    raises SingularSchurComplement.
    """
    d = D.diagonal()
    if Z.shape[0] and np.all(d != 0) and D.count_nonzero() == d.size:
        try:
            return _probed(SchurSaddle(d, X, Y, Z, what))
        except SingularShift:
            pass
    return _factor_assembled(sps.bmat([[D, X], [Y, Z]]), what)


def _factor_assembled(M, what):
    """LU of the saddle-point matrix M, on its own pencil (M, 0),
    probed."""
    try:
        return _probed(nk.ShiftedFactorization(
            nk.Pencil(M, sps.csc_matrix(M.shape)), 0.0))
    except SingularShift as exc:
        raise SingularSchurComplement(f"{what} is singular: {exc}") from exc


def _projectors_semi_explicit(sys):
    """Index-1 projectors Pi_r = I - M^-1 W A and Pi_l = I - A M^-1 W.

    W selects the algebraic rows, so M = E + W A; W E = 0 gives
    W A M^-1 = W, from which idempotence, Pi_l A = A Pi_r and
    Pi_l E = E = E Pi_r follow.  Pi_r has range ker(W A) (the
    constraint manifold) and kernel ker E.  One M-solve per application.
    At B, X = M^-1 W B gives Pi_l B = B - A X and P = D - C X, the value
    of G at infinity.  V0 is an orthonormal basis of range E^T, the
    complement of ker E = ker Pi_r, from one QR of the differential rows'
    transpose.
    """
    n1 = sys.structure.n1
    A = sys.A
    fac = _factor_saddle(sys.E[:n1, :n1], sys.E[:n1, n1:], A[n1:, :n1],
                         A[n1:, n1:], "M = [[E11, E12], [A21, A22]]")

    def alg(x):  # W x
        return _with_zeros(x[n1:], n1, 0)

    def left(v):  # Pi_l v and the solve X = M^-1 W v it is read off
        X = fac.solve(alg(v))
        return v - A @ X, X

    B_defl, X = left(sys.B.toarray())
    P = sys.D - sys.C @ X
    return ProjectorKit(
        apply_left=lambda v: left(v)[0],
        apply_right=lambda v: v - fac.solve(alg(A @ v)),
        saddle=fac,
        B_defl=B_defl,
        poly=PolyPart("constant", P, np.zeros_like(P)),
        n_diff=n1,
        finite_basis=lambda: np.linalg.qr(sys.E[:n1].T.toarray())[0],
    )


def _projectors_stokes(sys):
    """Index-2 Stokes projectors from two K-solves each.

    With S = A21 E11^-1 A12, the right projector is
    Pi_r = [[P, 0], [-S^-1 A21 E11^-1 A11 P, 0]] for the oblique velocity
    projector P = I - E11^-1 A12 S^-1 A21 onto ker A21.  Both P v1 and
    S^-1 A21 E11^-1 (A11 P v1) are blocks of K-solves, and so are the
    factors of Pi_l = [[E11 P E11^-1, -E11 P E11^-1 A11 E11^-1 A12 S^-1],
    [0, 0]].

    At B, the expansion of (sE - A)^-1 B at infinity gives the polynomial
    part P0 + s P1 from the solves (x_b, y_b) = K^-1 [0; B2] and
    (x_c, y_c) = K^-1 [B1 - A11 x_b; 0] of Pi_l B = [E11 x_c; 0]:
    P1 = C2 y_b and P0 = D - C1 x_b - C2 y_c.  It is 'strictly_proper',
    and zero, when P0 and P1 vanish to rounding relative to ||C|| times
    those solves; else 'unsupported'.  V0 = [N; 0] with N an orthonormal
    basis of ker A21, on which P is the identity.
    """
    nv, npp = sys.structure.n_v, sys.structure.n_p
    E11 = sys.E[:nv, :nv]
    A11 = sys.A[:nv, :nv]
    fac = _factor_saddle(E11, sys.A[:nv, nv:], sys.A[nv:, :nv],
                         sys.A[nv:, nv:], "K = [[E11, A12], [A21, 0]]")

    def right(v):
        x = fac.solve(_with_zeros(E11 @ v[:nv], 0, npp))[:nv]
        p = fac.solve(_with_zeros(A11 @ x, 0, npp))[nv:]
        return np.concatenate([x, -p])

    def left(v):  # Pi_l v and the two K-solves it is read off
        xy_b = fac.solve(_with_zeros(v[nv:], nv, 0))
        xy_c = fac.solve(_with_zeros(v[:nv] - A11 @ xy_b[:nv], 0, npp))
        return _with_zeros(E11 @ xy_c[:nv], 0, npp), xy_b, xy_c

    def finite_basis():
        # the last n_v - n_p columns of the complete Q of A21^T: the QR's
        # reflectors applied to those columns of the identity alone.
        # numpy's raw QR is LAPACK's geqrf output, transposed
        qr, tau = np.linalg.qr(sys.A[nv:, :nv].T.toarray(), mode="raw")
        qr = qr.T
        N = np.zeros((nv, nv - npp), order="F")
        N[npp:] = np.eye(nv - npp)
        ormqr = lapack.get_lapack_funcs("ormqr", (qr,))
        lwork = int(ormqr("L", "N", qr, tau, N, -1)[1][0])
        N, _, info = ormqr("L", "N", qr, tau, N, lwork, overwrite_c=True)
        if info != 0:
            raise DaecureError(f"ormqr failed with info={info}")
        return _with_zeros(N, 0, npp)

    B_defl, xy_b, xy_c = left(sys.B.toarray())
    C1, C2 = sys.C[:, :nv], sys.C[:, nv:]
    P1 = C2 @ xy_b[nv:]
    P0 = sys.D - C1 @ xy_b[:nv] - C2 @ xy_c[nv:]
    tol = 1e-8 * spsla.norm(sys.C)
    nb, nc = np.linalg.norm(xy_b), np.linalg.norm(xy_c)
    if (np.linalg.norm(P1) <= tol * nb
            and np.linalg.norm(P0) <= tol * (nb + nc)):
        poly = PolyPart("strictly_proper", np.zeros_like(P0),
                        np.zeros_like(P1))
    else:
        poly = PolyPart("unsupported", P0, P1)
    return ProjectorKit(
        apply_left=lambda v: left(v)[0],
        apply_right=right,
        saddle=fac,
        B_defl=B_defl,
        poly=poly,
        n_diff=nv,
        finite_basis=finite_basis,
    )


def eval_transfer(sys: DaeSystem, s) -> np.ndarray:
    """G(s) = C (sE - A)^-1 B + D at a shift s, a p x m matrix, or at
    each shift of an array s, stacked into shape s.shape + (p, m).

    The reference evaluation: the pencil is prepared and B and C
    densified once for all shifts, and each shift then costs one sparse
    LU of its own (``nk.ShiftedFactorization``) and one block solve of
    its m columns, so a shift gets the same bits in a scalar call as in
    an array.  ``bode`` sweeps a system above ``nk.DENSE_LIMIT`` with it;
    below, it sweeps in finite coordinates
    (``h2analysis.sweep_transfer``).
    """
    s = np.asarray(s)
    pencil = nk.Pencil(sys.A, sys.E)
    B, C = sys.B.toarray(), sys.C.toarray()
    G = []
    for sk in s.ravel():
        fac = nk.ShiftedFactorization(pencil, sk)
        G.append(sys.D - C @ fac.solve(B))
        # freed before the next shift's LU is made: two LUs alive at once
        # leave the heap so that the next command faults its pages anew
        del fac
    return np.reshape(G, s.shape + sys.D.shape)


@dataclass
class PolyPart:
    """The polynomial part P(s) = constant + s linear, a p x m matrix at
    each s, and its class: 'constant' (index 1: ``constant`` is the value
    at infinity and ``linear`` zero), 'strictly_proper' (Stokes, P0 and
    P1 zero to rounding: both are zero) or 'unsupported' (Stokes with
    pressure inputs or outputs: P0 and P1 as computed)."""

    kind: str
    constant: np.ndarray
    linear: np.ndarray

    def at(self, s) -> np.ndarray:
        """P at each shift of an array s, shape s.shape + (p, m)."""
        return self.constant + np.asarray(s)[..., None, None] * self.linear


def realize_constant_poly(P: np.ndarray):
    """Minimal realization of a constant polynomial part.

    Returns the order-r block (E = 0, A = -I, B, C) with r = rank(P) and
    C @ B = P, whose transfer function is identically P.
    """
    from .pork import RomRealization

    P = np.atleast_2d(np.asarray(P, dtype=float))
    p, m = P.shape
    U, sv, Vt = np.linalg.svd(P)
    r = int(np.sum(sv > max(p, m) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)))
    sq = np.sqrt(sv[:r])
    Cf = U[:, :r] * sq
    Bf = (Vt[:r, :].T * sq).T
    return RomRealization(
        Er=np.zeros((r, r)),
        Ar=-np.eye(r),
        Br=Bf,
        Cr=Cf,
        Dr=np.zeros((p, m)),
    )
