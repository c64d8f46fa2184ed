"""Descriptor system representation, structured spectral projectors and
transfer function evaluation.

Two structures are supported: semi-explicit index-1 and Stokes-type
index-2.  For each, one sparse LU of a saddle-point matrix (M for index 1,
K for Stokes) applies the finite spectral projectors implicitly and
extracts the polynomial part; no projector or block inverse is ever
materialized.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spsla

from . import numkernel as nk
from .errors import (
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
        if sys.E[n1:, :].nnz:
            raise StructureViolation("semi-explicit tag: E rows below n1 not zero")
    elif isinstance(tag, StokesIndex2):
        nv, npp = tag.n_v, tag.n_p
        if nv + npp != n:
            raise StructureViolation(f"n_v + n_p = {nv + npp} != n = {n}")
        if sys.E[nv:, :].nnz or sys.E[:nv, nv:].nnz:
            raise StructureViolation("Stokes tag: E must be [[E11,0],[0,0]]")
        if sys.A[nv:, nv:].nnz:
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
    """Implicit applications of the finite spectral projectors.

    Each map takes and returns an (n,) vector or (n, k) block, real or
    complex.  ``saddle`` is the one sparse factorization every map solves
    with, of M = [[E11, E12], [A21, A22]] (index 1) or
    K = [[E11, A12], [A21, 0]] (Stokes); ``split_transfer`` reuses it.
    """

    n: int
    apply_left: callable = field(repr=False, default=None)
    apply_left_t: callable = field(repr=False, default=None)
    apply_right: callable = field(repr=False, default=None)
    saddle: nk.ShiftedFactorization = field(repr=False, default=None)


def build_projectors(sys: DaeSystem) -> ProjectorKit:
    """Construct the implicit finite spectral projector maps for ``sys``.

    Raises SingularSchurComplement when the saddle-point matrix M (index 1)
    or K (Stokes) is singular, i.e. the pencil does not have the declared
    structure.  A nonsingular M or K also certifies a regular pencil:
    scaling sE - A by diag(s^-1 I, I) on the left (and, for Stokes, by
    diag(I, s I) on the right) gives a matrix whose determinant tends to
    +-det M or +-det K as s -> oo, so det(sE - A) is not identically
    zero.  Constructing a DaeSystem therefore checks only shapes and
    structural zeros.
    """
    if isinstance(sys.structure, SemiExplicitIndex1):
        return _projectors_semi_explicit(sys)
    return _projectors_stokes(sys)


def _factor_saddle(M, what):
    """LU of M; one residual-checked solve also rejects a near-singular M
    whose factorization succeeds."""
    M = nk.as_csc(M)
    try:
        fac = nk.ShiftedFactorization(M, sps.csc_matrix(M.shape), 0.0)
        fac.solve(np.random.default_rng(0).standard_normal(M.shape[0]))
        return fac
    except SingularShift as exc:
        raise SingularSchurComplement(f"{what} is singular: {exc}") from exc


def _projectors_semi_explicit(sys):
    """Index-1 projectors Pi_r = I - M^-1 W A and Pi_l = I - A M^-1 W.

    W selects the algebraic rows, so M = E + W A; W E = 0 gives
    W A M^-1 = W, from which idempotence, Pi_l A = A Pi_r and
    Pi_l E = E = E Pi_r follow.  Pi_r has range ker(W A) (the
    constraint manifold) and kernel ker E.  One M-solve per application.
    """
    n1 = sys.structure.n1
    A = sys.A
    fac = _factor_saddle(sps.vstack([sys.E[:n1], A[n1:]]),
                         "M = [[E11, E12], [A21, A22]]")

    def alg(x):  # W x
        return _with_zeros(x[n1:], n1, 0)

    return ProjectorKit(
        n=sys.n,
        apply_left=lambda v: v - A @ fac.solve(alg(v)),
        apply_left_t=lambda v: v - alg(fac.solve(A.T @ v, trans="T")),
        apply_right=lambda v: v - fac.solve(alg(A @ v)),
        saddle=fac,
    )


def _projectors_stokes(sys):
    """Index-2 Stokes projectors from two K-solves each.

    With S = A21 E11^-1 A12, the right projector is
    Pi_r = [[P, 0], [-S^-1 A21 E11^-1 A11 P, 0]] for the oblique velocity
    projector P = I - E11^-1 A12 S^-1 A21 onto ker A21.  Both P v1 and
    S^-1 A21 E11^-1 (A11 P v1) are blocks of K-solves, and so are the
    factors of Pi_l = [[E11 P E11^-1, -E11 P E11^-1 A11 E11^-1 A12 S^-1],
    [0, 0]].  The transposed pencil is again of Stokes type, with K^T,
    E11^T and A11^T in place of K, E11 and A11, and it swaps the roles of
    the two projectors: Pi_l^T is its right projector and Pi_r^T its
    left one.
    """
    nv, npp = sys.structure.n_v, sys.structure.n_p
    E11 = sys.E[:nv, :nv]
    A11 = sys.A[:nv, :nv]
    fac = _factor_saddle(sps.bmat([[E11, sys.A[:nv, nv:]],
                                   [sys.A[nv:, :nv], None]]),
                         "K = [[E11, A12], [A21, 0]]")

    blocks = {"N": (E11, A11), "T": (E11.T, A11.T)}

    def right(v, trans):
        e11, a11 = blocks[trans]
        x = fac.solve(_with_zeros(e11 @ v[:nv], 0, npp), trans=trans)[:nv]
        p = fac.solve(_with_zeros(a11 @ x, 0, npp), trans=trans)[nv:]
        return np.concatenate([x, -p])

    def left(v):
        w = fac.solve(_with_zeros(v[nv:], nv, 0))[:nv]
        x = fac.solve(_with_zeros(v[:nv] - A11 @ w, 0, npp))[:nv]
        return _with_zeros(E11 @ x, 0, npp)

    return ProjectorKit(
        n=sys.n,
        apply_left=left,
        apply_left_t=lambda v: right(v, "T"),
        apply_right=lambda v: right(v, "N"),
        saddle=fac,
    )


def eval_transfer(sys: DaeSystem, s) -> np.ndarray:
    """G(s) = C (sE - A)^-1 B + D via m sparse solves."""
    fac = nk.ShiftedFactorization(sys.A, sys.E, s)
    X = fac.solve(sys.B.toarray())
    G = -(sys.C @ X) + sys.D
    return np.asarray(G)


@dataclass
class PolyPart:
    """Polynomial part classification: 'constant', 'strictly_proper' or
    'unsupported'; ``constant`` holds the p x m matrix in the first case."""

    kind: str
    constant: np.ndarray | None = None


def split_transfer(sys: DaeSystem, kit: ProjectorKit):
    """Split G = G_sp + P: the deflated input Pi_l B that realizes the
    strictly proper part G_sp, and the polynomial part P.

    Both come from the same solves with the saddle-point factorization of
    ``kit``, the ones ``kit.apply_left(B)`` makes.  Index 1: with
    X = M^-1 [0; B2], Pi_l B = B - A X and P = D - C X, the value of G at
    infinity.  Stokes: the expansion of (sE - A)^-1 B at infinity gives
    P(s) = P0 + s P1 with (x_b, y_b) = K^-1 [0; B2],
    (x_c, y_c) = K^-1 [B1 - A11 x_b; 0], Pi_l B = [E11 x_c; 0],
    P1 = C2 y_b and P0 = D - C1 x_b - C2 y_c.  The part is
    'strictly_proper' when P0 and P1 vanish to rounding, relative to
    ||C|| times the solves they come from, else 'unsupported'.
    Returns (B_defl, PolyPart).
    """
    fac = kit.saddle
    B = sys.B.toarray()
    if isinstance(sys.structure, SemiExplicitIndex1):
        n1 = sys.structure.n1
        X = fac.solve(_with_zeros(B[n1:], n1, 0))
        return B - sys.A @ X, PolyPart("constant", sys.D - sys.C @ X)
    nv, npp = sys.structure.n_v, sys.structure.n_p
    C1, C2 = sys.C[:, :nv], sys.C[:, nv:]
    xy_b = fac.solve(_with_zeros(B[nv:], nv, 0))
    x_b = xy_b[:nv]
    xy_c = fac.solve(_with_zeros(B[:nv] - sys.A[:nv, :nv] @ x_b, 0, npp))
    B_defl = _with_zeros(sys.E[:nv, :nv] @ xy_c[:nv], 0, npp)
    P1 = C2 @ xy_b[nv:]
    P0 = sys.D - C1 @ x_b - C2 @ xy_c[nv:]
    tol = 1e-8 * spsla.norm(sys.C)
    nb, nc = np.linalg.norm(xy_b), np.linalg.norm(xy_c)
    if (np.linalg.norm(P1) <= tol * nb
            and np.linalg.norm(P0) <= tol * (nb + nc)):
        return B_defl, PolyPart("strictly_proper")
    return B_defl, PolyPart("unsupported")


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
