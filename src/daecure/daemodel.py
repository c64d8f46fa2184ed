"""Descriptor system representation, structured spectral projectors and
transfer function evaluation.

Two structures are supported: semi-explicit index-1 and Stokes-type
index-2.  Their projectors are applied implicitly through sub-block solves
and never materialized.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as spla
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
    """E = [[E11, E12], [0, 0]] with E11 and A22 - A21 E11^-1 E12 nonsingular."""

    n1: int


@dataclass(frozen=True)
class StokesIndex2:
    """E = [[E11, 0], [0, 0]], A = [[A11, A12], [A21, 0]] with E11 and
    A21 E11^-1 A12 nonsingular."""

    n_v: int
    n_p: int


@dataclass
class DaeSystem:
    """Sparse descriptor realization (E, A, B, C, D) with a structure tag."""

    E: sps.csc_matrix
    A: sps.csc_matrix
    B: sps.csc_matrix
    C: sps.csc_matrix
    D: np.ndarray
    structure: object
    n_f: int | None = None

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
        # regularity probe: a factorization at a random point must succeed
        nk.factor_shifted(self.A, self.E, 0.7310581 + 0.391j)

    @property
    def n(self):
        return self.E.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]


def _blocks_semi_explicit(sys):
    n1 = sys.structure.n1
    E, A = sys.E, sys.A
    return (
        E[:n1, :n1], E[:n1, n1:],
        A[:n1, :n1], A[:n1, n1:], A[n1:, :n1], A[n1:, n1:],
    )


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


class _DenseLU:
    """lu_factor wrapper with transpose solves; raises on singular input."""

    def __init__(self, M, what):
        M = np.asarray(M.toarray() if sps.issparse(M) else M, dtype=float)
        try:
            self.lu = spla.lu_factor(M)
        except spla.LinAlgError as exc:
            raise SingularSchurComplement(f"{what} is singular") from exc
        if not np.all(np.isfinite(self.lu[0])):
            raise SingularSchurComplement(f"{what} is singular")
        diag = np.abs(np.diag(self.lu[0]))
        if diag.min() <= 1e-14 * max(diag.max(), 1e-300):
            raise SingularSchurComplement(f"{what} is numerically singular")

    def solve(self, b, trans=0):
        return spla.lu_solve(self.lu, b, trans=trans)


def _real_map(fn):
    """Lift a real linear map to complex arguments by linearity."""

    def wrapped(v):
        if np.iscomplexobj(v):
            return wrapped(v.real) + 1j * wrapped(v.imag)
        return fn(np.ascontiguousarray(v, dtype=float))

    return wrapped


@dataclass
class ProjectorKit:
    """Implicit applications of the finite spectral projectors.

    Each map takes and returns an (n,) vector or (n, k) block.
    """

    n: int
    apply_left: callable = field(repr=False, default=None)
    apply_left_t: callable = field(repr=False, default=None)
    apply_right: callable = field(repr=False, default=None)
    apply_right_t: callable = field(repr=False, default=None)


def build_projectors(sys: DaeSystem) -> ProjectorKit:
    """Construct the implicit finite spectral projector maps for ``sys``."""
    tag = sys.structure
    if isinstance(tag, SemiExplicitIndex1):
        return _projectors_semi_explicit(sys)
    if isinstance(tag, StokesIndex2):
        return _projectors_stokes(sys)
    raise StructureViolation(f"unsupported structure {tag!r}")


def _projectors_semi_explicit(sys):
    """Index-1 projectors from the tractability chain.

    With Q0 a projector onto ker E, G1 = E - A Q0 is nonsingular for index-1
    pencils and the canonical projector is Qc = -Q0 G1^-1 A, giving
    Pi_r^f = I - Qc.  The left projector follows from the transposed pencil:
    Pi_l^f = I + A Ginv W with G = [[E11, E12], [-A21, -A22]] and W the
    selector of the algebraic block.  For E11 = I, E12 = 0 both collapse to
    the familiar [[I, -A12 A22^-1], [0, 0]] / [[I, 0], [-A22^-1 A21, 0]].
    """
    n1 = sys.structure.n1
    n = sys.n
    if n1 == n:
        # no algebraic part: E is nonsingular, projectors are the identity
        ident = _real_map(lambda v: v.copy())
        return ProjectorKit(n=n, apply_left=ident, apply_left_t=ident,
                            apply_right=ident, apply_right_t=ident)
    E11, E12, A11, A12, A21, A22 = _blocks_semi_explicit(sys)
    lu_E11 = spsla.splu(nk.as_csc(E11))
    Z12 = lu_E11.solve(E12.toarray())  # E11^-1 E12, dense n1 x n2
    Schur = A22.toarray() - A21 @ Z12
    lu_S = _DenseLU(Schur, "A22 - A21 E11^-1 E12")

    def split(v):
        return v[:n1], v[n1:]

    def join(v1, v2):
        return np.concatenate([v1, v2], axis=0)

    def apply_right(v):
        v1, v2 = split(v)
        u = sys.A @ v
        # y2 solves the lower-triangular block of G1 y = u
        y2 = -lu_S.solve(u[n1:])
        return join(v1 - Z12 @ y2, v2 + y2)

    def apply_right_t(v):
        # Pi_r^T = I - Qc^T, Qc = -Q0 G1^-1 A with Q0 = [[0, -Z12], [0, I]]
        # and G1 = E - A Q0 = [[E11, U], [0, -Schur]].  The first block of
        # Q0^T v is zero, so G1^-T only needs the Schur-complement solve.
        v1, v2 = split(v)
        w2 = -Z12.T @ v1 + v2
        y2 = -lu_S.solve(w2, trans=1)
        y = join(np.zeros_like(np.asarray(v1, dtype=float)), y2)
        return v + sys.A.T @ y

    def apply_left(v):
        v1, v2 = split(v)
        # solve [[E11, E12], [-A21, -A22]] y = [0; v2]
        y2 = -lu_S.solve(np.asarray(v2, dtype=float))
        y1 = -Z12 @ y2
        return v + sys.A @ join(y1, y2)

    def apply_left_t(v):
        # (I + A G^-1 W)^T = I + W^T G^-T A^T
        w = sys.A.T @ v
        w1, w2 = split(w)
        # G^T = [[E11^T, -A21^T], [E12^T, -A22^T]]; solve G^T y = [w1; w2]
        # via its Schur complement: -A22^T + E12^T E11^-T A21^T = -Schur^T
        t = lu_E11.solve(w1, trans="T")
        y2 = -lu_S.solve(w2 - E12.T @ t, trans=1)
        # W^T picks the algebraic block of y
        out = v.copy().astype(float)
        out[n1:] += y2
        return out

    return ProjectorKit(
        n=n,
        apply_left=_real_map(apply_left),
        apply_left_t=_real_map(apply_left_t),
        apply_right=_real_map(apply_right),
        apply_right_t=_real_map(apply_right_t),
    )


def _projectors_stokes(sys):
    """Index-2 Stokes projectors built around K = I - A12 S^-1 A21 E11^-1
    with S = A21 E11^-1 A12.

    For E11 = I this is the textbook pair
    Pi_l = [[K, -K A11 A12 S^-1], [0, 0]],
    Pi_r = [[K', 0], [-S^-1 A21 A11 K', 0]] with K' = I - A12 S^-1 A21;
    general nonsingular E11 is handled by the equivalence transform
    diag(E11^-1, I) applied from the left.
    """
    nv = sys.structure.n_v
    n = sys.n
    E11 = sys.E[:nv, :nv]
    A11 = sys.A[:nv, :nv]
    A12 = sys.A[:nv, nv:]
    A21 = sys.A[nv:, :nv]
    lu_E11 = spsla.splu(nk.as_csc(E11))
    W12 = lu_E11.solve(A12.toarray())  # E11^-1 A12, dense nv x np
    S = A21 @ W12
    lu_S = _DenseLU(S, "A21 E11^-1 A12")

    def split(v):
        return v[:nv], v[nv:]

    def join(v1, v2):
        return np.concatenate([v1, v2], axis=0)

    def Kp(v1):  # K' = I - W12 S^-1 A21 (projector in primed coordinates)
        return v1 - W12 @ lu_S.solve(A21 @ v1)

    def Kp_t(v1):
        return v1 - A21.T @ lu_S.solve(W12.T @ v1, trans=1)

    def apply_right(v):
        v1, _ = split(v)
        u1 = Kp(v1)
        # second block: -S^-1 A21 E11^-1 A11 u1
        u2 = -lu_S.solve(A21 @ lu_E11.solve(A11 @ u1))
        return join(u1, u2)

    def apply_right_t(v):
        v1, v2 = split(v)
        t = A11.T @ lu_E11.solve(A21.T @ lu_S.solve(-v2, trans=1), trans="T")
        return join(Kp_t(v1 + t), np.zeros_like(np.asarray(v2, dtype=float)))

    def apply_left(v):
        v1, v2 = split(v)
        # primed left projector rows: [K', -K' A'11 W12 S^-1] with
        # A'11 = E11^-1 A11, then conjugate by diag(E11^-1, I).
        t = lu_E11.solve(np.asarray(v1, dtype=float))
        u = t - lu_E11.solve(A11 @ (W12 @ lu_S.solve(np.asarray(v2, dtype=float))))
        u1 = Kp(u)
        return join(E11 @ u1, np.zeros_like(np.asarray(v2, dtype=float)))

    def apply_left_t(v):
        v1, _ = split(v)
        w = Kp_t(E11.T @ v1)
        top = lu_E11.solve(w, trans="T")
        bot = -lu_S.solve(W12.T @ (A11.T @ top), trans=1)
        return join(top, bot)

    return ProjectorKit(
        n=n,
        apply_left=_real_map(apply_left),
        apply_left_t=_real_map(apply_left_t),
        apply_right=_real_map(apply_right),
        apply_right_t=_real_map(apply_right_t),
    )


def eval_transfer(sys: DaeSystem, s) -> np.ndarray:
    """G(s) = C (sE - A)^-1 B + D via m sparse solves."""
    fac = nk.factor_shifted(sys.A, sys.E, s)
    X = fac.solve(sys.B.toarray())
    G = -(sys.C @ X) + sys.D
    return np.asarray(G)


def eval_strictly_proper(sys: DaeSystem, kit: ProjectorKit, s) -> np.ndarray:
    """G^sp(s) = C Pi_r^f (sE - A)^-1 Pi_l^f B."""
    fac = nk.factor_shifted(sys.A, sys.E, s)
    Bd = kit.apply_left(sys.B.toarray())
    X = -fac.solve(Bd)
    X = _apply_cols(kit.apply_right, X)
    return np.asarray(sys.C @ X)


def _apply_cols(fn, X):
    if X.ndim == 1:
        return fn(X)
    cols = [fn(X[:, j]) for j in range(X.shape[1])]
    return np.stack(cols, axis=1)


@dataclass
class PolyPart:
    """Polynomial part classification: 'constant', 'strictly_proper' or
    'unsupported'; ``constant`` holds the p x m matrix in the first case."""

    kind: str
    constant: np.ndarray | None = None


def polynomial_part(sys: DaeSystem, kit: ProjectorKit | None = None) -> PolyPart:
    """Classify and (for index-1) extract the polynomial part of G(s)."""
    tag = sys.structure
    if isinstance(tag, SemiExplicitIndex1):
        if kit is None:
            kit = build_projectors(sys)
        # index 1: P(s) is constant; evaluate the improper channel once
        s0 = 0.8254 + 0.31j
        fac = nk.factor_shifted(sys.A, sys.E, s0)
        B = sys.B.toarray()
        Binf = B - kit.apply_left(B)
        X = -fac.solve(Binf)
        X = X - _apply_cols(kit.apply_right, X)
        P = np.asarray(sys.C @ X) + sys.D
        if np.abs(P.imag).max() > 1e-8 * max(np.abs(P).max(), 1e-300):
            raise SingularSchurComplement(
                "constant polynomial part came out complex"
            )
        return PolyPart("constant", P.real)
    if isinstance(tag, StokesIndex2):
        if sys.D.any():
            return PolyPart("unsupported")
        # strict properness check: ||G|| must drop by ~100x per frequency
        # decade pair (1/s decay); improper parts stall or grow instead
        mags = [np.linalg.norm(eval_transfer(sys, s)) for s in (1e4, 1e6, 1e8)]
        tiny = 1e-12 * max(np.linalg.norm(eval_transfer(sys, 1.0)), 1e-300)
        ok = (
            mags[1] <= 0.1 * mags[0] + tiny
            and mags[2] <= 0.1 * mags[1] + tiny
        )
        return PolyPart("strictly_proper") if ok else PolyPart("unsupported")
    return PolyPart("unsupported")


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
        provenance="constant-polynomial-part",
    )
