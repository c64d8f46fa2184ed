"""Trust-region optimization of a conjugate/real shift pair.

The two shifts sigma = a +- sqrt(a^2 - b) are parameterized by a, b > 0,
which keeps every candidate pair in the open right half-plane (and hence
every candidate reduced model stable) and closed under conjugation.  The
objective is to maximize the H2 norm captured by the order-2 reduced
model, i.e. minimize J(a, b) = -||G_r(a, b)||^2, which by the error-norm
decomposition is the same as minimizing the reduction error.

The trust region runs on a model function: the Galerkin projection of
the system onto the bases (V, V_a, V_b) of the full-model points seen so
far, which reproduces J and its gradient at each of them.  Besides the
start pair of a search that has no model yet, or whose model finds no
step from it, the full pencil is factored only at the model's optima.
The model is kept in pole-residue form, one eigendecomposition per basis
change, and its points are closed forms that factor nothing and carry
the exact Hessian; full-model points are first order, on the per-shift
LUs the ``DeflatedSystem`` keeps for their pair, and carry the G that
certify the step.  Both read J and its derivatives off one contraction.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg as spla

from . import numkernel as nk
from .errors import (DimensionMismatch, NonFiniteDerivatives,
                     NonPositiveParams, SingularShift)
from .interp import DeflatedSystem


#: trust-region radius rules and stopping thresholds
RADIUS0 = 1.0
RADIUS_MAX = 1e6
ETA1 = 0.1
ETA2 = 0.75
SHRINK = 0.5
EXPAND = 2.0
GTOL = 1e-9
STEPTOL = 1e-12
MAXITER = 200
#: candidates with a or b at/below this are rejected like orthant
#: violations; keeps the reduced pencil numerically regular when the
#: cost is flat in one parameter and the iterate would drift to the
#: boundary (mirror poles collapse onto the imaginary axis there)
PARAM_FLOOR = 1e-8
#: the surrogate's stopping test is this factor stricter than the full
#: model's, so that a surrogate optimum passes the full test
SURROGATE_GTOL = 0.1
#: singular-value cut, relative to unit columns, below which a direction
#: of a new basis block already lies in the surrogate basis
BASIS_RTOL = 1e-8


@dataclass(frozen=True)
class SparkParams:
    """A shift pair a +- sqrt(a^2 - b), a, b > 0, and its interpolation
    data in closed form: the basis solves A V - E V S = B R with
    S = [[a, 1], [a^2 - b, a]] and R = [1, 0], and the pseudo-optimal
    ROM has Er = ``gamma()``, the solution of S^T Gamma + Gamma S = R^T R
    (Panzer, Jaensch, Wolf & Lohmann, ACC 2013).  Raises
    NonPositiveParams unless a > 0 and b > 0 and a^2, 4ab and the entries
    of Gamma are finite and nonzero floats."""

    a: float
    b: float

    def __post_init__(self):
        a, b = float(self.a), float(self.b)
        ok = a > 0 and b > 0 and 0 < a * a < math.inf \
            and 0 < 4 * a * b < math.inf
        if not (ok and all(0 < x / (4 * a * b) < math.inf
                           for x in (a * a + b, a, 1.0))):
            raise NonPositiveParams(
                f"need a > 0 and b > 0 with a^2, 4ab and Gamma finite and "
                f"nonzero, got a={self.a}, b={self.b}")

    @property
    def S(self):
        return np.array([[self.a, 1.0], [self.a * self.a - self.b, self.a]])

    @property
    def R(self):
        return np.array([[1.0, 0.0]])

    def shifts(self):
        """The eigenvalues of S, a + d and a - d with d = sqrt(a^2 - b)
        (imaginary when b > a^2)."""
        d = np.lib.scimath.sqrt(self.a ** 2 - self.b)
        return np.array([self.a + d, self.a - d])

    def schur(self):
        """(T, U) with S = U T U^H, U unitary and T upper triangular with
        diagonal ``shifts()``: U = [[1, -conj(d)], [d, 1]] / c and
        T = [[a + d, 1 - |d|^2], [0, a - d]], c = sqrt(1 + |d|^2).  Both
        are real for a real pair and U = I at confluence, b = a^2."""
        d2 = self.a ** 2 - self.b
        d = np.lib.scimath.sqrt(d2)
        U = np.array([[1.0, -np.conj(d)], [d, 1.0]]) / math.sqrt(1 + abs(d2))
        return np.array([[self.a + d, 1 - abs(d2)], [0.0, self.a - d]]), U

    def gamma(self):
        """Gamma = [[a^2 + b, -a], [-a, 1]] / (4ab); its inverse is the
        reduced controllability Gramian 4a [[1, a], [a, a^2 + b]]."""
        a, b = self.a, self.b
        return np.array([[a * a + b, -a], [-a, 1.0]]) / (4 * a * b)

    def as_array(self):
        return np.array([self.a, self.b])


#: the start pair of a SPARK run that is given none
INIT = SparkParams(1e-4, 1e-4)


# the b-derivative of S(a, b) = [[a, 1], [a^2 - b, a]]
_S_DB = np.array([[0.0, 0.0], [-1.0, 0.0]])


class Point(NamedTuple):
    """One evaluated shift pair: the cost, its exact derivatives (the
    Hessian ``None`` on a full-model point), the basis V with its first
    derivatives, the pair, and G at the shift of each of the pair's LUs
    (V, V_a, V_b and G ``None`` on a surrogate point)."""

    J: float
    g: np.ndarray
    H: np.ndarray
    V: np.ndarray
    Va: np.ndarray
    Vb: np.ndarray
    params: SparkParams
    G: tuple = None


def _contract(Cs, a, b):
    """(J, gradient, Hessian) of J(a, b) = -tr(Cr G Cr^T), Cr = C V, off
    the traces tr(C V_i M (C V_j)^T) over the stack ``Cs`` of C V_i, with M
    the closed-form Gramian G = 4a [[1, a], [a, a^2 + b]] or one of its
    derivatives; the Hessian needs V_i in (V, V_a, V_b, V_aa, V_ab, V_bb),
    else is None.  Every trace is read off one Gram product of the stack.
    """
    Z = Cs.transpose(0, 2, 1).reshape(2 * len(Cs), -1)
    K = (Z @ Z.T).tolist()      # K[2i + k][2j + l] = (C_i^T C_j)[k, l]
    a, b = float(a), float(b)     # J a float also at numpy scalars

    def tr(i, j, m00, m01, m11):
        """tr(C_i M C_j^T) for M = [[m00, m01], [m01, m11]]."""
        k0, k1 = K[2 * i], K[2 * i + 1]
        return m00 * k0[2 * j] + m01 * (k0[2 * j + 1] + k1[2 * j]) \
            + m11 * k1[2 * j + 1]

    # the entries (M00, M01, M11) of G and G_a; G_b = [[0, 0], [0, 4a]],
    # G_aa = [[0, 8], [8, 24a]], G_ab = [[0, 0], [0, 4]] and G_bb = 0
    g0, g1, g2 = 4 * a, 4 * a * a, 4 * a * (a * a + b)
    a0, a1, a2 = 4.0, 8 * a, 12 * a * a + 4 * b
    # J_i = -2 tr(C_i G Cr^T) - tr(Cr G_i Cr^T)
    g = np.array([-2 * tr(1, 0, g0, g1, g2) - tr(0, 0, a0, a1, a2),
                  -2 * tr(2, 0, g0, g1, g2) - tr(0, 0, 0, 0, g0)])
    H = None
    if len(Cs) == 6:
        # J_ij = -2 (tr(C_ij G Cr^T) + tr(C_i G C_j^T) + tr(C_i G_j Cr^T)
        # + tr(C_j G_i Cr^T)) - tr(Cr G_ij Cr^T), C_ij = C V_ij at
        # [[3, 4], [4, 5]][i][j] of the stack
        haa = -2 * (tr(3, 0, g0, g1, g2) + tr(1, 1, g0, g1, g2)
                    + 2 * tr(1, 0, a0, a1, a2)) - tr(0, 0, 0, 8, 6 * g0)
        hab = -2 * (tr(4, 0, g0, g1, g2) + tr(1, 2, g0, g1, g2)
                    + tr(1, 0, 0, 0, g0) + tr(2, 0, a0, a1, a2)) \
            - tr(0, 0, 0, 0, 4)
        hbb = -2 * (tr(5, 0, g0, g1, g2) + tr(2, 2, g0, g1, g2)
                    + 2 * tr(2, 0, 0, 0, g0))
        H = np.array([[haa, hab], [hab, hbb]])
    return -tr(0, 0, g0, g1, g2), g, H


@dataclass(frozen=True)
class Surrogate:
    """The Galerkin surrogate in pole-residue form, G_sur(s) = sum_i
    residues[:, i] / (s - poles[i]).  With R = [1, 0] its basis solve is
    C V(a, b) = sum_i residues[:, i] [poles[i] - a, 1] / q_i, q_i =
    poles[i]^2 - 2 a poles[i] + b: smooth through confluence, without
    Schur data of S, and differentiated by dq/da = -2 poles, dq/db = 1."""

    poles: np.ndarray
    residues: np.ndarray

    def outputs(self, a, b):
        """The stack C V_i of ``_contract``; SingularShift if q_i = 0."""
        lam, rho = self.poles, self.residues
        q = lam * (lam - 2 * a) + b
        if not q.all():
            raise SingularShift(f"a shift of ({a}, {b}) is a surrogate pole")
        # f: u = 1/q and (u_a, u_b, u_aa, u_ab, u_bb), d/da = -2 poles d/db;
        # x: those of (poles - a) u, with the terms of d(poles - a)/da = -1
        u = 1 / q
        m = -2 * lam
        ub = -u * u
        ubb = -2 * u * ub
        uab = m * ubb
        f = np.array([u, m * ub, ub, m * uab, uab, ubb])
        x = f * (lam - a)
        x[1] -= f[0]
        x[3] -= 2 * f[1]
        x[4] -= f[2]
        # columns 0 and 1 of every C V_i from one (12 x r) (r x p) product
        c = (np.array([x, f]).reshape(12, -1) @ rho.T).real
        return c.reshape(2, 6, -1).transpose(1, 2, 0)


def evaluate(ds, a: float, b: float) -> Point:
    """The ``Point`` at the shift pair (a, b) of ``ds``, a
    ``DeflatedSystem`` or a ``Surrogate``, read off ``_contract``.

    A surrogate point takes ``Surrogate.outputs``, with no basis, factors
    nothing and has the exact Hessian; a pole at a shift, or a J, g or H
    that is not finite, raises SingularShift.  A full-model point is first
    order (H None): it solves A V - E V S = B R and A V_i - E V_i S =
    E V S_i for the derivatives, one stacked solve per level (V, then V_a,
    V_b) on ``ds.sylvester(pair)``, which ``ds`` keeps; the V level also
    gives G(s) = -C (A - s E)^-1 B at the shift s of each LU.
    """
    pair = SparkParams(a, b)
    if isinstance(ds, Surrogate):
        J, g, H = _contract(ds.outputs(a, b), a, b)
        if not all(map(math.isfinite, (J, *g.tolist(), *H.flat))):
            raise SingularShift(f"the surrogate is not finite at ({a}, {b})")
        return Point(J, g, H, None, None, None, pair)
    ctx = ds.sylvester(pair)
    E = ds.E
    S_a = np.array([[1.0, 0.0], [2 * a, 1.0]])
    V, z = ctx.solve_input(ds.B_defl)
    Vs = [V, *ctx.solve(np.stack([E @ (V @ S_a), E @ (V @ _S_DB)]))]
    return Point(*_contract(ds.C @ np.stack(Vs), a, b), *Vs, pair,
                 tuple(-(ds.C @ zj) for zj in z))


def _eigen(A, E):
    """(poles, X, E X) of A X = E X diag(poles), or None unless it is finite
    and ||A x - lam E x|| <= TOL_SOLVE (||A|| + |lam| ||E||) ||x|| each."""
    try:
        lam, X = spla.eig(A, E)
    except np.linalg.LinAlgError:
        return None
    EX = E @ X
    with np.errstate(all="ignore"):
        ok = np.linalg.norm(A @ X - EX * lam, axis=0) <= nk.TOL_SOLVE * (
            np.linalg.norm(A) + abs(lam) * np.linalg.norm(E)) \
            * np.linalg.norm(X, axis=0)
    return (lam, X, EX) if ok.all() and np.isfinite(lam).all() else None


class SurrogateBasis:
    """Orthonormal basis W of the bases (V, V_a, V_b) of full-model
    points, and the eigendecomposition of the Galerkin projection
    (W^T A W, W^T E W) of the pencil (A, E) that it holds.

    Since V(a, b) and its first derivatives lie in range W at each added
    point (up to the rank truncation), the surrogate (W^T A W, W^T E W,
    W^T B_defl, C W) has the full model's J and gradient there.  A and E
    never change during a reduction, so one basis serves every CURE step,
    and ``surrogate`` reads only B_defl and C off the system it is given.
    Added blocks wait in a queue and are folded in, in order, when W or
    the surrogate is next read, or by ``fold``: a block that no later
    search reads costs no orthogonalization.
    """

    def __init__(self, A, E):
        self._pencil = (A, E)
        self._W = np.zeros((A.shape[0], 0))
        self._eig = None
        self._queue = []

    def add(self, point: Point):
        """Queue the bases (V, V_a, V_b) of the full-model ``point`` for
        W."""
        self._queue.append((point.V, point.Va, point.Vb))

    def fold(self) -> int:
        """Extend W by the queued blocks, in order; returns the number of
        new columns.

        Each block is column-normalized, orthogonalized against W and
        rank-truncated at ``BASIS_RTOL`` by an SVD (bases of nearby points
        are nearly dependent, and a plain QR of them is ill-conditioned);
        the kept directions are orthogonalized again, as the SVD scales
        what rounding left of W by 1/s.  New columns mean one ``_eigen``.
        """
        queue, self._queue = self._queue, []
        new = 0
        for blocks in queue:
            X = np.hstack(blocks)
            X = X / np.maximum(np.linalg.norm(X, axis=0), 1e-300)
            U, s, _ = np.linalg.svd(X - self._W @ (self._W.T @ X),
                                    full_matrices=False)
            U = U[:, s > BASIS_RTOL]
            U = U - self._W @ (self._W.T @ U)
            if U.shape[1]:
                self._W = np.hstack([self._W, U])
                new += U.shape[1]
        if new:
            W = self._W
            self._eig = _eigen(*(W.T @ (M @ W) for M in self._pencil))
        return new

    @property
    def W(self):
        self.fold()
        return self._W

    def surrogate(self, ds: DeflatedSystem) -> Surrogate:
        """The Galerkin surrogate of ``ds`` with its current input, its
        residues from one ``nk._gated_solve`` with E X; SingularShift when
        the eigendecomposition or that solve misses its gate."""
        W = self.W
        if self._eig is None:
            raise SingularShift("the surrogate has no certified poles")
        lam, X, EX = self._eig
        try:
            beta = nk._gated_solve(lambda r: np.linalg.solve(EX, r), EX.dot,
                                   EX.dtype, W.T @ ds.B_defl,
                                   "the surrogate's residues")
        except np.linalg.LinAlgError as exc:
            raise SingularShift(f"the surrogate's E X: {exc}") from exc
        return Surrogate(poles=lam, residues=(ds.C @ W @ X) * beta.T)


def trust_region_step(g, H, radius):
    """Exact solution of min gᵀs + ½ sᵀHs subject to ||s|| <= radius.

    Works in floats on the (symmetrized) 2x2 Hessian H = Q diag(w) Qᵀ, w
    ascending, one Jacobi rotation, including the hard case.  A boundary
    step is s = -Q (Qᵀg / (e + mu)), e = w + lam0 and lam0 =
    max(0, -min w), and its offset mu from the pole solves 1/||s(mu)|| =
    1/radius by Newton's method (Moré & Sorensen 1983), safeguarded by
    bisection, to a few ulps of mu.  The small denominators e + mu keep
    full relative precision, so a step never exceeds the radius by more
    than rounding.  Every threshold is relative to the problem's scale, so
    the step does not change when g and H are scaled by a common factor.
    Raises NonFiniteDerivatives if g or H has a NaN or infinite entry.
    """
    g0, g1 = np.asarray(g, dtype=float).tolist()
    (h00, h01), (h10, h11) = np.asarray(H, dtype=float).tolist()
    h = 0.5 * (h01 + h10)
    if not all(map(math.isfinite, (g0, g1, h00, h, h11))):
        raise NonFiniteDerivatives(f"gradient {[g0, g1]} or Hessian "
                                   f"{[[h00, h01], [h10, h11]]} is not finite")
    # the rotation [[c, s], [-s, c]], s = t c, takes H to diag(h00 - t h,
    # h11 + t h) (Golub & Van Loan, sym.schur2); t = 0 when h = 0
    theta = (0.5 * h11 - 0.5 * h00) / h if h else math.inf
    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
    c = 1 / math.sqrt(1 + t * t)
    (w0, q0), (w1, q1) = sorted([(h00 - t * h, (c, -t * c)),
                                 (h11 + t * h, (t * c, c))])
    g0, g1 = q0[0] * g0 + q0[1] * g1, q1[0] * g0 + q1[1] * g1

    def back(t0, t1):       # -Q (t0, t1)
        return np.array([-(q0[0] * t0 + q1[0] * t1),
                         -(q0[1] * t0 + q1[1] * t1)])
    if w0 > 0:
        t0, t1 = g0 / w0, g1 / w1
        if math.hypot(t0, t1) <= radius:
            return back(t0, t1)

    lam0 = max(0.0, -w0)
    gnorm = math.hypot(g0, g1)
    e0, e1 = w0 + lam0, w1 + lam0
    # hard case: an eigenvalue sits at -lam0 AND the gradient has no
    # component along its eigvector (otherwise the secular equation still
    # has a root lam > lam0 and the regular branch applies).  0 <= e0 <= e1
    wscale = max(abs(w0), abs(w1), np.finfo(float).tiny)
    if abs(e0) <= 1e-14 * wscale and abs(g0) <= 1e-14 * gnorm:
        active = abs(e1) > 1e-14 * wscale
        t1 = g1 / e1 if active else 0.0
        if (active or abs(g1) <= 1e-14 * gnorm) and abs(t1) <= radius:
            return back(-math.sqrt(max(radius ** 2 - t1 ** 2, 0.0)), t1)
    # regular boundary case in the offset mu = lam - lam0 from the pole:
    # e >= 0, ||s(mu)|| decreases in mu, and at hi every e + hi >=
    # 2 ||g|| / radius, so ||s(hi)|| <= radius / 2

    def step_norm(mu):
        return math.hypot(g0 / (e0 + mu), g1 / (e1 + mu))
    hi = 2 * gnorm / radius
    if w0 > 0:
        lo = 0.0        # the Newton step left the region: ||s(0)|| > radius
    else:
        # step off the pole by a shift relative to lam0 + hi; eps > 0, so
        # the loop ends at the latest where ||s(inf)|| = 0
        eps = max(1e-16 * (lam0 + hi), np.finfo(float).tiny)
        while not math.isfinite(step_norm(eps)):
            eps *= 10
        lo = eps
        if step_norm(lo) <= radius:
            return back(g0 / (e0 + lo), g1 / (e1 + lo))
    # phi(mu) = 1/||s(mu)|| - 1/radius is increasing and concave, so Newton
    # steps from lo, where phi < 0, stay left of the root; a step that
    # leaves the bracket [lo, hi] all the same is replaced by bisection
    mu = lo
    while True:
        d0, d1 = e0 + mu, e1 + mu
        t0, t1 = g0 / d0, g1 / d1
        snorm = math.hypot(t0, t1)
        if snorm == radius:
            break
        if snorm > radius:
            lo = mu
        else:
            hi = mu
        nxt = 0.5 * (lo + hi)
        if 0 < snorm < math.inf:
            # phi / phi' = (1/||s|| - 1/radius) ||s||^3 / sum t_i^2 / d_i
            u0, u1 = t0 / snorm, t1 / snorm
            curv = u0 * u0 / d0 + u1 * u1 / d1
            if curv > 0:
                newton = mu + (snorm - radius) / (radius * curv)
                if lo < newton < hi:
                    nxt = newton
        if abs(nxt - mu) <= 4 * math.ulp(nxt):
            break
        mu = nxt
    return back(t0, t1)


@dataclass
class SparkResult:
    """The returned shift pair's full-model ``point``, with its basis V
    and first derivatives (V_a, V_b), and how the search went."""

    point: Point
    converged: bool
    reason: str
    #: iteration 0 is the start pair, every later record one trust-region
    #: iteration on the surrogate.  Record 0 holds the full model's J at
    #: the start pair, or the surrogate's in a surrogate-first search
    trace: list = field(default_factory=list)
    #: one record per full-model point, the first full-model point first:
    #: the start pair, or the surrogate's optimum in a surrogate-first
    #: search
    evaluations: list = field(default_factory=list)


def _trust_region(ds, p, point, gtol, trace):
    """Trust-region iterations on the surrogate ``ds`` from ``p``, evaluated
    as ``point``, until ||g|| <= gtol * (1 + |J|).

    Iterates stay in the positive orthant (steps leaving it are rejected
    with a radius shrink) and accepted costs are monotone nonincreasing.
    A candidate at a pole of ``ds`` is rejected the same way: a surrogate
    is not stable by construction, and the full model judges its optimum.
    A step never exceeds the radius, so a shrinking radius ends in the
    step test, ||s|| <= STEPTOL * (1 + ||p||) ("steptol").  Appends one
    record per iteration to ``trace``, numbered on from its last, and
    returns (p, converged, reason), p the very array passed in if no step
    was accepted.
    """
    radius = RADIUS0
    J, (g0, g1), H = point.J, point.g.tolist(), point.H.tolist()
    p0, p1 = p.tolist()
    converged, reason = False, "maxiter"
    it0 = trace[-1]["iter"]
    for it in range(it0 + 1, it0 + MAXITER + 1):
        if math.hypot(g0, g1) <= gtol * (1.0 + abs(J)):
            converged, reason = True, "gtol"
            break
        # affine scaling: in directions pushed toward the a, b > 0 boundary
        # the trust region is shrunk to the distance from it, so small
        # parameters cannot veto long steps in the other coordinate
        d0 = max(min(p0, 1.0), 1e-12) if g0 > 0 else 1.0
        d1 = max(min(p1, 1.0), 1e-12) if g1 > 0 else 1.0
        (h00, h01), (h10, h11) = H
        u0, u1 = trust_region_step(
            (d0 * g0, d1 * g1), ((d0 * h00 * d0, d0 * h01 * d1),
                                 (d1 * h10 * d0, d1 * h11 * d1)),
            radius).tolist()
        s0, s1 = d0 * u0, d1 * u1
        snorm = math.hypot(s0, s1)
        if snorm <= STEPTOL * (1.0 + math.hypot(p0, p1)):
            converged, reason = True, "steptol"
            break
        c0, c1 = p0 + s0, p1 + s1
        rec = {"iter": it, "a": c0, "b": c1, "radius": radius, "step": snorm}
        why = None
        if c0 <= PARAM_FLOOR or c1 <= PARAM_FLOOR:
            why = "left positive orthant"
        else:
            try:
                trial = evaluate(ds, c0, c1)
            except SingularShift:
                why = "singular shift"
        if why:
            radius *= SHRINK
            rec.update(accepted=False, why=why)
            trace.append(rec)
        else:
            pred = -(g0 * s0 + g1 * s1 + 0.5 * (s0 * (h00 * s0 + h01 * s1)
                                                + s1 * (h10 * s0 + h11 * s1)))
            rho = (J - trial.J) / pred if pred > 0 else -math.inf
            rec["rho"] = rho
            # near the optimum the predicted reduction drops to rounding
            # noise and the ratio test becomes meaningless; accept the
            # (Newton) polish step as long as the cost does not increase
            noise = 1e-13 * (1.0 + abs(J))
            polish = pred <= noise and trial.J <= J + noise
            if rho >= ETA1 or polish:
                p, p0, p1 = np.array([c0, c1]), c0, c1
                J, (g0, g1), H = trial.J, trial.g.tolist(), trial.H.tolist()
                rec.update(accepted=True, J=J, gnorm=math.hypot(g0, g1))
            else:
                rec.update(accepted=False)
            if rho < ETA1 and not polish:
                radius *= SHRINK
            elif rho > ETA2 and snorm >= 0.99 * radius:
                radius = min(radius * EXPAND, RADIUS_MAX)
            trace.append(rec)
    return p, converged, reason


def _start_record(p, point):
    """Trace record 0: the start pair ``p`` evaluated as ``point``."""
    return {"iter": 0, "a": p[0], "b": p[1], "J": point.J,
            "gnorm": float(np.linalg.norm(point.g)), "radius": RADIUS0,
            "accepted": True}


def spark(ds: DeflatedSystem, init: SparkParams = INIT,
          basis: SurrogateBasis = None) -> SparkResult:
    """Search for the locally optimal shift pair of a SISO ``ds`` on a
    model function (DimensionMismatch for more inputs).

    An outer loop over full-model points: evaluate the full model at the
    current pair to first order (the exact Hessian is taken on the
    surrogate only) and stop once ||g|| <= GTOL * (1 + |J|).  Otherwise add
    the point's bases to ``basis`` (a fresh one of ``ds``'s pencil when
    not given; a caller may keep one across calls on the same A and E),
    run the trust region on the Galerkin surrogate from the current pair
    down to the stricter ``SURROGATE_GTOL * GTOL``, and evaluate the full
    model at the surrogate's optimum.  The optimum becomes the current
    pair if its full J does not increase; otherwise its bases enrich the
    surrogate, which is solved again from the current pair.  The loop
    also stops when the surrogate finds no step from the current pair
    (reason "surrogate singular" when the surrogate has no certified
    decomposition or the pair is one of its poles), when a rejected
    optimum adds nothing to it, or after ``MAXITER`` full-model points.

    Surrogate first: when ``ds`` does not keep ``init``'s LUs and
    ``basis`` already has columns, the trust region runs on the surrogate
    from ``init`` before the full model is evaluated anywhere, and the
    first full-model point is the surrogate's optimum.  The full model is
    evaluated at ``init`` only when ``ds`` keeps its LUs, which then
    factors nothing, or when the surrogate finds no step from there, has
    no certified decomposition or has ``init`` as one of its poles.

    Every full-model point takes its LUs from ``ds.sylvester``, so one
    pair's LUs are alive at a time: on return ``ds`` keeps those of the
    last full-model point, the returned pair unless a later point was
    rejected.  The returned point carries the G that certify the step.
    """
    if ds.m != 1:
        raise DimensionMismatch("shift-pair optimization requires SISO input")
    if basis is None:
        basis = SurrogateBasis(ds.A, ds.E)
    p = init.as_array()
    point, trace = None, []
    if getattr(ds.kept, "pair", None) != init and basis.W.shape[1]:
        try:
            sur = basis.surrogate(ds)
            start = evaluate(sur, *p)
        except SingularShift:
            start = None
        if start is not None:
            trace.append(_start_record(p, start))
            q, _, _ = _trust_region(sur, p, start, SURROGATE_GTOL * GTOL,
                                    trace)
            if q is not p:
                p, point = q, evaluate(ds, *q)
    if point is None:
        point = evaluate(ds, *p)
        # record 0 takes the full J, also after a surrogate with no step
        trace[:1] = [_start_record(p, point)]
    evaluations = [{"a": p[0], "b": p[1], "J": point.J,
                    "gnorm": float(np.linalg.norm(point.g)),
                    "accepted": True}]
    for _ in range(MAXITER):
        if np.linalg.norm(point.g) <= GTOL * (1.0 + abs(point.J)):
            converged, reason = True, "gtol"
            break
        basis.add(point)
        try:
            sur = basis.surrogate(ds)
            start = evaluate(sur, *p)
        except SingularShift:
            converged, reason = False, "surrogate singular"
            break       # the surrogate has no step from the current pair
        q, converged, reason = _trust_region(sur, p, start,
                                             SURROGATE_GTOL * GTOL, trace)
        if q is p:
            break       # the surrogate has no step from the current pair
        trial = evaluate(ds, *q)
        noise = 1e-13 * (1.0 + abs(point.J))
        accepted = trial.J <= point.J + noise
        evaluations.append({"a": q[0], "b": q[1], "J": trial.J,
                            "gnorm": float(np.linalg.norm(trial.g)),
                            "accepted": accepted})
        if accepted:
            p, point = q, trial
        else:
            basis.add(trial)
            if not basis.fold():
                # the surrogate is exact at q already and cannot improve
                converged, reason = False, "surrogate stalled"
                break
    else:
        converged, reason = False, "maxiter"
    return SparkResult(point, converged, reason, trace, evaluations)
