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
step from it, the full pencil is factored only at the model's optima,
and evaluated there to first order.  A point of the model solves its
Sylvester equations with one LU of their Kronecker form; a full-model
point uses per-shift LUs, which certify the step.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import numkernel as nk
from .errors import (DimensionMismatch, NonFiniteDerivatives,
                     NonPositiveParams, SingularShift, SpectraOverlap)
from .interp import DeflatedSystem


#: trust-region radius rules and stopping thresholds
RADIUS0 = 1.0
RADIUS_MIN = 1e-14
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
    NonPositiveParams unless a > 0 and b > 0."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise NonPositiveParams(
                f"need a > 0 and b > 0, got a={self.a}, b={self.b}")

    @property
    def S(self):
        return np.array([[self.a, 1.0], [self.a * self.a - self.b, self.a]])

    @property
    def R(self):
        return np.array([[1.0, 0.0]])

    def shifts(self):
        """The eigenvalues of S."""
        d = np.lib.scimath.sqrt(self.a ** 2 - self.b)
        return np.array([self.a + d, self.a - d])

    def gamma(self):
        """Gamma = [[a^2 + b, -a], [-a, 1]] / (4ab); its inverse is the
        reduced controllability Gramian ``_gramian_c``."""
        a, b = self.a, self.b
        return np.array([[a * a + b, -a], [-a, 1.0]]) / (4 * a * b)

    def as_array(self):
        return np.array([self.a, self.b])


#: the start pair of a SPARK run that is given none
INIT = SparkParams(1e-4, 1e-4)


# reduced controllability Gramian in closed form
def _gramian_c(a, b):
    return np.array([[4 * a, 4 * a * a],
                     [4 * a * a, 4 * a * (a * a + b)]])


def _gramians(a, b):
    """The reduced Gramian and its nonzero derivatives, stacked as
    (G, G_a, G_b, G_aa, G_ab); G_bb = 0."""
    return np.array([_gramian_c(a, b),
                     [[4.0, 8 * a], [8 * a, 12 * a * a + 4 * b]],
                     [[0.0, 0.0], [0.0, 4 * a]],
                     [[0.0, 8.0], [8.0, 24 * a]],
                     [[0.0, 0.0], [0.0, 4.0]]])


# derivatives of S(a, b) = [[a, 1], [a^2 - b, a]]; S_ab = S_bb = 0
_S_DB = np.array([[0.0, 0.0], [-1.0, 0.0]])
_S_DAA = np.array([[0.0, 0.0], [2.0, 0.0]])


class Point(NamedTuple):
    """One evaluated shift pair: the cost, its exact derivatives (the
    Hessian ``None`` on a first-order point), the basis V with its first
    derivatives, the pair and the LUs."""

    J: float
    g: np.ndarray
    H: np.ndarray
    V: np.ndarray
    Va: np.ndarray
    Vb: np.ndarray
    params: SparkParams
    ctx: object


def evaluate(ds: DeflatedSystem, a: float, b: float, ctx=None,
             hessian: bool = True, kernel=nk.SylvesterContext) -> Point:
    """The ``Point`` (J, gradient, exact Hessian, V, ...) at the shift pair
    (a, b); with ``hessian`` false, a first-order point (H is None).

    J(a, b) = -||G_r||^2 = -tr(Cr G Cr^T) with Cr = C V and the closed-form
    reduced Gramian G(a, b).  Differentiating A V - E V S = B R once gives
    A V_i - E V_i S = E V S_i and twice A V_ij - E V_ij S =
    E (V_i S_j + V_j S_i + V S_ij), so all six solves share the
    factorizations of the basis solve and stay smooth through the shift
    confluence a^2 = b.  They are solved by dependency level, V, then
    (V_a, V_b), then (V_aa, V_ab, V_bb), one stacked solve per level; a
    first-order point stops after the second level.  J and its
    derivatives are read off one contraction of the traces
    tr(C V_i G_m (C V_j)^T) over the solves and the Gramian's
    derivatives.

    The context is ``ctx`` when given (a ``SylvesterContext`` of this
    pair's S), else ``kernel(A, E, S)``: ``nk.SylvesterContext`` for the
    full model, ``nk.KroneckerSylvester`` for a surrogate.  The caller
    owns it.
    """
    if ds.m != 1:
        raise DimensionMismatch("shift-pair optimization requires SISO input")
    pair = SparkParams(a, b)
    if ctx is None:
        ctx = kernel(ds.A, ds.E, pair.S)
    E = ds.E
    S_a = np.array([[1.0, 0.0], [2 * a, 1.0]])
    V = ctx.solve(ds.B_defl @ pair.R)
    Vs = [V, *ctx.solve(np.stack([E @ (V @ S_a), E @ (V @ _S_DB)]))]
    if hessian:
        _, Va, Vb = Vs
        Vs += list(ctx.solve(np.stack([E @ (2 * Va @ S_a + V @ _S_DAA),
                                       E @ (Va @ _S_DB + Vb @ S_a),
                                       E @ (2 * Vb @ _S_DB)])))
    # T[m, i, j] = tr(C_i G_m C_j^T), C_i = C V_i for V_i in (V, V_a, V_b,
    # V_aa, V_ab, V_bb) and G_m in (G, G_a, G_b, G_aa, G_ab); G_bb = 0
    Cs = ds.C @ np.stack(Vs)
    T = np.einsum("ipk,mkl,jpl->mij", Cs, _gramians(a, b), Cs)
    J = -float(T[0, 0, 0])
    # J_i = -2 tr(C_i G Cr^T) - tr(Cr G_i Cr^T)
    g = -2 * T[0, 1:3, 0] - T[1:3, 0, 0]
    H = None
    if hessian:
        # J_ij = -2 (tr(C_ij G Cr^T) + tr(C_i G C_j^T) + tr(C_i G_j Cr^T)
        # + tr(C_j G_i Cr^T)) - tr(Cr G_ij Cr^T), where C_ij is entry
        # [[3, 4], [4, 5]][i][j] of the stack and D[j, i] = tr(C_i G_j Cr^T)
        D = T[1:3, 1:3, 0]
        Gij = T[3:5, 0, 0]
        H = -2 * (T[0, [[3, 4], [4, 5]], 0] + T[0, 1:3, 1:3] + D + D.T) \
            - np.array([[Gij[0], Gij[1]], [Gij[1], 0.0]])
        H[1, 0] = H[0, 1]
    return Point(J, g, H, Vs[0], Vs[1], Vs[2], pair, ctx)


class SurrogateBasis:
    """Orthonormal basis W of the bases (V, V_a, V_b) of full-model
    points, and the Galerkin projection (W^T A W, W^T E W) of the pencil.

    Since V(a, b) and its first derivatives lie in range W at each added
    point (up to the rank truncation), the surrogate (W^T A W, W^T E W,
    W^T B_defl, C W) has the full model's J and gradient there.  A and E
    never change during a reduction, so one basis serves every CURE step.
    Added blocks wait in a queue and are folded in, in order, when W, A,
    E or the surrogate is next read, or by ``fold``: a block that no
    later search reads costs no orthogonalization.
    """

    def __init__(self, n):
        self._W = np.zeros((n, 0))
        self._A = self._E = np.zeros((0, 0))
        self._queue = []

    def add(self, ds: DeflatedSystem, point: Point):
        """Queue the bases (V, V_a, V_b) of ``point``, a ``Point`` or a
        ``SparkResult``, for W."""
        self._queue.append((ds, (point.V, point.Va, point.Vb)))

    def fold(self) -> int:
        """Extend W by the queued blocks, in order; returns the number of
        new columns.

        Each block is column-normalized and orthogonalized against W
        twice, and its range is rank-truncated at ``BASIS_RTOL`` by an
        SVD: bases of nearby points are nearly dependent, and a plain QR
        of them is ill-conditioned.
        """
        queue, self._queue = self._queue, []
        new, last = 0, None
        for ds, blocks in queue:
            X = np.hstack(blocks)
            X = X / np.maximum(np.linalg.norm(X, axis=0), 1e-300)
            for _ in range(2):
                X = X - self._W @ (self._W.T @ X)
            U, s, _ = np.linalg.svd(X, full_matrices=False)
            U = U[:, s > BASIS_RTOL]
            if U.shape[1]:
                self._W = np.hstack([self._W, U])
                new, last = new + U.shape[1], ds
        if last is not None:
            self._A = self._W.T @ (last.A @ self._W)
            self._E = self._W.T @ (last.E @ self._W)
        return new

    @property
    def W(self):
        self.fold()
        return self._W

    @property
    def A(self):
        self.fold()
        return self._A

    @property
    def E(self):
        self.fold()
        return self._E

    def surrogate(self, ds: DeflatedSystem) -> DeflatedSystem:
        """The Galerkin surrogate of ``ds`` with its current input."""
        W = self.W
        return DeflatedSystem(A=self._A, E=self._E, B_defl=W.T @ ds.B_defl,
                              C=ds.C @ W, poly=None)


def trust_region_step(g, H, radius):
    """Exact solution of min gᵀs + ½ sᵀHs subject to ||s|| <= radius.

    Works on the eigendecomposition H = Q diag(w) Qᵀ of the (symmetrized)
    2x2 Hessian, including the hard case.  A boundary step is
    s = -Q (Qᵀg / (e + mu)), e = w + lam0 and lam0 = max(0, -min w), and
    its offset mu from the pole solves 1/||s(mu)|| = 1/radius by Newton's
    method (Moré & Sorensen 1983), safeguarded by bisection, to a few
    ulps of mu.  The small denominators e + mu keep full relative
    precision, so a step never exceeds the radius by more than rounding.
    Every threshold is relative to the problem's scale, so the step does
    not change when g and H are scaled by a common factor.  Raises
    NonFiniteDerivatives if g or H has a NaN or infinite entry.
    """
    g = np.asarray(g, dtype=float)
    H = 0.5 * (np.asarray(H, dtype=float) + np.asarray(H, dtype=float).T)
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(H))):
        raise NonFiniteDerivatives(f"gradient {g} or Hessian {H.tolist()} "
                                   "is not finite")
    w, Q = np.linalg.eigh(H)
    gt = Q.T @ g
    if w.min() > 0:
        s = -Q @ (gt / w)
        if np.linalg.norm(s) <= radius:
            return s

    lam0 = max(0.0, -w.min())
    gnorm = np.linalg.norm(gt)
    # hard case: an eigenvalue sits at -lam0 AND the gradient has no
    # component along its eigvector (otherwise the secular equation still
    # has a root lam > lam0 and the regular branch applies)
    wscale = max(np.abs(w).max(), np.finfo(float).tiny)
    active = np.abs(w + lam0) > 1e-14 * wscale
    gnorm_floor = np.linalg.norm(gt[active] / (w[active] + lam0)) \
        if np.any(active) else 0.0
    degenerate_g = np.all(np.abs(gt[~active]) <= 1e-14 * gnorm)
    if (not np.all(active)) and degenerate_g and gnorm_floor <= radius:
        s_part = np.zeros(2)
        s_part[active] = -gt[active] / (w[active] + lam0)
        free = Q[:, ~active][:, 0]
        tau = np.sqrt(max(radius ** 2 - gnorm_floor ** 2, 0.0))
        return Q @ s_part + tau * free
    # regular boundary case in the offset mu = lam - lam0 from the pole:
    # e >= 0, ||s(mu)|| decreases in mu, and at hi every e + hi >=
    # 2 ||g|| / radius, so ||s(hi)|| <= radius / 2
    e = w + lam0
    (g0, g1), (e0, e1) = gt.tolist(), e.tolist()

    def step_norm(mu):
        return math.hypot(g0 / (e0 + mu), g1 / (e1 + mu))

    hi = 2 * float(gnorm) / radius
    if w.min() > 0:
        lo = 0.0        # the Newton step left the region: ||s(0)|| > radius
    else:
        # step off the pole by a shift relative to lam0 + hi; eps > 0, so
        # the loop ends at the latest where ||s(inf)|| = 0
        eps = max(1e-16 * (lam0 + hi), np.finfo(float).tiny)
        while not math.isfinite(step_norm(eps)):
            eps *= 10
        lo = eps
        if step_norm(lo) <= radius:
            return -Q @ (gt / (e + lo))
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
    return -(Q @ (t0, t1))


@dataclass
class SparkResult:
    """The returned shift pair with its full-model evaluation: the basis
    V with its first derivatives (V_a, V_b), which ``SurrogateBasis.add``
    takes like a ``Point``, and the LUs that certify it (``ctx``, owned by
    the result)."""

    params: SparkParams
    V: np.ndarray
    Va: np.ndarray
    Vb: np.ndarray
    cost: float
    grad: np.ndarray
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
    ctx: object = None


def _trust_region(ds, p, point, gtol, trace):
    """Trust-region iterations on the surrogate ``ds`` from ``p``, evaluated
    as ``point``, until ||g|| <= gtol * (1 + |J|).

    Iterates stay in the positive orthant (steps leaving it are rejected
    with a radius shrink) and accepted costs are monotone nonincreasing.
    A candidate at a pole of ``ds`` is rejected the same way: a surrogate
    is not stable by construction, and the full model judges its optimum.
    Appends one record per iteration to ``trace``, numbered on from its
    last, and returns (p, converged, reason), p the very array passed in
    if no step was accepted.  No point's LUs are kept.
    """
    radius = RADIUS0
    J, g, H = point.J, point.g, point.H
    converged, reason = False, "maxiter"
    it0 = trace[-1]["iter"]
    for it in range(it0 + 1, it0 + MAXITER + 1):
        if np.linalg.norm(g) <= gtol * (1.0 + abs(J)):
            converged, reason = True, "gtol"
            break
        # affine scaling: in directions pushed toward the a, b > 0 boundary
        # the trust region is shrunk to the distance from it, so small
        # parameters cannot veto long steps in the other coordinate
        d = np.where(g > 0, np.minimum(p, 1.0), 1.0)
        d = np.maximum(d, 1e-12)
        u = trust_region_step(d * g, d[:, None] * H * d[None, :], radius)
        s = d * u
        snorm = float(np.linalg.norm(s))
        if snorm <= STEPTOL * (1.0 + np.linalg.norm(p)):
            converged, reason = True, "steptol"
            break
        cand = p + s
        rec = {"iter": it, "a": cand[0], "b": cand[1], "radius": radius,
               "step": snorm}
        why = None
        if cand[0] <= PARAM_FLOOR or cand[1] <= PARAM_FLOOR:
            why = "left positive orthant"
        else:
            try:
                trial = evaluate(ds, *cand, kernel=nk.KroneckerSylvester)
            except (SingularShift, SpectraOverlap):
                why = "singular shift"
        if why:
            radius *= SHRINK
            rec.update(accepted=False, why=why)
            trace.append(rec)
        else:
            pred = -(g @ s + 0.5 * s @ H @ s)
            rho = (J - trial.J) / pred if pred > 0 else -np.inf
            rec["rho"] = rho
            # near the optimum the predicted reduction drops to rounding
            # noise and the ratio test becomes meaningless; accept the
            # (Newton) polish step as long as the cost does not increase
            noise = 1e-13 * (1.0 + abs(J))
            polish = pred <= noise and trial.J <= J + noise
            if rho >= ETA1 or polish:
                p = cand
                J, g, H = trial.J, trial.g, trial.H
                rec.update(accepted=True, J=J,
                           gnorm=float(np.linalg.norm(g)))
            else:
                rec.update(accepted=False)
            trial = None
            if rho < ETA1 and not polish:
                radius *= SHRINK
            elif rho > ETA2 and snorm >= 0.99 * radius:
                radius = min(radius * EXPAND, RADIUS_MAX)
            trace.append(rec)
        if radius < RADIUS_MIN:
            converged, reason = True, "radius collapse"
            break
    return p, converged, reason


def _start_record(p, point):
    """Trace record 0: the start pair ``p`` evaluated as ``point``."""
    return {"iter": 0, "a": p[0], "b": p[1], "J": point.J,
            "gnorm": float(np.linalg.norm(point.g)), "radius": RADIUS0,
            "accepted": True}


def spark(ds: DeflatedSystem, init: SparkParams = INIT, reuse=None,
          basis: SurrogateBasis = None) -> SparkResult:
    """Search for the locally optimal shift pair on a model function.

    An outer loop over full-model points: evaluate the full model at the
    current pair to first order (the exact Hessian is taken on the
    surrogate only) and stop once ||g|| <= GTOL * (1 + |J|).  Otherwise add
    the point's bases to ``basis`` (a fresh one when not given; a caller
    may keep one across calls on the same A and E), run the trust region
    on the Galerkin surrogate from the current pair down to the stricter
    ``SURROGATE_GTOL * GTOL``, and evaluate the full model at the
    surrogate's optimum.  The optimum becomes the current pair if its full
    J does not increase; otherwise its bases enrich the surrogate, which
    is solved again from the current pair.  The loop also stops when the
    surrogate finds no step from the current pair, when a rejected optimum
    adds nothing to it, or after ``MAXITER`` full-model points.

    Surrogate first: when ``basis`` already has columns and no LUs are
    handed over, the trust region runs on the surrogate from ``init``
    before the full model is evaluated anywhere, and the first full-model
    point is the surrogate's optimum.  The full model is evaluated at
    ``init`` only when the surrogate finds no step from there or ``init``
    is one of its poles.

    One full-model point's LUs are alive at a time.  The result owns the
    LUs of the pair it returns (refactored once only if that pair's were
    dropped for a later, rejected point).  ``reuse``, when given, is an
    object whose ``ctx`` is None or a ``SylvesterContext`` of this pencil
    at init, as a ``cure.CureLedger`` holds: spark takes those LUs over
    for init and sets ``reuse.ctx`` to None.
    """
    if basis is None:
        basis = SurrogateBasis(ds.n)
    ctx = None
    if reuse is not None:
        ctx, reuse.ctx = reuse.ctx, None
    p = init.as_array()
    point, trace = None, []
    if ctx is None and basis.W.shape[1]:
        sur = basis.surrogate(ds)
        try:
            start = evaluate(sur, *p, kernel=nk.KroneckerSylvester)
        except (SingularShift, SpectraOverlap):
            start = None
        if start is not None:
            trace.append(_start_record(p, start))
            q, _, _ = _trust_region(sur, p, start, SURROGATE_GTOL * GTOL,
                                    trace)
            if q is not p:
                p, point = q, evaluate(ds, *q, hessian=False)
    if point is None:
        point = evaluate(ds, *p, ctx, hessian=False)
        ctx = None      # the point owns them, and drops them when it moves
        # record 0 takes the full J, also after a surrogate with no step
        trace[:1] = [_start_record(p, point)]
    evaluations = [{"a": p[0], "b": p[1], "J": point.J,
                    "gnorm": float(np.linalg.norm(point.g)),
                    "accepted": True}]
    for _ in range(MAXITER):
        if np.linalg.norm(point.g) <= GTOL * (1.0 + abs(point.J)):
            converged, reason = True, "gtol"
            break
        basis.add(ds, point)
        sur = basis.surrogate(ds)
        q, converged, reason = _trust_region(
            sur, p, evaluate(sur, *p, kernel=nk.KroneckerSylvester),
            SURROGATE_GTOL * GTOL, trace)
        if q is p:
            break       # the surrogate has no step from the current pair
        point = point._replace(ctx=None)    # free p's LUs before q factors
        trial = evaluate(ds, *q, hessian=False)
        noise = 1e-13 * (1.0 + abs(point.J))
        accepted = trial.J <= point.J + noise
        evaluations.append({"a": q[0], "b": q[1], "J": trial.J,
                            "gnorm": float(np.linalg.norm(trial.g)),
                            "accepted": accepted})
        if accepted:
            p, point = q, trial
        else:
            basis.add(ds, trial)
            if not basis.fold():
                # the surrogate is exact at q already and cannot improve
                converged, reason = False, "surrogate stalled"
                break
        trial = None
    else:
        converged, reason = False, "maxiter"
    if point.ctx is None:
        point = point._replace(
            ctx=nk.SylvesterContext(ds.A, ds.E, point.params.S))
    return SparkResult(params=point.params, V=point.V, Va=point.Va,
                       Vb=point.Vb, cost=point.J,
                       grad=point.g, converged=converged, reason=reason,
                       trace=trace, evaluations=evaluations, ctx=point.ctx)
