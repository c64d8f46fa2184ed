"""Trust-region optimization of a conjugate/real shift pair.

The two shifts sigma = a +- sqrt(a^2 - b) are parameterized by a, b > 0,
which keeps every candidate pair in the open right half-plane (and hence
every candidate reduced model stable) and closed under conjugation.  The
objective is to maximize the H2 norm captured by the order-2 reduced
model, i.e. minimize J(a, b) = -||G_r(a, b)||^2, which by the error-norm
decomposition is the same as minimizing the reduction error.

The trust region runs on a model function: the Galerkin projection of
the system onto the bases (V, V_a, V_b) of the full-model points seen so
far, which reproduces J and its gradient at each of them.  The full
pencil is factored only at the model's optima.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from . import numkernel as nk
from .errors import DimensionMismatch, SingularShift, SpectraOverlap
from .interp import DeflatedSystem, spark_params_matrices


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


@dataclass
class SparkParams:
    """A shift pair a +- sqrt(a^2 - b); a, b > 0 is enforced where the pair
    is turned into interpolation data (``spark_params_matrices``)."""

    a: float
    b: float

    def shifts(self):
        d = np.lib.scimath.sqrt(self.a ** 2 - self.b)
        return np.array([self.a + d, self.a - d])

    def as_array(self):
        return np.array([self.a, self.b])


# reduced controllability Gramian in closed form
def _gramian_c(a, b):
    return np.array([[4 * a, 4 * a * a],
                     [4 * a * a, 4 * a * (a * a + b)]])


# derivatives of S(a, b) = [[a, 1], [a^2 - b, a]]; S_ab = S_bb = 0
_S_DB = np.array([[0.0, 0.0], [-1.0, 0.0]])
_S_DAA = np.array([[0.0, 0.0], [2.0, 0.0]])


class Point(NamedTuple):
    """One evaluated shift pair: the cost, its exact derivatives, the
    basis V with its first derivatives, the data (S, R) and the LUs."""

    J: float
    g: np.ndarray
    H: np.ndarray
    V: np.ndarray
    Va: np.ndarray
    Vb: np.ndarray
    data: object
    ctx: object


def evaluate(ds: DeflatedSystem, a: float, b: float, ctx=None) -> Point:
    """The ``Point`` (J, gradient, exact Hessian, V, ...) at the shift pair
    (a, b).

    J(a, b) = -||G_r||^2 = -tr(Cr G Cr^T) with Cr = C V and the closed-form
    reduced Gramian G(a, b).  Differentiating A V - E V S = B R once gives
    A V_i - E V_i S = E V S_i and twice A V_ij - E V_ij S =
    E (V_i S_j + V_j S_i + V S_ij), so all six solves share the
    factorizations of the basis solve and stay smooth through the shift
    confluence a^2 = b.  They are solved by dependency level, V, then
    (V_a, V_b), then (V_aa, V_ab, V_bb), one block solve per Schur column
    and level.

    The context is ``ctx`` when given (a ``SylvesterContext`` of this
    pair's S), else a new one; the caller owns it.
    """
    if ds.m != 1:
        raise DimensionMismatch("shift-pair optimization requires SISO input")
    data = spark_params_matrices(a, b)
    if ctx is None:
        ctx = nk.SylvesterContext(ds.A, ds.E, data.S)
    E = ds.E
    S_a = np.array([[1.0, 0.0], [2 * a, 1.0]])
    V = ctx.solve(ds.B_defl @ data.R)
    Va, Vb = ctx.solve(np.stack([E @ (V @ S_a), E @ (V @ _S_DB)]))
    Vaa, Vab, Vbb = ctx.solve(np.stack([E @ (2 * Va @ S_a + V @ _S_DAA),
                                        E @ (Va @ _S_DB + Vb @ S_a),
                                        E @ (2 * Vb @ _S_DB)]))
    Cr, Ca, Cb, Caa, Cab, Cbb = (ds.C @ X for X in (V, Va, Vb, Vaa, Vab, Vbb))
    G = _gramian_c(a, b)
    Ga = np.array([[4.0, 8 * a], [8 * a, 12 * a * a + 4 * b]])
    Gb = np.array([[0.0, 0.0], [0.0, 4 * a]])
    Gaa = np.array([[0.0, 8.0], [8.0, 24 * a]])
    Gab = np.array([[0.0, 0.0], [0.0, 4.0]])
    Gbb = np.zeros((2, 2))

    def tr(X, M, Y):
        return float(np.trace(X @ M @ Y.T))

    def second(Cij, Ci, Cj, Gi, Gj, Gij):
        return -2 * (tr(Cij, G, Cr) + tr(Ci, G, Cj) + tr(Ci, Gj, Cr)
                     + tr(Cj, Gi, Cr)) - tr(Cr, Gij, Cr)

    J = -tr(Cr, G, Cr)
    g = np.array([-2 * tr(Ca, G, Cr) - tr(Cr, Ga, Cr),
                  -2 * tr(Cb, G, Cr) - tr(Cr, Gb, Cr)])
    Hab = second(Cab, Ca, Cb, Ga, Gb, Gab)
    H = np.array([[second(Caa, Ca, Ca, Ga, Ga, Gaa), Hab],
                  [Hab, second(Cbb, Cb, Cb, Gb, Gb, Gbb)]])
    return Point(J, g, H, V, Va, Vb, data, ctx)


class SurrogateBasis:
    """Orthonormal basis W of the bases (V, V_a, V_b) of full-model
    points, and the Galerkin projection (W^T A W, W^T E W) of the pencil.

    Since V(a, b) and its first derivatives lie in range W at each added
    point (up to the rank truncation), the surrogate (W^T A W, W^T E W,
    W^T B_defl, C W) has the full model's J and gradient there.  A and E
    never change during a reduction, so one basis serves every CURE step.
    """

    def __init__(self, n):
        self.W = np.zeros((n, 0))
        self.A = self.E = np.zeros((0, 0))

    def add(self, ds: DeflatedSystem, point: Point) -> int:
        """Extend W by the point's bases; returns the number of new columns.

        The blocks are column-normalized and orthogonalized against W
        twice, and their range is rank-truncated at ``BASIS_RTOL`` by an
        SVD: bases of nearby points are nearly dependent, and a plain QR
        of them is ill-conditioned.
        """
        X = np.hstack([point.V, point.Va, point.Vb])
        X = X / np.maximum(np.linalg.norm(X, axis=0), 1e-300)
        for _ in range(2):
            X = X - self.W @ (self.W.T @ X)
        U, s, _ = np.linalg.svd(X, full_matrices=False)
        U = U[:, s > BASIS_RTOL]
        if U.shape[1]:
            self.W = np.hstack([self.W, U])
            self.A = self.W.T @ (ds.A @ self.W)
            self.E = self.W.T @ (ds.E @ self.W)
        return U.shape[1]

    def surrogate(self, ds: DeflatedSystem) -> DeflatedSystem:
        """The Galerkin surrogate of ``ds`` with its current input."""
        return DeflatedSystem(A=self.A, E=self.E, B_defl=self.W.T @ ds.B_defl,
                              C=ds.C @ self.W, poly=None, structure=None)


def trust_region_step(g, H, radius):
    """Exact solution of min gᵀs + ½ sᵀHs subject to ||s|| <= radius.

    Works on the eigendecomposition of the (symmetrized) 2x2 Hessian and
    solves the secular equation on the boundary, including the hard case.
    Every threshold is relative to the problem's scale, so the step does
    not change when g and H are scaled by a common factor.
    """
    g = np.asarray(g, dtype=float)
    H = 0.5 * (np.asarray(H, dtype=float) + np.asarray(H, dtype=float).T)
    w, Q = np.linalg.eigh(H)
    gt = Q.T @ g
    if w.min() > 0:
        s = -Q @ (gt / w)
        if np.linalg.norm(s) <= radius:
            return s

    def boundary_norm(lam):
        denom = w + lam
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.linalg.norm(gt / denom)

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
    # regular boundary case: ||s(lam)|| decreases in lam, and at hi every
    # w + hi >= 2 ||g|| / radius, so ||s(hi)|| <= radius / 2
    hi = lam0 + 2 * gnorm / radius
    f = lambda lam: boundary_norm(lam) - radius
    if w.min() > 0:
        lo = 0.0        # the Newton step left the region: f(0) > 0
    else:
        # step off the pole at lam0 by a shift relative to hi
        eps = 1e-16 * hi
        while not np.isfinite(f(lam0 + eps)):
            eps *= 10
        lo = lam0 + eps
        if f(lo) <= 0:
            return -Q @ (gt / (w + lo))
    lam = brentq(f, lo, hi, xtol=1e-15 * hi, rtol=1e-14)
    return -Q @ (gt / (w + lam))


@dataclass
class SparkResult:
    """The returned shift pair with its full-model evaluation and LUs,
    which certify it (``ctx``, owned by the result)."""

    params: SparkParams
    V: np.ndarray
    data: object
    cost: float
    grad: np.ndarray
    converged: bool
    reason: str
    #: iteration 0 is the start pair, every later record one trust-region
    #: iteration on the surrogate
    trace: list = field(default_factory=list)
    #: one record per full-model point, the start pair first
    evaluations: list = field(default_factory=list)
    ctx: object = None


def _trust_region(ds, p, point, gtol, trace):
    """Trust-region iterations on ``ds`` from ``p``, evaluated as ``point``,
    until ||g|| <= gtol * (1 + |J|).

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
                trial = evaluate(ds, *cand)
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


def spark(ds: DeflatedSystem, init: SparkParams = None,
          gtol: float = GTOL, reuse: SparkResult = None,
          basis: SurrogateBasis = None) -> SparkResult:
    """Search for the locally optimal shift pair on a model function.

    An outer loop over full-model points: evaluate the full model at the
    current pair and stop once ||g|| <= gtol * (1 + |J|).  Otherwise add
    the point's bases to ``basis`` (a fresh one when not given; a caller
    may keep one across calls on the same A and E), run the trust region
    on the Galerkin surrogate from the current pair down to the stricter
    ``SURROGATE_GTOL * gtol``, and evaluate the full model at the
    surrogate's optimum.  The optimum becomes the current pair if its full
    J does not increase; otherwise its bases enrich the surrogate, which
    is solved again from the current pair.  The loop also stops when the
    surrogate finds no step from the current pair, when a rejected optimum
    adds nothing to it, or after ``MAXITER`` full-model points.

    One full-model point's LUs are alive at a time.  The result owns the
    LUs of the pair it returns (refactored once only if that pair's were
    dropped for a later, rejected point).  ``reuse``, an earlier result
    on the same A and E, hands its LUs over, which serve init if that
    result returned there.
    """
    if init is None:
        init = SparkParams(1e-4, 1e-4)
    if basis is None:
        basis = SurrogateBasis(ds.n)
    ctx = None
    if reuse is not None:
        ctx, reuse.ctx = (reuse.ctx if reuse.params == init else None), None
    p = init.as_array()
    point = evaluate(ds, *p, ctx)
    trace = [{"iter": 0, "a": p[0], "b": p[1], "J": point.J,
              "gnorm": float(np.linalg.norm(point.g)), "radius": RADIUS0,
              "accepted": True}]
    evaluations = [{"a": p[0], "b": p[1], "J": point.J,
                    "gnorm": trace[0]["gnorm"], "accepted": True}]
    for _ in range(MAXITER):
        if np.linalg.norm(point.g) <= gtol * (1.0 + abs(point.J)):
            converged, reason = True, "gtol"
            break
        basis.add(ds, point)
        sur = basis.surrogate(ds)
        q, converged, reason = _trust_region(
            sur, p, evaluate(sur, *p), SURROGATE_GTOL * gtol, trace)
        if q is p:
            break       # the surrogate has no step from the current pair
        point = point._replace(ctx=None)    # free p's LUs before q factors
        trial = evaluate(ds, *q)
        noise = 1e-13 * (1.0 + abs(point.J))
        accepted = trial.J <= point.J + noise
        evaluations.append({"a": q[0], "b": q[1], "J": trial.J,
                            "gnorm": float(np.linalg.norm(trial.g)),
                            "accepted": accepted})
        if accepted:
            p, point = q, trial
        elif not basis.add(ds, trial):
            # the surrogate is exact at q already and cannot improve
            converged, reason = False, "surrogate stalled"
            break
        trial = None
    else:
        converged, reason = False, "maxiter"
    if point.ctx is None:
        point = point._replace(
            ctx=nk.SylvesterContext(ds.A, ds.E, point.data.S))
    return SparkResult(params=SparkParams(*p), V=point.V, data=point.data,
                       cost=point.J, grad=point.g, converged=converged,
                       reason=reason, trace=trace, evaluations=evaluations,
                       ctx=point.ctx)
