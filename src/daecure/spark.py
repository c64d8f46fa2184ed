"""Trust-region optimization of a conjugate/real shift pair.

The two shifts sigma = a +- sqrt(a^2 - b) are parameterized by a, b > 0,
which keeps every candidate pair in the open right half-plane (and hence
every candidate reduced model stable) and closed under conjugation.  The
objective is to maximize the H2 norm captured by the order-2 reduced
model, i.e. minimize J(a, b) = -||G_r(a, b)||^2, which by the error-norm
decomposition is the same as minimizing the reduction error.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from . import numkernel as nk
from .errors import DimensionMismatch
from .interp import DeflatedSystem, spark_params_matrices
from .pork import check_interpolation, pork_input


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


def evaluate(ds: DeflatedSystem, a: float, b: float, ctx=None):
    """(J, gradient, exact Hessian, V, data, context) at the shift pair
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
    return J, g, H, V, data, ctx


def trust_region_step(g, H, radius):
    """Exact solution of min gᵀs + ½ sᵀHs subject to ||s|| <= radius.

    Works on the eigendecomposition of the (symmetrized) 2x2 Hessian and
    solves the secular equation on the boundary, including the hard case.
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
        with np.errstate(divide="ignore", over="ignore"):
            return np.linalg.norm(gt / denom)

    lam0 = max(0.0, -w.min())
    # hard case: an eigenvalue sits at -lam0 AND the gradient has no
    # component along its eigvector (otherwise the secular equation still
    # has a root lam > lam0 and the regular branch applies)
    wscale = max(1.0, np.abs(w).max())
    active = np.abs(w + lam0) > 1e-14 * wscale
    gnorm_floor = np.linalg.norm(gt[active] / (w[active] + lam0)) \
        if np.any(active) else 0.0
    degenerate_g = np.all(
        np.abs(gt[~active]) <= 1e-14 * max(1.0, np.linalg.norm(gt))
    )
    if (not np.all(active)) and degenerate_g and gnorm_floor <= radius:
        s_part = np.zeros(2)
        s_part[active] = -gt[active] / (w[active] + lam0)
        free = Q[:, ~active][:, 0]
        tau = np.sqrt(max(radius ** 2 - gnorm_floor ** 2, 0.0))
        return Q @ s_part + tau * free
    # regular boundary case: ||s(lam)|| is decreasing in lam
    lo = lam0
    hi = max(1.0, lam0) * 2
    while boundary_norm(hi) > radius:
        hi *= 4
        if hi > 1e300:
            return np.zeros(2)
    f = lambda lam: boundary_norm(lam) - radius
    if boundary_norm(lo + 1e-300) <= radius and lo == 0.0:
        # interior in the psd case was handled above; lam = 0 feasible
        lam = 0.0
    else:
        # move lo up slightly if the pole makes f(lo) infinite
        span = max(1.0, abs(lo))
        eps = 1e-16 * span
        while not np.isfinite(f(lo + eps)):
            eps *= 10
        lam = brentq(f, lo + eps, hi, xtol=1e-15, rtol=1e-14)
    return -Q @ (gt / (w + lam))


@dataclass
class SparkResult:
    params: SparkParams
    V: np.ndarray
    data: object
    rom: object
    cost: float
    grad: np.ndarray
    converged: bool
    reason: str
    #: worst per-shift tangential residual of ``rom`` against the
    #: deflated system it was made from
    interp_residual: float
    trace: list = field(default_factory=list)
    ctx: object = None


def spark(ds: DeflatedSystem, init: SparkParams = None,
          gtol: float = GTOL, reuse: SparkResult = None) -> SparkResult:
    """Trust-region search for the locally optimal shift pair.

    Iterates stay in the positive orthant (steps leaving it are rejected
    with a radius shrink), accepted costs are monotone nonincreasing, and
    the returned reduced model is the projection at the final parameters.
    The search stops once ||g|| <= gtol * (1 + |J|).  The accepted point
    keeps its LUs (its context) only until that test, so one point's LUs
    are alive at a time.  Only the returned point gets a ROM and a
    certificate, the worst per-shift tangential residual
    ||(G - G_r) r|| / ||G r|| with G(sigma) from ``TOL_SOLVE``-checked
    solves of B_defl with its own context (refactored once after a stop
    that dropped it), which the result then owns.  ``reuse``, an earlier
    result on the same A and E, hands its context over, which serves init
    if that result returned there.
    """
    if init is None:
        init = SparkParams(1e-4, 1e-4)
    ctx = None
    if reuse is not None:
        ctx, reuse.ctx = (reuse.ctx if reuse.params == init else None), None
    p = init.as_array()
    J, g, H, V, data, ctx = evaluate(ds, *p, ctx)
    radius = RADIUS0
    trace = [{"iter": 0, "a": p[0], "b": p[1], "J": J,
              "gnorm": float(np.linalg.norm(g)), "radius": radius,
              "accepted": True}]
    converged, reason = False, "maxiter"
    for it in range(1, MAXITER + 1):
        if np.linalg.norm(g) <= gtol * (1.0 + abs(J)):
            converged, reason = True, "gtol"
            break
        ctx = None      # free this point's LUs before a candidate factors
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
        if cand[0] <= PARAM_FLOOR or cand[1] <= PARAM_FLOOR:
            radius *= SHRINK
            rec.update(accepted=False, why="left positive orthant")
            trace.append(rec)
        else:
            point = evaluate(ds, *cand)
            Jc = point[0]
            pred = -(g @ s + 0.5 * s @ H @ s)
            rho = (J - Jc) / pred if pred > 0 else -np.inf
            rec["rho"] = rho
            # near the optimum the predicted reduction drops to rounding
            # noise and the ratio test becomes meaningless; accept the
            # (Newton) polish step as long as the cost does not increase
            noise = 1e-13 * (1.0 + abs(J))
            polish = pred <= noise and Jc <= J + noise
            if rho >= ETA1 or polish:
                p = cand
                J, g, H, V, data, ctx = point
                rec.update(accepted=True, J=J,
                           gnorm=float(np.linalg.norm(g)))
            else:
                rec.update(accepted=False)
            point = None    # a rejected candidate's LUs go here
            if rho < ETA1 and not polish:
                radius *= SHRINK
            elif rho > ETA2 and snorm >= 0.99 * radius:
                radius = min(radius * EXPAND, RADIUS_MAX)
            trace.append(rec)
        if radius < RADIUS_MIN:
            converged, reason = True, "radius collapse"
            break
    if ctx is None:
        ctx = nk.SylvesterContext(ds.A, ds.E, data.S)
    rom = pork_input(V, data, ds.C)

    def fom_eval(s):
        fac = min(ctx.factors, key=lambda f: abs(f.sigma - s))
        return -(ds.C @ fac.solve(ds.B_defl))

    residual = max(check_interpolation(fom_eval, rom, data))
    return SparkResult(params=SparkParams(*p), V=V, data=data, rom=rom,
                       cost=J, grad=g, converged=converged, reason=reason,
                       interp_residual=residual, trace=trace, ctx=ctx)
