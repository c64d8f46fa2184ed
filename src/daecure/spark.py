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
from .errors import DimensionMismatch, NonPositiveParams
from .interp import BasisV, DeflatedSystem, spark_params_matrices
from .pork import pork_input


@dataclass
class SparkParams:
    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise NonPositiveParams(
                f"need a > 0 and b > 0, got a={self.a}, b={self.b}"
            )

    def shifts(self):
        d = np.lib.scimath.sqrt(self.a ** 2 - self.b)
        return np.array([self.a + d, self.a - d])

    def as_array(self):
        return np.array([self.a, self.b])


@dataclass
class TrustRegionConfig:
    radius0: float = 1.0
    radius_min: float = 1e-14
    radius_max: float = 1e6
    eta1: float = 0.1
    eta2: float = 0.75
    shrink: float = 0.5
    expand: float = 2.0
    gtol: float = 1e-9
    steptol: float = 1e-12
    maxiter: int = 200
    #: candidates with a or b at/below this are rejected like orthant
    #: violations; keeps the reduced pencil numerically regular when the
    #: cost is flat in one parameter and the iterate would drift to the
    #: boundary (mirror poles collapse onto the imaginary axis there)
    param_floor: float = 1e-8

    def __post_init__(self):
        if not 0 < self.eta1 < self.eta2 < 1:
            raise NonPositiveParams("need 0 < eta1 < eta2 < 1")


# reduced controllability Gramian in closed form
def _gramian_c(a, b):
    return np.array([[4 * a, 4 * a * a],
                     [4 * a * a, 4 * a * (a * a + b)]])


# derivatives of S(a, b) = [[a, 1], [a^2 - b, a]]; S_ab = S_bb = 0
_S_DB = np.array([[0.0, 0.0], [-1.0, 0.0]])
_S_DAA = np.array([[0.0, 0.0], [2.0, 0.0]])


def evaluate(ds: DeflatedSystem, a: float, b: float):
    """(J, gradient, exact Hessian, V, data) at the shift pair (a, b).

    J(a, b) = -||G_r||^2 = -tr(Cr G Cr^T) with Cr = C V and the closed-form
    reduced Gramian G(a, b).  Differentiating A V - E V S = B R once gives
    A V_i - E V_i S = E V S_i and twice A V_ij - E V_ij S =
    E (V_i S_j + V_j S_i + V S_ij), so all six solves share the
    factorizations of the basis solve and stay smooth through the shift
    confluence a^2 = b.
    """
    if ds.m != 1:
        raise DimensionMismatch("shift-pair optimization requires SISO input")
    data = spark_params_matrices(a, b)
    ctx = nk.SylvesterContext(ds.A, ds.E, data.S)
    E = ds.E
    S_a = np.array([[1.0, 0.0], [2 * a, 1.0]])
    V = ctx.solve(ds.B_defl @ data.R)
    Va = ctx.solve(E @ (V @ S_a))
    Vb = ctx.solve(E @ (V @ _S_DB))
    Vaa = ctx.solve(E @ (2 * Va @ S_a + V @ _S_DAA))
    Vab = ctx.solve(E @ (Va @ _S_DB + Vb @ S_a))
    Vbb = ctx.solve(E @ (2 * Vb @ _S_DB))
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
    return J, g, H, V, data


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
    basis: BasisV
    data: object
    rom: object
    cost: float
    grad: np.ndarray
    converged: bool
    reason: str
    trace: list = field(default_factory=list)


def spark(ds: DeflatedSystem, init: SparkParams = None,
          cfg: TrustRegionConfig = None) -> SparkResult:
    """Trust-region search for the locally optimal shift pair.

    Iterates stay in the positive orthant (steps leaving it are rejected
    with a radius shrink), accepted costs are monotone nonincreasing, and
    the returned reduced model is the projection at the final parameters.
    Each candidate is evaluated once; an accepted candidate's Hessian and
    basis are kept, so nothing is refactored at the end.
    """
    if init is None:
        init = SparkParams(1e-4, 1e-4)
    if cfg is None:
        cfg = TrustRegionConfig()
    p = init.as_array()
    J, g, H, V, data = evaluate(ds, *p)
    radius = cfg.radius0
    trace = [{"iter": 0, "a": p[0], "b": p[1], "J": J,
              "gnorm": float(np.linalg.norm(g)), "radius": radius,
              "accepted": True}]
    converged, reason = False, "maxiter"
    for it in range(1, cfg.maxiter + 1):
        if np.linalg.norm(g) <= cfg.gtol * (1.0 + abs(J)):
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
        if snorm <= cfg.steptol * (1.0 + np.linalg.norm(p)):
            converged, reason = True, "steptol"
            break
        cand = p + s
        rec = {"iter": it, "a": cand[0], "b": cand[1], "radius": radius,
               "step": snorm}
        if cand[0] <= cfg.param_floor or cand[1] <= cfg.param_floor:
            radius *= cfg.shrink
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
            if rho >= cfg.eta1 or polish:
                p = cand
                J, g, H, V, data = point
                rec.update(accepted=True, J=J,
                           gnorm=float(np.linalg.norm(g)))
            else:
                rec.update(accepted=False)
            if rho < cfg.eta1 and not polish:
                radius *= cfg.shrink
            elif rho > cfg.eta2 and snorm >= 0.99 * radius:
                radius = min(radius * cfg.expand, cfg.radius_max)
            trace.append(rec)
        if radius < cfg.radius_min:
            converged, reason = True, "radius collapse"
            break
    params = SparkParams(*p)
    basis = BasisV(V=V, provenance=(params.a, params.b))
    rom = pork_input(basis, data, ds.C, provenance=f"spark a={params.a} "
                     f"b={params.b}")
    return SparkResult(params=params, basis=basis, data=data, rom=rom,
                       cost=J, grad=g, converged=converged, reason=reason,
                       trace=trace)
