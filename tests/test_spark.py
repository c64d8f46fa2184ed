import dataclasses
import math
import weakref

import numpy as np
import pytest
import scipy.linalg as spla

from daecure import cure
from daecure import numkernel as nk
from daecure import spark as sp
from daecure.errors import (NonFiniteDerivatives, NonPositiveParams,
                            SingularShift)
from daecure.interp import DeflatedSystem
from daecure.pork import pork_input

from conftest import (basis_at, make_ode, make_random_stable_ode,
                      pole_residue_surrogate, spark_gtol)
from oracles import (galerkin_system, gramian_c, h2_error_norm,
                     sylvester_residual, trace_derivatives)

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # only the property test at the end needs it
    hypothesis = None


def _certify(ds, res):
    """The ROM and certificate ``cure_step`` makes of a SPARK result's
    point on ``ds``, with the LUs ``ds`` keeps; the input of ``ds`` is
    restored."""
    B_defl = ds.B_defl
    rec = cure.cure_step(cure.CureLedger(ds), res.point).records[-1]
    ds.B_defl = B_defl
    return rec.rom, rec.interp_residual


def _kept(ds, a, b):
    """Whether ``ds`` keeps the LUs of the pair (a, b)."""
    return ds.kept is not None and ds.kept.pair == sp.SparkParams(a, b)


def test_closed_form_reduced_matrices():
    # [DERIVED] with Er the shift Gramian of S(a,b), R = [1, 0]:
    # Er = 1/(4ab) [[a^2+b, -a], [-a, 1]], Ar = 1/(4a) [[-2a, 1], [-1, 0]],
    # br = (-1, 0)^T and controllability Gramian Er^-1 =
    # [[4a, 4a^2], [4a^2, 4a(a^2+b)]]
    rng = np.random.default_rng(0)
    sys = make_random_stable_ode(10, seed=5)
    ds = DeflatedSystem.from_dae(sys)
    for _ in range(20):
        a, b = rng.uniform(0.05, 10.0, 2)
        V, data = basis_at(ds, a, b)
        rom = pork_input(V, data, ds.C)
        Er = np.array([[a * a + b, -a], [-a, 1.0]]) / (4 * a * b)
        Ar = np.array([[-2 * a, 1.0], [-1.0, 0.0]]) / (4 * a)
        scale = max(np.abs(Er).max(), 1.0)
        assert np.allclose(rom.Er, Er, atol=1e-12 * scale)
        assert np.allclose(rom.Ar, Ar, atol=1e-12 * max(np.abs(Ar).max(), 1.0))
        assert np.allclose(rom.Br, [[-1.0], [0.0]], atol=1e-15)
        G = gramian_c(a, b)
        assert np.allclose(np.linalg.inv(rom.Er), G,
                           atol=1e-9 * np.abs(G).max())


def _cost(ds, a, b):
    return sp.evaluate(ds, a, b)[0]


def test_cost_equals_negative_captured_norm():
    sys = make_random_stable_ode(12, seed=2)
    ds = DeflatedSystem.from_dae(sys)
    from daecure import h2analysis as h2
    a, b = 0.8, 1.4
    J = _cost(ds, a, b)
    V, data = basis_at(ds, a, b)
    rom = pork_input(V, data, ds.C)
    assert abs(-J - h2.h2_norm(rom) ** 2) <= 1e-10 * max(abs(J), 1.0)


def test_evaluate_basis_is_the_spark_basis():
    ds = DeflatedSystem.from_dae(make_random_stable_ode(12, seed=2))
    for a, b in ((0.8, 1.4), (2.0, 1.0)):
        point = sp.evaluate(ds, a, b)
        V, pair = point.V, point.params
        with spark_gtol(1e30):
            res = sp.spark(ds, init=sp.SparkParams(a, b))
        rom, residual = _certify(ds, res)
        assert np.array_equal(res.point.V, V)
        assert sylvester_residual(ds, V, pair) <= 1e-12
        assert pair == res.point.params == sp.SparkParams(a, b)
        assert np.array_equal(rom.Cr, ds.C @ V)
        assert residual <= 1e-10


@pytest.mark.parametrize("a, b", [(0.8, 1.4), (2.0, 1.0)],
                         ids=["conjugate", "real"])
def test_evaluate_makes_two_solve_levels(lu_solves, a, b):
    # a full-model point is first order: evaluate solves V, then
    # (V_a, V_b), and no third level.  A conjugate pair makes one complex
    # block solve per level (Schur column 0 fixes the real solution); a
    # real pair one real block solve per Schur column and level, where
    # the second LU's block at the V level is Schur column 1's right-hand
    # side and B_defl, G's solve at that shift.  A SPARK call that returns
    # at its start pair makes the same solves, and its certificate none.
    # No column needs refinement
    ds = DeflatedSystem.from_dae(make_random_stable_ode(12, seed=2))
    levels = [1, 2] if a * a < b else [1, 2, 2, 2]
    del lu_solves[:]
    point = sp.evaluate(ds, a, b)
    assert point.H is None
    assert [shape[1] for shape in lu_solves] == levels
    del lu_solves[:]
    with spark_gtol(1e30):
        res = sp.spark(ds, init=sp.SparkParams(a, b))
    assert res.reason == "gtol" and res.trace[-1]["iter"] == 0
    assert [shape[1] for shape in lu_solves] == levels
    _certify(ds, res)
    assert [shape[1] for shape in lu_solves] == levels


@pytest.mark.parametrize("fixture", ["index1_small", "stokes_small",
                                     "ode_small"])
@pytest.mark.parametrize("a, b, recover", [
    (0.8, 1.4, True), (1.0, 1 + 1e-7, False), (2.0, 1.0, False),
    (1.5, 2.25, False)], ids=["recover", "conjugate-schur", "real",
                              "confluent"])
def test_point_transfer_values_are_the_lus_solves(fixture, request, a, b,
                                                  recover):
    # evaluate takes G(s_j) = -C (A - s_j E)^-1 B_defl at the shift of
    # each LU from the solves that make V: on the recover path, on the
    # Schur path of a conjugate pair near confluence, where 1/|d| is
    # above RECOVER_COND, and for a real and a confluent pair.  V is the
    # general Sylvester solve's with the input's right-hand side
    ds = DeflatedSystem.from_dae(request.getfixturevalue(fixture))
    point = sp.evaluate(ds, a, b)
    ctx = ds.kept
    assert (ctx._recover is not None) is recover
    assert len(point.G) == len(ctx.factors)
    for Gj, fac in zip(point.G, ctx.factors):
        G = -(ds.C @ fac.solve(ds.B_defl))
        assert np.linalg.norm(Gj - G) <= 1e-13 * np.linalg.norm(G)
    V = ctx.solve(ds.B_defl @ point.params.R)
    assert np.linalg.norm(point.V - V) <= 1e-13 * np.linalg.norm(V)
    assert sp.evaluate(sp.Surrogate(np.array([-1.0]), np.ones((1, 1))),
                       a, b).G is None


@pytest.mark.parametrize("fixture", ["index1_small", "stokes_small",
                                     "ode_small"])
def test_contracted_derivatives_match_trace_formulas(fixture, request):
    # J, g and H read off one contraction equal the term-by-term traces:
    # on the surrogate (pole-residue closed form, no basis, and the LUs
    # the system keeps are not its pair's) to second order against its
    # dense Galerkin pencil, on the full model (per-shift LUs, which the
    # system keeps) to first order.  The pairs, a real, a conjugate and
    # a confluent one, lie off the optimum, where g is more than rounding
    # noise
    ds = DeflatedSystem.from_dae(request.getfixturevalue(fixture))
    basis = sp.SurrogateBasis(ds.A, ds.E)
    res = sp.spark(ds, basis=basis)
    sur, dense = basis.surrogate(ds), galerkin_system(basis, ds)
    a = 1.2 * res.point.params.a
    for b in (0.5 * a * a, 2.0 * a * a, a * a):
        points = [(dense, sp.evaluate(sur, a, b))]
        assert not _kept(ds, a, b)
        points.append((ds, sp.evaluate(ds, a, b)))
        for d, point in points:
            J, g, H = trace_derivatives(d, a, b, hessian=d is dense)
            assert abs(point.J - J) <= 1e-12 * abs(J)
            assert np.linalg.norm(point.g - g) <= 1e-12 * np.linalg.norm(g)
            if d is dense:
                assert point.V is None
                assert np.array_equal(point.H, point.H.T)
                assert np.linalg.norm(point.H - H) \
                    <= 1e-12 * np.linalg.norm(H)
            else:
                assert _kept(ds, a, b)
                assert point.H is None


def _toward(pole, delta):
    """A pair with the shift pole * (1 + delta) and, for a complex pole,
    its conjugate, else the real shift 2 pole: a = (s0 + s1) / 2 and
    b = s0 s1."""
    s0 = pole * (1 + delta)
    s1 = np.conj(s0) if pole.imag else 2 * pole
    return float((s0 + s1).real / 2), float((s0 * s1).real)


@pytest.mark.parametrize("fixture", ["index1_small", "stokes_small",
                                     "ode_small"])
def test_surrogate_points_match_the_kronecker_oracle(fixture, request):
    # the closed-form J, gradient and Hessian of a surrogate point equal
    # the trace formulas over dense Kronecker solves of its Galerkin
    # pencil and over Schur solves, at real, conjugate, confluent and
    # near-confluent pairs, b = a^2 (1 +- 1e-8), and at a pair whose shift
    # is 1e-3 off a pole of the surrogate pencil moved into the right
    # half-plane, W^T A W + mu W^T E W
    ds = DeflatedSystem.from_dae(request.getfixturevalue(fixture))
    basis = sp.SurrogateBasis(ds.A, ds.E)
    res = sp.spark(ds, basis=basis)
    sur, dense = basis.surrogate(ds), galerkin_system(basis, ds)
    a = 1.2 * res.point.params.a
    pairs = [(sur, dense, a, a * a * c)
             for c in (0.5, 2.0, 1.0, 1 + 1e-8, 1 - 1e-8)]
    near = dataclasses.replace(dense, A=dense.A + (a - sur.poles.real.max())
                               * dense.E)
    moved = pole_residue_surrogate(near)
    pole = moved.poles[np.argmax(moved.poles.real)]
    assert pole.real > 0
    pairs.append((moved, near, *_toward(pole, 1e-3)))
    for model, system, a, b in pairs:
        point = sp.evaluate(model, a, b)
        for kronecker in (True, False):
            J, g, H = trace_derivatives(system, a, b, kronecker=kronecker)
            assert abs(point.J - J) <= 1e-10 * abs(J)
            assert np.linalg.norm(point.g - g) <= 1e-10 * np.linalg.norm(g)
            assert np.linalg.norm(point.H - H) <= 1e-10 * np.linalg.norm(H)


def test_surrogate_decomposition_gate(index1_small, monkeypatch):
    # a Galerkin pencil whose eigendecomposition misses its residual gate
    # (here one eigenvector is perturbed by 1e-6) or is not finite (an
    # infinite pole of a singular W^T E W) has no surrogate: the search
    # takes the full model at its start pair, as for a surrogate with a
    # pole there.  Nor has one whose eigenvectors each pass the gate but
    # leave E X singular, where the residue solve fails
    A, E = np.diag([-1.0, -2.0, -3.0]), np.diag([1.0, 1.0, 0.0])
    assert sp._eigen(A, E) is None
    assert sp._eigen(A, np.eye(3)) is not None
    ds = DeflatedSystem.from_dae(index1_small)
    basis = sp.SurrogateBasis(ds.A, ds.E)
    first = sp.spark(ds, basis=basis)
    eig = spla.eig

    def perturbed(*args, **kwargs):
        lam, X = eig(*args, **kwargs)
        X[:, 0] += 1e-6 * np.linalg.norm(X[:, 0])
        return lam, X

    monkeypatch.setattr(spla, "eig", perturbed)
    basis.add(sp.evaluate(ds, 2 * first.point.params.a, first.point.params.b))
    assert basis.fold() > 0
    with pytest.raises(SingularShift):
        basis.surrogate(ds)
    res = sp.spark(ds, basis=basis)
    assert res.evaluations[0]["a"] == sp.INIT.a
    assert res.evaluations[0]["b"] == sp.INIT.b
    assert res.reason == "surrogate singular" and not res.converged
    assert _certify(ds, res)[1] <= 1e-10

    def dependent(*args, **kwargs):
        lam, X = eig(*args, **kwargs)
        lam[1], X[:, 1] = lam[0], X[:, 0]
        return lam, X

    monkeypatch.setattr(spla, "eig", dependent)
    with pytest.raises(SingularShift):
        pole_residue_surrogate(DeflatedSystem(
            A=A, E=np.eye(3), B_defl=np.ones((3, 1)), C=np.ones((1, 3)),
            poly=None))


def test_surrogate_singular_at_the_current_pair_ends_the_search(
        stokes_small, monkeypatch):
    # a surrogate with a pole at the current pair ends the search there,
    # as one that finds no step from it: spark returns the pair, whose
    # LUs the system keeps, and its certificate instead of raising from
    # the optimizer.  Here the surrogate fails at the pair of the second
    # full-model point
    ds = DeflatedSystem.from_dae(stokes_small)
    evaluate, full = sp.evaluate, []

    def failing(model, a, b):
        if isinstance(model, DeflatedSystem):
            full.append((a, b))
        elif len(full) == 2 and (a, b) == full[-1]:
            raise SingularShift("the current pair is a surrogate pole")
        return evaluate(model, a, b)

    monkeypatch.setattr(sp, "evaluate", failing)
    res = sp.spark(ds)
    assert len(full) == len(res.evaluations) == 2
    assert res.evaluations[1]["accepted"]
    assert (res.point.params.a, res.point.params.b) == full[1]
    assert res.reason == "surrogate singular" and not res.converged
    assert _kept(ds, *full[1])
    assert _certify(ds, res)[1] <= 1e-10


def test_one_eigendecomposition_per_basis_change(index1_small, monkeypatch):
    # the surrogate pencil is decomposed once per fold that adds columns,
    # not once per surrogate point or per trust-region call
    folds, eigs, calls = [], [], []
    fold, eig, trust_region = (sp.SurrogateBasis.fold, spla.eig,
                               sp._trust_region)

    def counted_fold(self):
        folds.append(fold(self))
        return folds[-1]

    def counted_eig(*args, **kwargs):
        eigs.append(args[0].shape)
        return eig(*args, **kwargs)

    def counted_trust_region(*args):
        calls.append(args[0])
        return trust_region(*args)

    monkeypatch.setattr(sp.SurrogateBasis, "fold", counted_fold)
    monkeypatch.setattr(spla, "eig", counted_eig)
    monkeypatch.setattr(sp, "_trust_region", counted_trust_region)
    ds = DeflatedSystem.from_dae(index1_small)
    res = sp.spark(ds)
    assert res.reason == "gtol" and len(calls) > 1
    assert len(eigs) == sum(n > 0 for n in folds) >= 1
    assert len(eigs) < len(res.trace) - 1 and eigs[-1][0] < ds.n
def test_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    for seed in (0, 1):
        sys = make_random_stable_ode(15, seed=seed)
        ds = DeflatedSystem.from_dae(sys)
        for _ in range(5):
            a, b = rng.uniform(0.1, 5.0, 2)
            g = sp.evaluate(ds, a, b)[1]
            h = 1e-6
            fd = np.empty(2)
            for i, (da, db) in enumerate([(h, 0.0), (0.0, h)]):
                Jp = _cost(ds, a + da, b + db)
                Jm = _cost(ds, a - da, b - db)
                fd[i] = (Jp - Jm) / (2 * h)
            assert np.linalg.norm(g - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-8)


def test_hessian_matches_central_differences_of_gradient():
    # the Hessian the trust region uses is the surrogate's; on a basis of
    # all of R^n the surrogate has the system's transfer function
    rng = np.random.default_rng(11)
    for seed in (0, 1, 2):
        sur = pole_residue_surrogate(
            DeflatedSystem.from_dae(make_random_stable_ode(15, seed=seed)))
        for _ in range(6):
            a, b = rng.uniform(0.1, 5.0, 2)
            H = sp.evaluate(sur, a, b).H
            assert np.array_equal(H, H.T)
            fd = np.empty((2, 2))
            for i in range(2):
                step = np.zeros(2)
                step[i] = 1e-5 * max(1.0, (a, b)[i])
                gp = sp.evaluate(sur, *(np.array([a, b]) + step)).g
                gm = sp.evaluate(sur, *(np.array([a, b]) - step)).g
                fd[:, i] = (gp - gm) / (2 * step[i])
            assert np.linalg.norm(H - fd) <= 1e-6 * np.linalg.norm(fd)


def test_gradient_continuous_through_confluence():
    sys = make_random_stable_ode(12, seed=9)
    ds = DeflatedSystem.from_dae(sys)
    a = 1.1
    g0 = sp.evaluate(ds, a, a * a * (1 - 1e-8))[1]
    g1 = sp.evaluate(ds, a, a * a * (1 + 1e-8))[1]
    assert np.linalg.norm(g0 - g1) <= 1e-5 * max(np.linalg.norm(g0), 1e-8)


def test_hessian_continuous_through_confluence():
    sur = pole_residue_surrogate(
        DeflatedSystem.from_dae(make_random_stable_ode(12, seed=9)))
    a = 1.1
    H0 = sp.evaluate(sur, a, a * a * (1 - 1e-8)).H
    H1 = sp.evaluate(sur, a, a * a * (1 + 1e-8)).H
    Hc = sp.evaluate(sur, a, a * a).H
    for H in (H1, Hc):
        assert np.linalg.norm(H0 - H) <= 1e-5 * max(np.linalg.norm(H0), 1e-8)


def test_trust_region_step_interior_newton():
    g = np.array([1.0, -2.0])
    H = np.diag([2.0, 4.0])
    s = sp.trust_region_step(g, H, radius=10.0)
    assert np.allclose(s, [-0.5, 0.5], atol=1e-12)


def test_trust_region_step_boundary():
    g = np.array([1.0, 0.0])
    H = np.eye(2)
    s = sp.trust_region_step(g, H, radius=0.25)
    assert abs(np.linalg.norm(s) - 0.25) <= 1e-10
    assert np.allclose(s, [-0.25, 0.0], atol=1e-10)


def test_trust_region_step_negative_curvature():
    # indefinite model: solution must sit on the boundary and beat a scan
    g = np.array([0.3, -0.1])
    H = np.array([[1.0, 0.0], [0.0, -2.0]])
    radius = 1.0
    s = sp.trust_region_step(g, H, radius)
    assert np.linalg.norm(s) <= radius + 1e-10

    def model(v):
        return g @ v + 0.5 * v @ H @ v

    best = min(model(radius * np.array([np.cos(t), np.sin(t)]))
               for t in np.linspace(0, 2 * np.pi, 2000))
    assert model(s) <= best + 1e-6


@pytest.mark.parametrize("g, H", [
    ([np.nan, 1.0], np.diag([1.0, -1.0])),
    ([1.0, 0.5], [[np.inf, 0.0], [0.0, -1.0]]),
], ids=["nan-gradient", "inf-hessian"])
def test_trust_region_step_rejects_non_finite_input(g, H):
    # a NaN gradient once made the search for the pole offset run forever
    with pytest.raises(NonFiniteDerivatives):
        sp.trust_region_step(np.array(g), np.array(H), radius=1.0)


def test_trust_region_step_ends_on_an_underflowing_gradient():
    # 1e-16 * hi underflows to 0 here, so the pole offset must not start
    # at 0: the offset search would never leave f(0) = inf
    s = sp.trust_region_step(np.array([1e-310, 0.0]), np.zeros((2, 2)), 1.0)
    assert np.all(np.isfinite(s)) and np.linalg.norm(s) <= 1.0


def test_trust_region_hard_case():
    # gradient orthogonal to the negative-curvature direction
    g = np.array([0.5, 0.0])
    H = np.diag([1.0, -1.0])
    s = sp.trust_region_step(g, H, radius=1.0)
    assert abs(np.linalg.norm(s) - 1.0) <= 1e-8


def test_positive_params_required():
    with pytest.raises(NonPositiveParams):
        sp.SparkParams(-1.0, 1.0)
    with pytest.raises(NonPositiveParams):
        sp.SparkParams(1.0, 0.0)
    # S holds a^2 and Gamma divides by 4ab: both must be finite and nonzero
    for a, b in ((1e300, 1e300), (1e-300, 1e-300), (1e10, 1e-320)):
        with pytest.raises(NonPositiveParams):
            sp.SparkParams(a, b)
    ds = DeflatedSystem.from_dae(make_random_stable_ode(6, seed=0))
    with pytest.raises(NonPositiveParams):
        sp.evaluate(ds, 1.0, float("nan"))


@pytest.mark.parametrize("a, b", [
    (2.0, 1.0), (0.8, 1.4), (1.3, 1.3 * 1.3),
    (1.3, 1.3 * 1.3 * (1 - 1e-14)), (1.3, 1.3 * 1.3 * (1 + 1e-14)),
], ids=["real", "conjugate", "confluent", "real-1e-14", "conjugate-1e-14"])
def test_schur_data_in_closed_form(a, b):
    # U is unitary and U^H S U = T is upper triangular with the shifts on
    # its diagonal, to 1e-15, also 1e-14 either side of confluence; a real
    # pair has real Schur data, and U = I at confluence
    pair = sp.SparkParams(a, b)
    T, U = pair.schur()
    S = pair.S
    assert np.linalg.norm(U.conj().T @ U - np.eye(2)) <= 1e-15
    assert T[1, 0] == 0 and np.array_equal(np.diag(T), pair.shifts())
    assert np.linalg.norm(U.conj().T @ S @ U - T) \
        <= 1e-15 * np.linalg.norm(S)
    assert np.iscomplexobj(T) == np.iscomplexobj(U) == (a * a < b)
    if a * a == b:
        assert np.array_equal(U, np.eye(2))


def test_spark_drives_gradient_down():
    sys = make_random_stable_ode(20, seed=4)
    ds = DeflatedSystem.from_dae(sys)
    res = sp.spark(ds)
    assert res.converged
    assert res.point.params.a > 0 and res.point.params.b > 0
    assert np.linalg.norm(res.point.g) <= 1e-6 * (1 + abs(res.point.J))
    # accepted full-model points are monotone in cost
    Js = [e["J"] for e in res.evaluations if e["accepted"]]
    assert len(Js) >= 2 and Js[-1] == res.point.J
    assert all(j2 <= j1 + 1e-12 for j1, j2 in zip(Js, Js[1:]))


def test_spark_exact_on_order_two():
    # [DERIVED] for an order-2 target the optimizer can zero the error
    sys = make_ode([-1.0, -2.0], [1.0, 1.0], [0.25, -0.175])
    ds = DeflatedSystem.from_dae(sys)
    with spark_gtol(1e-11):
        res = sp.spark(ds)
    err = h2_error_norm(ds, pork_input(res.point.V, res.point.params, ds.C))
    assert err <= 1e-8


def _track_full(monkeypatch, n):
    """Weak references to the contexts and the (a, b, LUs kept already) of
    the evaluations made of a system of size n, the full model; a
    surrogate's points are no DeflatedSystem's."""
    contexts, evaluated = [], []
    ctx_init, evaluate = nk.SylvesterContext.__init__, sp.evaluate

    def tracked(self, pencil, pair):
        if pencil.n == n:
            contexts.append(weakref.ref(self))
        ctx_init(self, pencil, pair)

    def counting_evaluate(ds, a, b):
        if isinstance(ds, DeflatedSystem) and ds.n == n:
            evaluated.append((a, b, _kept(ds, a, b)))
        return evaluate(ds, a, b)

    monkeypatch.setattr(nk.SylvesterContext, "__init__", tracked)
    monkeypatch.setattr(sp, "evaluate", counting_evaluate)
    return contexts, evaluated


def test_spark_factors_once_per_evaluated_point(monkeypatch):
    # one LU set of the full pencil per full-model point: one complex LU
    # (conjugate pair) or two real LUs (real pair), none for a point whose
    # LUs the system keeps, as those of the pair the previous step
    # returned at.  A
    # surrogate point factors nothing, no per-shift LU and no LAPACK LU,
    # and besides these a whole cumulative reduction factors only the
    # saddle-point matrix, first: nothing is refactored once a SPARK call
    # returns, to certify or to deplete a step.  This system's full-model
    # points include real and conjugate pairs
    sys = make_random_stable_ode(20, seed=0)
    full, small, dense = [], [], []
    fac_init, lu_init = nk.ShiftedFactorization.__init__, nk.DenseLU.__init__

    def counting(self, pencil, sigma):
        (full if pencil.n == sys.n else small).append(complex(sigma))
        fac_init(self, pencil, sigma)

    def counting_lu(self, M):
        dense.append(M.shape[0])
        lu_init(self, M)

    monkeypatch.setattr(nk.ShiftedFactorization, "__init__", counting)
    monkeypatch.setattr(nk.DenseLU, "__init__", counting_lu)
    evaluated, surrogate = [], []
    evaluate = sp.evaluate

    def counting_evaluate(d, a, b):
        if isinstance(d, DeflatedSystem):
            assert d.n == sys.n
            evaluated.append((a, b, _kept(d, a, b), len(full)))
            return evaluate(d, a, b)
        made = len(full) + len(dense)
        point = evaluate(d, a, b)
        surrogate.append((point.V, len(full) + len(dense) - made))
        return point

    monkeypatch.setattr(sp, "evaluate", counting_evaluate)
    ds = DeflatedSystem.from_dae(sys)
    report, _ = cure.cured_spark(ds)
    assert report["k"] >= 2
    assert all(st["converged"] for st in report["steps"])
    assert len(evaluated) >= 5
    assert surrogate and small == []
    assert surrogate == [(None, 0)] * len(surrogate)
    assert all(n == sys.n for n in dense)
    assert sum(st["full_evaluations"] for st in report["steps"]) \
        < len(evaluated)        # and the discarded stagnation call
    # the saddle-point LU first; the start pair's LU is made inside the
    # first evaluate, at the system's first Sylvester context, from whose
    # fill the system picks the kernel of every later LU
    assert full[0] == 0.0 and evaluated[0][3] == 1
    assert evaluated[0][:3] == (sp.INIT.a, sp.INIT.b, False)
    ends = [k for *_, k in evaluated[1:]] + [len(full)]
    saw = set()
    for (a, b, given, start), end in zip(evaluated, ends):
        point = full[start:end]
        if given:
            assert point == []
        elif a * a < b:
            assert len(point) == 1 and point[0].imag != 0.0
        else:
            assert len(point) <= 2 and all(s.imag == 0.0 for s in point)
        saw.add(a * a < b)
    assert saw == {True, False}


@pytest.mark.parametrize("fixture", ["index1_small", "stokes_small"])
def test_full_pencil_solves_first_order_and_surrogate_skips_superlu(
        fixture, request, monkeypatch):
    # full-model points are evaluated to first order: no factorization of
    # the full pencil solves the stacked (V_aa, V_ab, V_bb) right-hand
    # side.  A surrogate point is a closed form in its poles and residues
    # and factors nothing, so SuperLU factors only full-pencil matrices
    ds = DeflatedSystem.from_dae(request.getfixturevalue(fixture))
    blocks, superlu = [], []
    solve, splu = nk.ShiftedFactorization.solve, nk.spsla.splu

    def logged_solve(self, rhs):
        if self.n == ds.n:
            blocks.append(np.shape(rhs)[1:])
        return solve(self, rhs)

    def logged_splu(M, *args, **kwargs):
        superlu.append(M.shape)
        return splu(M, *args, **kwargs)

    monkeypatch.setattr(nk.ShiftedFactorization, "solve", logged_solve)
    monkeypatch.setattr(nk.spsla, "splu", logged_splu)
    report, _ = cure.cured_spark(ds)
    assert sum(st["iterations"] for st in report["steps"]) > 0
    assert blocks and (3,) not in blocks
    assert superlu and set(superlu) == {(ds.n, ds.n)}


@pytest.mark.parametrize("maxiter, reason, refactor",
                         [(1, "maxiter", 0), (sp.MAXITER, "steptol", 0)])
@pytest.mark.parametrize("fixture", ["index1_small", "stokes_small"])
def test_returned_point_is_certified_after_any_stop(
        fixture, maxiter, reason, refactor, request, monkeypatch):
    # with gtol = 0 the stopping test never passes: the loop stops after
    # maxiter full-model points, or when the surrogate finds no step from
    # the current pair.  Either way the returned pair is the last
    # accepted full-model point, whose LUs the system still keeps, and
    # they certify it
    ds = DeflatedSystem.from_dae(request.getfixturevalue(fixture))
    contexts, evaluated = _track_full(monkeypatch, ds.n)
    monkeypatch.setattr(sp, "MAXITER", maxiter)
    with spark_gtol(0.0):
        res = sp.spark(ds)
    assert res.reason == reason
    assert len(evaluated) == len(res.evaluations) > 1
    assert ds.kept is contexts[-1]() and ds.kept.pair == res.point.params
    assert _certify(ds, res)[1] <= 1e-10
    assert len(contexts) == len(evaluated) + refactor
    assert ds.kept is contexts[-1]()


def _surrogate_start(monkeypatch, singular):
    """A surrogate, a start pair p off its optimum and p's point, with
    ``spark.evaluate`` raising SingularShift at the surrogate candidates
    for which ``singular`` (called with the number of candidates before)
    is true."""
    sur = pole_residue_surrogate(
        DeflatedSystem.from_dae(make_random_stable_ode(8, seed=0)))
    p = np.array([0.5, 0.3])
    start = sp.evaluate(sur, *p)
    evaluate, tried = sp.evaluate, []

    def at_a_pole(model, a, b):
        tried.append((a, b))
        if singular(len(tried) - 1):
            raise SingularShift(f"({a}, {b}) is a surrogate pole")
        return evaluate(model, a, b)

    monkeypatch.setattr(sp, "evaluate", at_a_pole)
    return sur, p, start


def test_trust_region_rejects_every_candidate_at_a_pole(monkeypatch):
    # a surrogate candidate at one of its poles is rejected and the
    # radius halved, like a step out of the positive orthant.  When every
    # candidate is one, no step is accepted and the very p passed in is
    # returned: a step never exceeds the radius, so the step length falls
    # under STEPTOL (1 + ||p||), and every step tried was longer
    sur, p, start = _surrogate_start(monkeypatch, lambda k: True)
    trace = [sp._start_record(p, start)]
    q, converged, why = sp._trust_region(sur, p, start, sp.GTOL, trace)
    assert q is p and (converged, why) == (True, "steptol")
    records = trace[1:]
    assert len(records) > 1
    assert all(not r["accepted"] and r["why"] == "singular shift"
               for r in records)
    assert [r["radius"] for r in records] \
        == [sp.RADIUS0 * sp.SHRINK ** k for k in range(len(records))]
    assert all(r["step"] > sp.STEPTOL * (1 + np.linalg.norm(p))
               for r in records)


def test_trust_region_tries_again_at_half_the_radius_after_a_pole(
        monkeypatch):
    sur, p, start = _surrogate_start(monkeypatch, lambda k: k == 0)
    trace = [sp._start_record(p, start)]
    q, converged, why = sp._trust_region(sur, p, start, sp.GTOL, trace)
    first, second = trace[1], trace[2]
    assert not first["accepted"] and first["why"] == "singular shift"
    assert first["radius"] == sp.RADIUS0
    assert second["radius"] == sp.SHRINK * sp.RADIUS0
    assert "why" not in second and second["step"] <= second["radius"]
    assert (second["a"], second["b"]) != (first["a"], first["b"])
    assert q is not p and converged


def test_trust_region_step_tiny_curvature():
    # all Hessian eigenvalues far below 1: the bracket of the secular
    # equation must not be offset by an absolute shift (it used to be
    # 1e-16, past the root, and brentq failed)
    g = np.array([1.1819191393290592e-11, -1.4790310769565938e-12])
    H = np.array([[3.5948532160030415e-11, -4.5505059291502709e-14],
                  [-4.5505059291502709e-14, 7.8802695711184312e-17]])
    s = sp.trust_region_step(g, H, 16384.0)
    assert abs(np.linalg.norm(s) - 16384.0) <= 1e-10 * 16384.0
    model = lambda v: g @ v + 0.5 * v @ H @ v
    best = min(model(16384.0 * np.array([np.cos(t), np.sin(t)]))
               for t in np.linspace(0, 2 * np.pi, 20000))
    assert model(s) <= best + 1e-8 * abs(best)


def test_trust_region_step_meets_the_radius_to_rounding():
    # seeded problems over 24 decades of scale and 12 of radius, one in
    # four with a diagonal Hessian: no step is longer than the radius, a
    # boundary step lies on it to rounding, and on a subset the model
    # value is the least of a boundary scan and the interior Newton step
    rng = np.random.default_rng(0)
    angles = np.linspace(0, 2 * np.pi, 20000)
    circle = np.stack([np.cos(angles), np.sin(angles)])
    for i in range(10000):
        scale = 10.0 ** rng.uniform(-12, 12)
        radius = 10.0 ** rng.uniform(-6, 6)
        g = scale * rng.standard_normal(2)
        M = rng.standard_normal((2, 2))
        H = scale * (np.diag(np.diag(M)) if i % 4 == 0 else 0.5 * (M + M.T))
        s = sp.trust_region_step(g, H, radius)
        ratio = np.linalg.norm(s) / radius
        assert ratio <= 1 + 1e-12
        newton = np.linalg.solve(H, -g)
        interior = np.linalg.eigvalsh(H).min() > 0 \
            and np.linalg.norm(newton) <= radius
        if not interior:
            assert abs(ratio - 1) <= 1e-12
        if i % 50 == 0:
            edge = radius * circle
            values = g @ edge + 0.5 * np.einsum("ik,ij,jk->k", edge, H, edge)
            best = values.min()
            if interior:
                best = min(best, g @ newton + 0.5 * newton @ H @ newton)
            size = np.linalg.norm(g) * radius + np.linalg.norm(H) * radius ** 2
            assert g @ s + 0.5 * s @ H @ s <= best + 1e-12 * size


@pytest.mark.parametrize("g, H, radius", [
    ([1.0, -2.0], [[2.0, 0.0], [0.0, 4.0]], 10.0),
    ([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], 0.25),
    ([0.3, -0.1], [[1.0, 0.0], [0.0, -2.0]], 1.0),
    ([0.5, 0.0], [[1.0, 0.0], [0.0, -1.0]], 1.0),
    ([1e-3, 1.0], [[-1.0, 0.3], [0.3, 2.0]], 0.5),
    ([1.1819191393290592e-11, -1.4790310769565938e-12],
     [[3.5948532160030415e-11, -4.5505059291502709e-14],
      [-4.5505059291502709e-14, 7.8802695711184312e-17]], 16384.0),
], ids=["interior", "boundary", "indefinite", "hard", "mixed", "tiny"])
def test_trust_region_step_is_scale_invariant(g, H, radius):
    g, H = np.array(g), np.array(H)
    s = sp.trust_region_step(g, H, radius)
    for c in (1e-6, 1e6):
        sc = sp.trust_region_step(c * g, c * H, radius)
        assert np.linalg.norm(sc - s) <= 1e-12 * max(np.linalg.norm(s), 1.0)


@pytest.mark.parametrize("fixture", ["index1_small", "stokes_small",
                                     "ode_small"])
def test_surrogate_is_exact_at_full_model_points(fixture, request,
                                                 monkeypatch):
    # the Galerkin surrogate of one SPARK call reproduces J and its
    # gradient at every full-model point whose bases it holds: J relative
    # to itself, the gradient on the scale of the stopping test
    ds = DeflatedSystem.from_dae(request.getfixturevalue(fixture))
    added = []
    add = sp.SurrogateBasis.add

    def keep(self, point):
        added.append(point)
        return add(self, point)

    monkeypatch.setattr(sp.SurrogateBasis, "add", keep)
    basis = sp.SurrogateBasis(ds.A, ds.E)
    res = sp.spark(ds, basis=basis)
    assert res.reason == "gtol" and len(res.evaluations) >= 2
    assert len(added) >= 2
    sur = basis.surrogate(ds)
    assert sur.poles.size == basis.W.shape[1] < ds.n
    assert np.allclose(basis.W.T @ basis.W, np.eye(sur.poles.size),
                       atol=1e-12)
    for point in added:
        model = sp.evaluate(sur, point.params.a, point.params.b)
        assert abs(model.J - point.J) <= 1e-10 * abs(point.J)
        assert np.linalg.norm(model.g - point.g) <= 1e-10 * (1 + abs(point.J))


def test_surrogate_basis_folds_queued_blocks_when_read(index1_small,
                                                      monkeypatch):
    # an add only queues a point's bases; the first read of W folds them
    # in, in order, to the bits that folding after every add gives.  A
    # repeated point adds no column
    ds = DeflatedSystem.from_dae(index1_small)
    points = [sp.evaluate(ds, a, b)
              for a, b in ((1e-2, 2e-4), (0.5, 0.3), (0.5, 0.3), (2.0, 1.0))]
    eager = sp.SurrogateBasis(ds.A, ds.E)
    counts = []
    for point in points:
        eager.add(point)
        counts.append(eager.fold())
    assert counts[0] > 0 and counts[2] == 0
    lazy = sp.SurrogateBasis(ds.A, ds.E)
    svd, svds = np.linalg.svd, []

    def counted_svd(*args, **kwargs):
        svds.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    for point in points:
        lazy.add(point)
    assert svds == []
    got, want = lazy.surrogate(ds), eager.surrogate(ds)
    for x, y in ((lazy.W, eager.W), (got.poles, want.poles),
                 (got.residues, want.residues)):
        assert np.array_equal(x, y)
    assert len(svds) == len(points) and lazy.fold() == 0


def test_surrogate_crossing_the_axis_is_caught(index1_small, monkeypatch):
    # Galerkin does not keep an index-1 surrogate stable.  Here one is
    # moved until its rightmost pole sits at +1, where its J has no lower
    # bound: the full-model J of its optimum rises and the point is
    # rejected, which enriches the surrogate
    ds = DeflatedSystem.from_dae(index1_small)
    opt = sp.spark(ds)
    init = sp.SparkParams(1.2 * opt.point.params.a, opt.point.params.b / 1.2)
    surrogate = sp.SurrogateBasis.surrogate
    crossed = []

    def crossing(once):
        def make(self, d):
            sur = surrogate(self, d)
            if once and crossed:
                return sur
            mu = 1.0 - sur.poles.real.max()
            crossed.append(mu)
            return dataclasses.replace(sur, poles=sur.poles + mu)
        return make

    # a surrogate that crosses once: the step then converges as before
    monkeypatch.setattr(sp.SurrogateBasis, "surrogate", crossing(True))
    res = sp.spark(ds, init=init)
    assert crossed and crossed[0] > 1.0
    accepted = [e["accepted"] for e in res.evaluations]
    assert accepted[1] is False and accepted[-1] is True
    Js = [e["J"] for e in res.evaluations if e["accepted"]]
    assert all(j2 <= j1 + 1e-13 for j1, j2 in zip(Js, Js[1:]))
    assert res.reason == "gtol"
    assert abs(res.point.J - opt.point.J) <= 1e-10 * abs(opt.point.J)
    # one that always crosses: no point after the start is accepted, and
    # the system keeps the last rejected point's LUs; the certificate of
    # the returned start pair reads its point and makes no context
    contexts, evaluated = _track_full(monkeypatch, ds.n)
    monkeypatch.setattr(sp.SurrogateBasis, "surrogate", crossing(False))
    res = sp.spark(ds, init=init)
    assert [e["accepted"] for e in res.evaluations][1:] \
        == [False] * (len(res.evaluations) - 1)
    assert len(res.evaluations) >= 2 and not res.converged
    assert np.array_equal(res.point.params.as_array(), init.as_array())
    assert len(contexts) == len(evaluated)
    assert not any(kept for *_, kept in evaluated)
    kept = ds.kept
    assert kept.pair != init
    assert _certify(ds, res)[1] <= 1e-10
    assert len(contexts) == len(evaluated)
    assert ds.kept is kept is contexts[-1]()


def _gramians(a, b):
    """The reduced Gramian and its nonzero derivatives, stacked as
    (G, G_a, G_b, G_aa, G_ab); G_bb = 0."""
    return np.array([gramian_c(a, b),
                     [[4.0, 8 * a], [8 * a, 12 * a * a + 4 * b]],
                     [[0.0, 0.0], [0.0, 4 * a]],
                     [[0.0, 8.0], [8.0, 24 * a]],
                     [[0.0, 0.0], [0.0, 4.0]]])


def _einsum_contract(Cs, a, b):
    """The oracle of ``sp._contract``: every trace tr(C_i G_m C_j^T) of the
    stack and the Gramian's derivatives, from one einsum."""
    T = np.einsum("ipk,mkl,jpl->mij", Cs, _gramians(a, b), Cs)
    J = -float(T[0, 0, 0])
    g = -2 * T[0, 1:3, 0] - T[1:3, 0, 0]
    H = None
    if len(Cs) == 6:
        D = T[1:3, 1:3, 0]
        Gij = T[3:5, 0, 0]
        H = -2 * (T[0, [[3, 4], [4, 5]], 0] + T[0, 1:3, 1:3] + D + D.T) \
            - np.array([[Gij[0], Gij[1]], [Gij[1], 0.0]])
        H[1, 0] = H[0, 1]
    return J, g, H


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("k", [3, 6])
def test_gram_contraction_is_the_einsum_over_the_gramian_stack(k, p):
    # J, g and H read off the Gram product of a stack of k C V_i with p
    # outputs each equal the einsum over (G, G_a, G_b, G_aa, G_ab), at
    # real, confluent and conjugate pairs over six decades of a
    rng = np.random.default_rng(10 * k + p)
    for _ in range(20):
        Cs = rng.standard_normal((k, p, 2)) * 10.0 ** rng.uniform(-3, 3)
        a = 10.0 ** rng.uniform(-3, 3)
        b = a * a * rng.choice([0.25, 1.0, 4.0])
        J, g, H = sp._contract(Cs, a, b)
        J0, g0, H0 = _einsum_contract(Cs, a, b)
        assert type(J) is float and g.shape == (2,)
        assert abs(J - J0) <= 1e-13 * abs(J0)
        assert np.linalg.norm(g - g0) <= 1e-13 * np.linalg.norm(g0)
        if k == 3:
            assert H is None and H0 is None
        else:
            assert np.array_equal(H, H.T)
            assert np.linalg.norm(H - H0) <= 1e-13 * np.linalg.norm(H0)


def _eigh_trust_region_step(g, H, radius):
    """The oracle of ``sp.trust_region_step``: the same steps on the
    eigendecomposition of the symmetrized H that ``np.linalg.eigh``
    gives."""
    g = np.asarray(g, dtype=float)
    H = 0.5 * (np.asarray(H, dtype=float) + np.asarray(H, dtype=float).T)
    w, Q = np.linalg.eigh(H)
    gt = Q.T @ g
    if w.min() > 0:
        s = -Q @ (gt / w)
        if np.linalg.norm(s) <= radius:
            return s
    lam0 = max(0.0, -w.min())
    gnorm = np.linalg.norm(gt)
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
    e = w + lam0
    (g0, g1), (e0, e1) = gt.tolist(), e.tolist()

    def step_norm(mu):
        return math.hypot(g0 / (e0 + mu), g1 / (e1 + mu))

    hi = 2 * float(gnorm) / radius
    if w.min() > 0:
        lo = 0.0
    else:
        eps = max(1e-16 * (lam0 + hi), np.finfo(float).tiny)
        while not math.isfinite(step_norm(eps)):
            eps *= 10
        lo = eps
        if step_norm(lo) <= radius:
            return -Q @ (gt / (e + lo))
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


if hypothesis is None:
    @pytest.mark.skip(reason="the property test below needs hypothesis")
    def test_property_needs_hypothesis():
        pass
else:
    #: eigenvalue, gradient and radius magnitudes, 0.1 ... 10
    _MAGNITUDES = st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e)
    _SIGNED = st.tuples(st.sampled_from([-1.0, 1.0]), _MAGNITUDES).map(
        lambda t: t[0] * t[1])

    @st.composite
    def _subproblems(draw):
        """(g, H, radius, hard) with H = Q diag(w) Q^T, Q a rotation by
        angle and g = Q gt: a zero off-diagonal, equal, near-equal, zero
        and negative eigenvalues, the hard case (gt along the least
        eigenvalue zero, its floor ||gt_1 / (w_1 - w_0)|| off the
        radius, where the step has a square-root singularity), each
        scaled by c in (1e-6, 1, 1e6)."""
        kind = draw(st.sampled_from(["general", "diagonal", "equal",
                                     "near-equal", "zero", "negative",
                                     "hard"]))
        w = sorted([draw(_SIGNED), draw(_SIGNED)])
        gt = [draw(_SIGNED), draw(_SIGNED)]
        radius = draw(_MAGNITUDES)
        if kind == "equal":
            w[1] = w[0]
        elif kind == "near-equal":
            w[1] = w[0] + abs(w[0]) * draw(st.sampled_from([1e-12, 1e-9,
                                                            1e-6]))
        elif kind == "zero":
            w[draw(st.sampled_from([0, 1]))] = 0.0
        elif kind in ("negative", "hard"):
            w = [-abs(w[0]), abs(w[1])]
        hard = kind == "hard"
        if hard:
            gt[0] = 0.0
            floor = abs(gt[1] / (w[1] - w[0]))
            hypothesis.assume(abs(floor - radius) > 1e-2 * radius)
        angle = 0.0 if kind == "diagonal" else draw(st.floats(0.0, math.pi))
        Q = np.array([[math.cos(angle), -math.sin(angle)],
                      [math.sin(angle), math.cos(angle)]])
        H = Q @ np.diag(w) @ Q.T
        c = draw(st.sampled_from([1e-6, 1.0, 1e6]))
        return c * (Q @ gt), c * 0.5 * (H + H.T), radius, hard

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(_subproblems())
    def test_rotation_step_is_the_eigh_step(problem):
        # the closed-form 2x2 step equals the eigh-based one to
        # 1e-12 (1 + ||s||), and never leaves the radius by more than
        # rounding.  In the hard case the step along the free eigenvector
        # has either sign in both, so its mirror image counts as well
        g, H, radius, hard = problem
        s = sp.trust_region_step(g, H, radius)
        want = _eigh_trust_region_step(g, H, radius)
        tol = 1e-12 * (1 + np.linalg.norm(s))
        gap = np.linalg.norm(s - want)
        if hard:
            v = np.linalg.eigh(H)[1][:, 0]
            gap = min(gap, np.linalg.norm(s - want + 2 * (v @ want) * v))
        assert gap <= tol
        assert np.linalg.norm(s) <= radius * (1 + 1e-14)
