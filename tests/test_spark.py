import weakref

import numpy as np
import pytest

from daecure import cure
from daecure import numkernel as nk
from daecure import spark as sp
from daecure.errors import NonPositiveParams
from daecure.interp import (DeflatedSystem, spark_params_matrices,
                            sylvester_residual)
from daecure.pork import pork_input

from conftest import basis_at, make_ode, make_random_stable_ode


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
        G = sp._gramian_c(a, b)
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
        _, _, _, V, data, _ = sp.evaluate(ds, a, b)
        res = sp.spark(ds, init=sp.SparkParams(a, b), gtol=1e30)
        rom, residual = res.rom, res.interp_residual
        assert np.array_equal(res.V, V)
        data0 = spark_params_matrices(a, b)
        assert sylvester_residual(ds, V, data) <= 1e-12
        assert np.array_equal(data.S, data0.S)
        assert np.array_equal(data.R, data0.R)
        assert np.array_equal(rom.Cr, ds.C @ V)
        assert residual <= 1e-10


@pytest.mark.parametrize("a, b", [(0.8, 1.4), (2.0, 1.0)],
                         ids=["conjugate", "real"])
def test_evaluate_makes_eight_triangular_solves(lu_solves, a, b):
    # one block solve per Schur column for V, (V_a, V_b) and
    # (V_aa, V_ab, V_bb) in evaluate, then one B_defl solve per shift for
    # the certificate of the point SPARK returns, here its start pair; no
    # column needs refinement
    ds = DeflatedSystem.from_dae(make_random_stable_ode(12, seed=2))
    del lu_solves[:]
    sp.evaluate(ds, a, b)
    assert len(lu_solves) == 6
    del lu_solves[:]
    res = sp.spark(ds, init=sp.SparkParams(a, b), gtol=1e30)
    assert res.reason == "gtol" and res.trace[-1]["iter"] == 0
    assert len(lu_solves) == 8
    # a real pair solves the complex Schur columns as [Re | Im] blocks
    width = 1 if a * a < b else 2
    assert [shape[1] for shape in lu_solves] \
        == [width * k for k in (1, 1, 2, 2, 3, 3)] + [1, 1]


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
    rng = np.random.default_rng(11)
    for seed in (0, 1, 2):
        ds = DeflatedSystem.from_dae(make_random_stable_ode(15, seed=seed))
        for _ in range(6):
            a, b = rng.uniform(0.1, 5.0, 2)
            H = sp.evaluate(ds, a, b)[2]
            assert np.array_equal(H, H.T)
            fd = np.empty((2, 2))
            for i in range(2):
                step = np.zeros(2)
                step[i] = 1e-5 * max(1.0, (a, b)[i])
                gp = sp.evaluate(ds, *(np.array([a, b]) + step))[1]
                gm = sp.evaluate(ds, *(np.array([a, b]) - step))[1]
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
    sys = make_random_stable_ode(12, seed=9)
    ds = DeflatedSystem.from_dae(sys)
    a = 1.1
    H0 = sp.evaluate(ds, a, a * a * (1 - 1e-8))[2]
    H1 = sp.evaluate(ds, a, a * a * (1 + 1e-8))[2]
    Hc = sp.evaluate(ds, a, a * a)[2]
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


def test_trust_region_hard_case():
    # gradient orthogonal to the negative-curvature direction
    g = np.array([0.5, 0.0])
    H = np.diag([1.0, -1.0])
    s = sp.trust_region_step(g, H, radius=1.0)
    assert abs(np.linalg.norm(s) - 1.0) <= 1e-8


def test_positive_params_required():
    with pytest.raises(NonPositiveParams):
        spark_params_matrices(-1.0, 1.0)
    with pytest.raises(NonPositiveParams):
        spark_params_matrices(1.0, 0.0)


def test_spark_drives_gradient_down():
    sys = make_random_stable_ode(20, seed=4)
    ds = DeflatedSystem.from_dae(sys)
    res = sp.spark(ds)
    assert res.converged
    assert res.params.a > 0 and res.params.b > 0
    assert np.linalg.norm(res.grad) <= 1e-6 * (1 + abs(res.cost))
    # accepted iterates are monotone in cost
    Js = [r["J"] for r in res.trace if r.get("accepted") and "J" in r]
    assert all(j2 <= j1 + 1e-12 for j1, j2 in zip(Js, Js[1:]))


def test_spark_exact_on_order_two():
    # [DERIVED] for an order-2 target the optimizer can zero the error
    sys = make_ode([-1.0, -2.0], [1.0, 1.0], [0.25, -0.175])
    ds = DeflatedSystem.from_dae(sys)
    res = sp.spark(ds, gtol=1e-11)
    from daecure import h2analysis as h2
    err = h2.h2_error_norm(ds, res.rom)
    assert err <= 1e-8


def test_spark_factors_once_per_evaluated_point(factor_log, monkeypatch):
    # one complex LU (conjugate pair) or two real LUs (real pair) per
    # trust-region point; besides them a whole cumulative reduction
    # factors only the saddle-point matrix, first: nothing is refactored
    # once a SPARK loop returns, to certify or to deplete a step
    shifts = factor_log
    evaluated = []
    evaluate = sp.evaluate

    def counting_evaluate(ds, a, b, ctx=None):
        evaluated.append((a, b, len(shifts)))
        return evaluate(ds, a, b, ctx)

    monkeypatch.setattr(sp, "evaluate", counting_evaluate)
    _, report, _ = cure.cured_spark(
        DeflatedSystem.from_dae(make_random_stable_ode(20, seed=4)))
    assert report["k"] >= 2
    assert all(st["converged"] for st in report["steps"])
    assert len(evaluated) >= 5
    assert shifts[0] == 0.0 and evaluated[0][2] == 1
    ends = [k for _, _, k in evaluated[1:]] + [len(shifts)]
    saw = set()
    for (a, b, start), end in zip(evaluated, ends):
        point = shifts[start:end]
        if a * a < b:
            assert len(point) == 1 and point[0].imag != 0.0
        else:
            assert len(point) <= 2 and all(s.imag == 0.0 for s in point)
        saw.add(a * a < b)
    assert saw == {True, False}


@pytest.mark.parametrize("maxiter, reason, refactor",
                         [(1, "maxiter", 0), (sp.MAXITER, "steptol", 1)])
@pytest.mark.parametrize("fixture", ["index1_small", "stokes_small"])
def test_returned_point_is_certified_after_any_stop(
        fixture, maxiter, reason, refactor, request, monkeypatch):
    # with gtol = 0 the stopping test never passes.  A steptol stop comes
    # after the returned point dropped its context at that test, so the
    # point is refactored once; with maxiter = 1 the accepted trial still
    # holds its context, which then certifies it
    ds = DeflatedSystem.from_dae(request.getfixturevalue(fixture))
    contexts, evaluated = [], []
    ctx_init, evaluate = nk.SylvesterContext.__init__, sp.evaluate

    def tracked(self, A, E, S):
        contexts.append(weakref.ref(self))
        ctx_init(self, A, E, S)

    def counting_evaluate(ds, a, b, ctx=None):
        evaluated.append((a, b))
        return evaluate(ds, a, b, ctx)

    monkeypatch.setattr(nk.SylvesterContext, "__init__", tracked)
    monkeypatch.setattr(sp, "evaluate", counting_evaluate)
    monkeypatch.setattr(sp, "MAXITER", maxiter)
    res = sp.spark(ds, gtol=0.0)
    assert res.reason == reason
    assert len(contexts) == len(evaluated) + refactor
    assert res.ctx is contexts[-1]()
    assert np.array_equal(res.ctx.S, res.data.S)
    assert res.interp_residual <= 1e-10
