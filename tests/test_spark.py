import numpy as np
import pytest

from daecure import spark as sp
from daecure.errors import NonPositiveParams
from daecure.interp import DeflatedSystem, spark_basis
from daecure.pork import pork_input

from conftest import make_ode, make_random_stable_ode


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
        basis, data = spark_basis(ds, a, b)
        rom = pork_input(basis, data, ds.C)
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
    basis, data = spark_basis(ds, a, b)
    rom = pork_input(basis, data, ds.C)
    assert abs(-J - h2.h2_norm(rom) ** 2) <= 1e-10 * max(abs(J), 1.0)


def test_evaluate_basis_is_the_spark_basis():
    ds = DeflatedSystem.from_dae(make_random_stable_ode(12, seed=2))
    for a, b in ((0.8, 1.4), (2.0, 1.0)):
        _, _, _, V, data = sp.evaluate(ds, a, b)
        basis, data0 = spark_basis(ds, a, b)
        assert np.allclose(V, basis.V, rtol=0, atol=1e-12 * np.abs(V).max())
        assert np.array_equal(data.S, data0.S)
        assert np.array_equal(data.R, data0.R)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(3)
    for seed in (0, 1):
        sys = make_random_stable_ode(15, seed=seed)
        ds = DeflatedSystem.from_dae(sys)
        for _ in range(5):
            a, b = rng.uniform(0.1, 5.0, 2)
            _, g, _, _, _ = sp.evaluate(ds, a, b)
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
            _, _, H, _, _ = sp.evaluate(ds, a, b)
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
    _, g0, _, _, _ = sp.evaluate(ds, a, a * a * (1 - 1e-8))
    _, g1, _, _, _ = sp.evaluate(ds, a, a * a * (1 + 1e-8))
    assert np.linalg.norm(g0 - g1) <= 1e-5 * max(np.linalg.norm(g0), 1e-8)


def test_hessian_continuous_through_confluence():
    sys = make_random_stable_ode(12, seed=9)
    ds = DeflatedSystem.from_dae(sys)
    a = 1.1
    _, _, H0, _, _ = sp.evaluate(ds, a, a * a * (1 - 1e-8))
    _, _, H1, _, _ = sp.evaluate(ds, a, a * a * (1 + 1e-8))
    _, _, Hc, _, _ = sp.evaluate(ds, a, a * a)
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
        sp.SparkParams(-1.0, 1.0)
    with pytest.raises(NonPositiveParams):
        sp.SparkParams(1.0, 0.0)


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
    res = sp.spark(ds, cfg=sp.TrustRegionConfig(gtol=1e-11))
    from daecure import h2analysis as h2
    err = h2.h2_error_norm(ds, res.rom)
    assert err <= 1e-8


def test_spark_factors_once_per_evaluated_point(factor_log, monkeypatch):
    # one complex LU (conjugate pair) or two real LUs (real pair) per
    # trust-region point, and no refactorization once the loop returns
    shifts = factor_log
    evaluated = []
    evaluate = sp.evaluate

    def counting_evaluate(ds, a, b):
        evaluated.append((a, b, len(shifts)))
        return evaluate(ds, a, b)

    monkeypatch.setattr(sp, "evaluate", counting_evaluate)
    ds = DeflatedSystem.from_dae(make_random_stable_ode(20, seed=4))
    res = sp.spark(ds)
    assert res.converged and len(evaluated) >= 5
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
