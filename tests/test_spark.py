import dataclasses
import weakref

import numpy as np
import pytest
import scipy.linalg as spla

from daecure import cure
from daecure import numkernel as nk
from daecure import spark as sp
from daecure.errors import NonFiniteDerivatives, NonPositiveParams
from daecure.interp import DeflatedSystem
from daecure.pork import pork_input

from conftest import basis_at, make_ode, make_random_stable_ode, spark_gtol
from oracles import h2_error_norm, sylvester_residual, trace_derivatives


def _certify(ds, res):
    """The ROM and certificate ``cure_step`` makes of a SPARK result."""
    ledger = cure.CureLedger(dataclasses.replace(ds))
    rec = cure.cure_step(ledger, res).records[-1]
    return rec.rom, rec.interp_residual


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
        point = sp.evaluate(ds, a, b)
        V, pair = point.V, point.params
        with spark_gtol(1e30):
            res = sp.spark(ds, init=sp.SparkParams(a, b))
        rom, residual = _certify(ds, res)
        assert np.array_equal(res.V, V)
        assert sylvester_residual(ds, V, pair) <= 1e-12
        assert pair == res.params == sp.SparkParams(a, b)
        assert np.array_equal(rom.Cr, ds.C @ V)
        assert residual <= 1e-10


@pytest.mark.parametrize("a, b", [(0.8, 1.4), (2.0, 1.0)],
                         ids=["conjugate", "real"])
def test_evaluate_makes_eight_triangular_solves(lu_solves, a, b):
    # evaluate solves V, (V_a, V_b) and (V_aa, V_ab, V_bb) by level.  A
    # conjugate pair makes one complex block solve per level (Schur
    # column 0 fixes the real solution); a real pair one real block solve
    # per Schur column and level.  A certificate adds one B_defl solve
    # per LU: G at the conjugate shift is the conjugate of the first.  A
    # SPARK call that returns at its start pair evaluates it to first
    # order, without the (V_aa, V_ab, V_bb) level; then cure_step
    # certifies it.  No column needs refinement
    ds = DeflatedSystem.from_dae(make_random_stable_ode(12, seed=2))
    per_level = 1 if a * a < b else 2
    certificate = [1] * per_level
    del lu_solves[:]
    sp.evaluate(ds, a, b)
    assert [shape[1] for shape in lu_solves] \
        == [k for k in (1, 2, 3) for _ in range(per_level)]
    del lu_solves[:]
    with spark_gtol(1e30):
        res = sp.spark(ds, init=sp.SparkParams(a, b))
    assert res.reason == "gtol" and res.trace[-1]["iter"] == 0
    assert [shape[1] for shape in lu_solves] \
        == [k for k in (1, 2) for _ in range(per_level)]
    _certify(ds, res)
    assert [shape[1] for shape in lu_solves] \
        == [k for k in (1, 2) for _ in range(per_level)] + certificate


@pytest.mark.parametrize("fixture", ["index1_small", "stokes_small",
                                     "ode_small"])
def test_contracted_derivatives_match_trace_formulas(fixture, request):
    # J, g and H read off one contraction equal the term-by-term traces:
    # on the surrogate (Kronecker kernel) to second order, on the full
    # model (per-shift LUs) to first order.  The pairs, a real, a
    # conjugate and a confluent one, lie off the optimum, where g is more
    # than rounding noise
    ds = DeflatedSystem.from_dae(request.getfixturevalue(fixture))
    basis = sp.SurrogateBasis(ds.n)
    res = sp.spark(ds, basis=basis)
    sur = basis.surrogate(ds)
    a = 1.2 * res.params.a
    for b in (0.5 * a * a, 2.0 * a * a, a * a):
        for d, point in ((sur, sp.evaluate(sur, a, b,
                                            kernel=nk.KroneckerSylvester)),
                         (ds, sp.evaluate(ds, a, b, hessian=False))):
            J, g, H = trace_derivatives(d, a, b, hessian=d is sur)
            assert abs(point.J - J) <= 1e-12 * abs(J)
            assert np.linalg.norm(point.g - g) <= 1e-12 * np.linalg.norm(g)
            if d is sur:
                assert isinstance(point.ctx, nk.KroneckerSylvester)
                assert np.array_equal(point.H, point.H.T)
                assert np.linalg.norm(point.H - H) \
                    <= 1e-12 * np.linalg.norm(H)
            else:
                assert isinstance(point.ctx, nk.SylvesterContext)
                assert point.H is None


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
    ds = DeflatedSystem.from_dae(make_random_stable_ode(6, seed=0))
    with pytest.raises(NonPositiveParams):
        sp.evaluate(ds, 1.0, float("nan"))


def test_spark_drives_gradient_down():
    sys = make_random_stable_ode(20, seed=4)
    ds = DeflatedSystem.from_dae(sys)
    res = sp.spark(ds)
    assert res.converged
    assert res.params.a > 0 and res.params.b > 0
    assert np.linalg.norm(res.grad) <= 1e-6 * (1 + abs(res.cost))
    # accepted full-model points are monotone in cost
    Js = [e["J"] for e in res.evaluations if e["accepted"]]
    assert len(Js) >= 2 and Js[-1] == res.cost
    assert all(j2 <= j1 + 1e-12 for j1, j2 in zip(Js, Js[1:]))


def test_spark_exact_on_order_two():
    # [DERIVED] for an order-2 target the optimizer can zero the error
    sys = make_ode([-1.0, -2.0], [1.0, 1.0], [0.25, -0.175])
    ds = DeflatedSystem.from_dae(sys)
    with spark_gtol(1e-11):
        res = sp.spark(ds)
    err = h2_error_norm(ds, pork_input(res.V, res.params, ds.C))
    assert err <= 1e-8


def _track_full(monkeypatch, n):
    """Weak references to the contexts and the (a, b, context given) of the
    evaluations made of a system of size n, the full model; a surrogate's
    are smaller."""
    contexts, evaluated = [], []
    ctx_init, evaluate = nk.SylvesterContext.__init__, sp.evaluate

    def tracked(self, A, E, S):
        if A.shape[0] == n:
            contexts.append(weakref.ref(self))
        ctx_init(self, A, E, S)

    def counting_evaluate(ds, a, b, ctx=None, **kw):
        if ds.n == n:
            evaluated.append((a, b, ctx is not None))
        return evaluate(ds, a, b, ctx, **kw)

    monkeypatch.setattr(nk.SylvesterContext, "__init__", tracked)
    monkeypatch.setattr(sp, "evaluate", counting_evaluate)
    return contexts, evaluated


def test_spark_factors_once_per_evaluated_point(monkeypatch):
    # one LU set of the full pencil per full-model point: one complex LU
    # (conjugate pair) or two real LUs (real pair), none for a point that
    # is handed the LUs of the pair the previous step returned at.  Each
    # surrogate point is solved by one Kronecker LU of its own and makes
    # no per-shift LU, and besides these a whole cumulative reduction
    # factors only the saddle-point matrix, first: nothing is refactored
    # once a SPARK call returns, to certify or to deplete a step.  This
    # system's full-model points include real and conjugate pairs
    sys = make_random_stable_ode(20, seed=0)
    full, small, kron = [], [], []
    fac_init = nk.ShiftedFactorization.__init__
    kron_init = nk.KroneckerSylvester.__init__

    def counting(self, A, E, sigma):
        (full if A.shape[0] == sys.n else small).append(complex(sigma))
        fac_init(self, A, E, sigma)

    def counting_kron(self, A, E, S):
        kron.append(self)
        kron_init(self, A, E, S)

    monkeypatch.setattr(nk.ShiftedFactorization, "__init__", counting)
    monkeypatch.setattr(nk.KroneckerSylvester, "__init__", counting_kron)
    evaluated, surrogate = [], []
    evaluate = sp.evaluate

    def counting_evaluate(d, a, b, ctx=None, **kw):
        if d.n == sys.n:
            evaluated.append((a, b, ctx is not None, len(full)))
            return evaluate(d, a, b, ctx, **kw)
        assert ctx is None
        point = evaluate(d, a, b, ctx, **kw)
        surrogate.append(point.ctx)
        return point

    monkeypatch.setattr(sp, "evaluate", counting_evaluate)
    ds = DeflatedSystem.from_dae(sys)
    report, _ = cure.cured_spark(ds)
    assert report["k"] >= 2
    assert all(st["converged"] for st in report["steps"])
    assert len(evaluated) >= 5
    assert surrogate and small == []
    assert len(kron) == len(surrogate)
    assert all(ctx is k for ctx, k in zip(surrogate, kron))
    assert sum(st["full_evaluations"] for st in report["steps"]) \
        < len(evaluated)        # and the discarded stagnation call
    # the saddle-point LU, then the start pair's LU, from whose fill
    # cured_spark picks the kernel and which it hands to the first point
    assert full[0] == 0.0 and evaluated[0][2] and evaluated[0][3] == 2
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
    # side.  A surrogate point takes one LAPACK LU of its Kronecker
    # system, so SuperLU factors only full-pencil matrices
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
    # accepted full-model point, which still holds its LUs, and they
    # certify it
    ds = DeflatedSystem.from_dae(request.getfixturevalue(fixture))
    contexts, evaluated = _track_full(monkeypatch, ds.n)
    monkeypatch.setattr(sp, "MAXITER", maxiter)
    with spark_gtol(0.0):
        res = sp.spark(ds)
    assert res.reason == reason
    assert len(evaluated) == len(res.evaluations) > 1
    assert len(contexts) == len(evaluated) + refactor
    assert res.ctx is contexts[-1]()
    assert np.array_equal(res.ctx.S, res.params.S)
    assert _certify(ds, res)[1] <= 1e-10


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

    def keep(self, d, point):
        added.append(point)
        return add(self, d, point)

    monkeypatch.setattr(sp.SurrogateBasis, "add", keep)
    basis = sp.SurrogateBasis(ds.n)
    res = sp.spark(ds, basis=basis)
    assert res.reason == "gtol" and len(res.evaluations) >= 2
    assert len(added) >= 2
    sur = basis.surrogate(ds)
    assert sur.n == basis.W.shape[1] < ds.n
    assert np.allclose(basis.W.T @ basis.W, np.eye(sur.n), atol=1e-12)
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
    points = [sp.evaluate(ds, a, b, hessian=False)
              for a, b in ((1e-2, 2e-4), (0.5, 0.3), (0.5, 0.3), (2.0, 1.0))]
    eager = sp.SurrogateBasis(ds.n)
    counts = []
    for point in points:
        eager.add(ds, point)
        counts.append(eager.fold())
    assert counts[0] > 0 and counts[2] == 0
    lazy = sp.SurrogateBasis(ds.n)
    svd, svds = np.linalg.svd, []

    def counted_svd(*args, **kwargs):
        svds.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    for point in points:
        lazy.add(ds, point)
    assert svds == []
    for got, want in ((lazy.W, eager.W), (lazy.A, eager.A),
                      (lazy.E, eager.E)):
        assert np.array_equal(got, want)
    assert len(svds) == len(points) and lazy.fold() == 0


def test_surrogate_crossing_the_axis_is_caught(index1_small, monkeypatch):
    # Galerkin does not keep an index-1 surrogate stable.  Here one is
    # moved until its rightmost pole sits at +1, where its J has no lower
    # bound: the full-model J of its optimum rises and the point is
    # rejected, which enriches the surrogate
    ds = DeflatedSystem.from_dae(index1_small)
    opt = sp.spark(ds)
    init = sp.SparkParams(1.2 * opt.params.a, opt.params.b / 1.2)
    surrogate = sp.SurrogateBasis.surrogate
    crossed = []

    def crossing(once):
        def make(self, d):
            sur = surrogate(self, d)
            if once and crossed:
                return sur
            w = spla.eigvals(sur.A, sur.E)
            mu = 1.0 - w[np.isfinite(w)].real.max()
            crossed.append(mu)
            return dataclasses.replace(sur, A=sur.A + mu * sur.E)
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
    assert abs(res.cost - opt.cost) <= 1e-10 * abs(opt.cost)
    # one that always crosses: no point after the start is accepted, and
    # the start pair is returned with its LUs refactored once
    contexts, evaluated = _track_full(monkeypatch, ds.n)
    monkeypatch.setattr(sp.SurrogateBasis, "surrogate", crossing(False))
    res = sp.spark(ds, init=init)
    assert [e["accepted"] for e in res.evaluations][1:] \
        == [False] * (len(res.evaluations) - 1)
    assert len(res.evaluations) >= 2 and not res.converged
    assert np.array_equal(res.params.as_array(), init.as_array())
    assert len(contexts) == len(evaluated) + 1
    assert res.ctx is contexts[-1]()
    assert _certify(ds, res)[1] <= 1e-10
