import warnings

import numpy as np
import pytest
import scipy.linalg as spla
import scipy.sparse as sps

from daecure import numkernel as nk
from daecure.errors import DimensionMismatch, SingularShift, SpectraOverlap
from daecure.interp import DeflatedSystem
from daecure.spark import SparkParams, evaluate

from conftest import CountingLU, pole_residue_surrogate
from oracles import (PencilDeflation, basis_solves, kronecker_sylvester,
                     solve_dense_sylvester)


def test_factor_shifted_solves_shifted_system():
    rng = np.random.default_rng(0)
    n = 30
    A = sps.csc_matrix(rng.standard_normal((n, n)) - 6 * np.eye(n))
    E = sps.eye(n, format="csc")
    sigma = 0.3 + 1.1j
    fac = nk.ShiftedFactorization(nk.Pencil(A, E), sigma)
    b = rng.standard_normal(n)
    x = fac.solve(b)
    assert np.linalg.norm((A - sigma * E) @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_factor_shifted_singular_raises():
    A = sps.csc_matrix(np.diag([1.0, 2.0]))
    E = sps.eye(2, format="csc")
    with pytest.raises(SingularShift):
        nk.ShiftedFactorization(nk.Pencil(A, E), 1.0)


def test_dense_sylvester_matches_scipy_oracle():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((7, 7)) - 4 * np.eye(7)
    B = rng.standard_normal((5, 5)) - 3 * np.eye(5)
    C = rng.standard_normal((7, 5))
    X = solve_dense_sylvester(A, B, C)
    assert np.linalg.norm(A @ X + X @ B + C) <= 1e-10


def test_dense_sylvester_spectra_overlap_raises():
    A = np.diag([-1.0, -2.0])
    B = np.diag([1.0, 5.0])  # -(-1) = 1 in spectrum of B
    with pytest.raises(SpectraOverlap):
        solve_dense_sylvester(A, B, np.ones((2, 2)))


def test_sparse_dense_sylvester_residual():
    rng = np.random.default_rng(4)
    n = 40
    A = sps.csc_matrix(rng.standard_normal((n, n)) - 8 * np.eye(n))
    E = sps.csc_matrix(np.diag(rng.uniform(0.5, 2.0, n)))
    pair = SparkParams(4.0, 2.0)        # a real pair, 4 +- sqrt(14)
    S = pair.S
    F = rng.standard_normal((n, 2))
    V = nk.SylvesterContext(nk.Pencil(A, E), pair).solve(F)
    res = A @ V - E @ (V @ S) - F
    assert np.linalg.norm(res) <= 1e-9 * np.linalg.norm(F)
    assert not np.iscomplexobj(V)


def test_sylvester_context_complex_pair():
    rng = np.random.default_rng(5)
    n = 25
    A = sps.csc_matrix(rng.standard_normal((n, n)) - 8 * np.eye(n))
    E = sps.eye(n, format="csc")
    # the conjugate pair 1 +- 2i
    pair = SparkParams(1.0, 5.0)
    S = pair.S
    F = rng.standard_normal((n, 2))
    V = nk.SylvesterContext(nk.Pencil(A, E), pair).solve(F)
    assert np.linalg.norm(A @ V - E @ (V @ S) - F) <= 1e-9 * np.linalg.norm(F)


def test_pencil_deflation_counts_and_realization():
    # index-1: E = diag(I2, 0), A22 nonsingular -> nf = 2, one infinite eig
    E = np.diag([1.0, 1.0, 0.0])
    A = np.array([[-1.0, 0.2, 0.5],
                  [0.0, -2.0, 0.3],
                  [0.1, 0.0, 1.5]])
    defl = PencilDeflation(E, A)
    assert defl.nf == 2
    B = np.array([[1.0], [0.5], [0.2]])
    C = np.array([[1.0, -1.0, 0.4]])
    A1, B1, C1 = defl.finite_realization(B, C)
    # [DERIVED] strictly proper parts agree: compare against a direct
    # resolvent evaluation minus the constant polynomial part at two points
    def g_full(s):
        return (C @ np.linalg.solve(s * E - A, B))[0, 0]

    def g_fin(s):
        return (C1 @ np.linalg.solve(s * np.eye(defl.nf) - A1, B1))[0, 0]

    P = g_full(1e9) # constant part to high accuracy
    for s in (0.3 + 1j, 2.0, -0.5 + 0.2j):
        assert abs(g_full(s) - P - g_fin(s)) <= 1e-6 * max(abs(g_full(s)), 1)


def test_pencil_deflation_projector_idempotent():
    E = np.diag([1.0, 1.0, 0.0, 0.0])
    rng = np.random.default_rng(6)
    A = rng.standard_normal((4, 4)) - 3 * np.eye(4)
    defl = PencilDeflation(E, A)
    Pl, Pr = defl.projectors()
    assert np.allclose(Pl @ Pl, Pl, atol=1e-10)
    assert np.allclose(Pr @ Pr, Pr, atol=1e-10)
    assert np.allclose(E @ Pr, Pl @ E, atol=1e-10)


def test_dense_sylvester_shape_guard():
    with pytest.raises(DimensionMismatch):
        solve_dense_sylvester(np.eye(2), np.eye(3), np.ones((3, 2)))


def test_sylvester_context_conjugate_pair_shares_one_lu(factor_log):
    rng = np.random.default_rng(7)
    n = 40
    A = sps.csc_matrix(rng.standard_normal((n, n)) - 8 * np.eye(n))
    E = sps.csc_matrix(np.diag(rng.uniform(0.5, 2.0, n)))
    F = rng.standard_normal((n, 2))
    made = factor_log
    for a, b in rng.uniform(0.1, 5.0, (20, 2)):
        pair = SparkParams(a, b)
        S = pair.S
        del made[:]
        ctx = nk.SylvesterContext(nk.Pencil(A, E), pair)
        if a * a < b:
            assert len(made) == 1 and made[0].imag != 0.0
            assert len(ctx.factors) == 1
        else:
            assert len(made) == 2 and len(ctx.factors) == 2
        V = ctx.solve(F)
        assert not np.iscomplexobj(V)
        # the same residual as the two-LU path: factor every Schur shift
        T, U = spla.schur(S.astype(complex), output="complex")
        Xt = np.zeros((n, 2), dtype=complex)
        Ft = F @ U
        for j in range(2):
            fac = nk.ShiftedFactorization(nk.Pencil(A, E), T[j, j])
            Xt[:, j] = fac.solve(Ft[:, j] + E @ (Xt[:, :j] @ T[:j, j]))
        V2 = (Xt @ U.conj().T).real
        for X in (V, V2):
            assert np.linalg.norm(A @ X - E @ (X @ S) - F) \
                <= 1e-9 * np.linalg.norm(F)
        assert np.linalg.norm(V - V2) <= 1e-12 * np.linalg.norm(V)


def _well_posed(n, seed):
    rng = np.random.default_rng(seed)
    A = sps.csc_matrix(rng.standard_normal((n, n)) - 6 * np.eye(n))
    E = sps.csc_matrix(np.diag(rng.uniform(0.5, 2.0, n)))
    return rng, A, E


@pytest.mark.parametrize("sigma", [-0.7, 0.4 + 1.3j])
def test_block_solve_meets_tolerance_per_column(sigma):
    # columns 1e12 apart in scale: a Frobenius check over the block would
    # let the small column miss the bound unseen
    rng, A, E = _well_posed(30, 9)
    M = A - sigma * E
    fac = nk.ShiftedFactorization(nk.Pencil(A, E), sigma)
    scales = np.array([1e-6, 1.0, 1e6])
    for b in (rng.standard_normal((30, 3)) * scales,
              (rng.standard_normal((30, 3))
               + 1j * rng.standard_normal((30, 3))) * scales):
        x = fac.solve(b)
        assert x.shape == b.shape
        rel = np.linalg.norm(M @ x - b, axis=0) / np.linalg.norm(b, axis=0)
        assert np.all(rel <= nk.TOL_SOLVE)
        # a 1-D right-hand side solves as before
        assert np.array_equal(fac.solve(b[:, 2]), x[:, 2])


def test_refinement_only_for_columns_that_miss_the_bound():
    rng, A, E = _well_posed(30, 10)
    fac = nk.ShiftedFactorization(nk.Pencil(A, E), -0.7)
    lu = fac._lu
    b = rng.standard_normal((30, 3))
    log = []
    fac._lu = CountingLU(lu, log)
    exact = fac.solve(b)
    assert log == [(30, 3)]
    # a complex block on the real LU is one real block [Re | Im]
    del log[:]
    fac.solve(b + 1j * b[:, ::-1])
    assert log == [(30, 6)]
    # spoil column 1 of the first triangular solve: only it is refined
    del log[:]
    fac._lu = CountingLU(lu, log, perturb=[1])
    x = fac.solve(b)
    assert log == [(30, 3), (30, 1)]
    assert np.linalg.norm(x - exact) <= 1e-12 * np.linalg.norm(exact)


@pytest.mark.parametrize("a, b", [(2.0, 1.0), (0.8, 1.4), (1.5, 2.25)],
                         ids=["real", "conjugate", "confluent"])
def test_stacked_sylvester_solve_equals_single_solves(a, b):
    rng, A, E = _well_posed(40, 11)
    pair = SparkParams(a, b)
    S = pair.S
    ctx = nk.SylvesterContext(nk.Pencil(A, E), pair)
    F = rng.standard_normal((3, 40, 2))
    X = ctx.solve(F)
    assert X.shape == F.shape and not np.iscomplexobj(X)
    for Xi, Fi in zip(X, F):
        single = ctx.solve(Fi)
        assert np.linalg.norm(Xi - single) <= 1e-12 * np.linalg.norm(single)
        assert np.linalg.norm(A @ Xi - E @ (Xi @ S) - Fi) \
            <= 1e-9 * np.linalg.norm(Fi)


@pytest.mark.parametrize("sigma", [-0.7, 0.4 + 1.3j], ids=["real", "complex"])
def test_dense_and_sparse_factorizations_agree(sigma):
    # a pencil given as dense arrays is factored by LAPACK and solved
    # through the same residual-gated path as its SuperLU twin; it keeps
    # no dense copy of A - sigma E beside its LU
    rng, A, E = _well_posed(12, 13)
    M = (A - sigma * E).toarray()
    sparse = nk.ShiftedFactorization(nk.Pencil(A, E), sigma)
    dense = nk.ShiftedFactorization(nk.Pencil(A.toarray(), E.toarray()),
                                     sigma)
    assert isinstance(dense._lu, nk.DenseLU)
    assert dense._M is None
    for b in (rng.standard_normal(12), rng.standard_normal((12, 3)),
              rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))):
        xs, xd = sparse.solve(b), dense.solve(b)
        assert xd.shape == b.shape
        for x in (xs, xd):
            r = (M @ x - b).reshape(12, -1)
            assert np.all(np.linalg.norm(r, axis=0)
                          <= nk.TOL_SOLVE * np.linalg.norm(b.reshape(12, -1),
                                                           axis=0))
        assert np.linalg.norm(xd - xs) <= nk.TOL_SOLVE * np.linalg.norm(xs)


def test_sylvester_context_on_dense_pencil_shares_one_lu(factor_log):
    rng, A, E = _well_posed(10, 14)
    A, E = A.toarray(), E.toarray()
    pair = SparkParams(0.8, 1.4)                        # conjugate pair
    S = pair.S
    ctx = nk.SylvesterContext(nk.Pencil(A, E), pair)
    assert ctx.pencil.A is A and ctx.pencil.E is E
    assert len(factor_log) == 1 and factor_log[0].imag != 0.0
    assert len(ctx.factors) == 1
    F = rng.standard_normal((10, 2))
    V = ctx.solve(F)
    assert not np.iscomplexobj(V)
    assert np.linalg.norm(A @ V - E @ (V @ S) - F) <= 1e-9 * np.linalg.norm(F)


@pytest.mark.parametrize("a, b", [(2.0, 1.0), (1.5, 2.25), (0.8, 1.4)],
                         ids=["real", "confluent", "conjugate"])
def test_complex_pencil_is_refused(factor_log, a, b):
    # a Sylvester context takes real A and E (the one LU of a conjugate
    # pair solves at its partner shift as conj((A - s E)^-1 conj(r)), and
    # every pair's X is cast to real).  A complex one, dense or sparse,
    # is refused already when its ``Pencil`` is prepared, for any pair
    # and before anything is factored
    rng, A, E = _well_posed(10, 17)
    for M, N in ((A * (1 + 1j), E), (A, E * (1 + 1j))):
        for dense in (True, False):
            with pytest.raises(DimensionMismatch):
                nk.SylvesterContext(
                    nk.Pencil(M.toarray(), N.toarray()) if dense
                    else nk.Pencil(M, N), SparkParams(a, b))
    assert factor_log == []


def test_dense_singular_shift_raises():
    # A - 1*E = 0: an exact zero pivot, reported like a SuperLU failure
    # and without a LinAlgWarning or an inf in a factor
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularShift):
            nk.ShiftedFactorization(nk.Pencil(np.eye(3), np.eye(3)), 1.0)
        with pytest.raises(SingularShift):
            nk.ShiftedFactorization(
                nk.Pencil(np.diag([1.0, np.inf]), np.eye(2)), 0.5)


def _toward_confluence(kind, a, delta):
    """The pair with b = a^2 (1 + delta), a conjugate one, or
    b = a^2 / (1 + delta), a real one: |a^2 - b| is about delta a^2 for a
    small delta, and delta = 0 is the confluent pair."""
    return SparkParams(a, a * a * (1 + delta) if kind == "conjugate"
                       else a * a / (1 + delta))


@pytest.mark.parametrize("delta", [1.0, 1e-4, 1e-8, 1e-12, 1e-14])
@pytest.mark.parametrize("kind", ["conjugate", "real"])
def test_sylvester_solve_toward_confluence_matches_kronecker(
        kind, delta, lu_solves):
    # A conjugate pair recovers the real X from one complex block solve
    # unless it is near confluence, where [Re u0, Im u0] is ill
    # conditioned (cond = 1/|d| for |d| < 1, d = sqrt(a^2 - b)), and
    # keeps the two-column path there;
    # a real pair runs on real Schur data, one real block solve per shift.
    # Either way X is the dense Kronecker solution
    rng, A, E = _well_posed(40, 15)
    a = 1.3
    pair = _toward_confluence(kind, a, delta)
    S = pair.S
    F = rng.standard_normal((3, 40, 2))
    del lu_solves[:]
    ctx = nk.SylvesterContext(nk.Pencil(A, E), pair)
    X = ctx.solve(F)
    for Xi, Fi in zip(X, F):
        want = kronecker_sylvester(A.toarray(), E.toarray(), S, Fi)
        assert np.linalg.norm(Xi - want) <= 1e-12 * np.linalg.norm(want)
    if kind == "real":
        assert not np.iscomplexobj(ctx.T) and not np.iscomplexobj(ctx.U)
        assert lu_solves == [(40, 3), (40, 3)]
    else:
        d = np.sqrt(pair.b - a * a)
        recovered = ctx._recover is not None
        assert recovered == (d >= 1 / nk.RECOVER_COND)
        assert recovered == (delta >= 1e-4)
        assert lu_solves == ([(40, 3)] if recovered else [(40, 3), (40, 3)])


@pytest.mark.parametrize("d", [1.4e3, 4e3, 1e4])
@pytest.mark.parametrize("a", [0.5, 3.0, 20.0])
def test_conjugate_pair_far_from_confluence_recovers(a, d, stokes_small,
                                                     lu_solves):
    # |d| >> 1 is well away from confluence: the pair takes the recover
    # path, one complex LU and one solve column for the input equation,
    # and V is the dense Kronecker solution after one refinement step
    ds = DeflatedSystem.from_dae(stokes_small)
    pair = SparkParams(a, a * a + d * d)
    ctx = ds.sylvester(pair)
    del lu_solves[:]
    V, _ = ctx.solve_input(ds.B_defl)
    assert ctx._recover is not None and len(ctx.factors) == 1
    assert lu_solves == [(ds.n, 1)]
    A, E, F = ds.A.toarray(), ds.E.toarray(), ds.B_defl @ pair.R
    want = kronecker_sylvester(A, E, pair.S, F)
    want += kronecker_sylvester(A, E, pair.S,
                                F - (A @ want - E @ want @ pair.S))
    assert np.linalg.norm(V - want) <= 1e-10 * np.linalg.norm(want)


def test_equal_real_shifts_share_one_lu(factor_log):
    # exact confluence a^2 = b: S(a, b) = [[a, 1], [0, a]] has the real
    # shift a twice, and one LU serves both Schur columns
    rng, A, E = _well_posed(40, 16)
    a = 1.3
    pair = SparkParams(a, a * a)
    S = pair.S
    assert S[1, 0] == 0.0
    ctx = nk.SylvesterContext(nk.Pencil(A, E), pair)
    assert factor_log == [a] and len(ctx.factors) == 1
    F = rng.standard_normal((40, 2))
    want = kronecker_sylvester(A.toarray(), E.toarray(), S, F)
    assert np.linalg.norm(ctx.solve(F) - want) <= 1e-12 * np.linalg.norm(want)


def _pole_residue_surrogate(A, E, B, C):
    """The surrogate of the dense system (A, E, B, C) on a basis of all of
    R^n, and that system."""
    ds = DeflatedSystem(A=A, E=E, B_defl=B, C=C, poly=None)
    return pole_residue_surrogate(ds), ds


@pytest.mark.parametrize("delta", [1.0, 1e-4, 1e-8, 1e-12, 1e-14, 0.0])
@pytest.mark.parametrize("kind", ["conjugate", "real"])
def test_kronecker_sylvester_matches_schur_and_dense_kronecker(
        kind, delta, factor_log, monkeypatch):
    # pairs toward confluence, and delta = 0 the confluent pair: the
    # surrogate's pole-residue closed form, from one eigendecomposition
    # and no LU at all, gives C X for the basis solve and its first and
    # second (a, b)-derivatives, to the dense Kronecker solution of each
    # Sylvester equation and to the Schur solver's
    rng, A, E = _well_posed(40, 18)
    A, E = A.toarray(), E.toarray()
    lus, lu_init = [], nk.DenseLU.__init__

    def counting_lu(self, M):
        lus.append(M.shape)
        lu_init(self, M)

    monkeypatch.setattr(nk.DenseLU, "__init__", counting_lu)
    sur, ds = _pole_residue_surrogate(A, E, rng.standard_normal((40, 1)),
                                      rng.standard_normal((2, 40)))
    pair = _toward_confluence(kind, 1.3, delta)
    Cs = sur.outputs(pair.a, pair.b)
    assert factor_log == [] and lus == []
    assert Cs.shape == (6, 2, 2) and Cs.dtype == np.float64
    for kronecker in (True, False):
        want = basis_solves(ds, pair.a, pair.b, kronecker)
        for Ci, Vi in zip(Cs, want):
            Wi = ds.C @ Vi
            assert np.linalg.norm(Ci - Wi) <= 1e-12 * np.linalg.norm(Wi)


def test_kronecker_sylvester_at_a_pole_raises():
    # a shift that is an eigenvalue of the pencil: the pair 2 +- 1.5 has
    # the shift 3.5.  On a diagonal pencil the surrogate's pole is exact,
    # q = 0, and its point raises SingularShift.  On a rotated one the
    # computed pole misses the shift by rounding, and J has no lower
    # bound there: a trust region on it takes the step, and the full
    # model judges it
    lam = np.array([1.0, 2.0, 3.5, 5.0, 8.0])
    pair = SparkParams(2.0, 1.75)
    assert pair.shifts()[0] == 3.5
    Q = np.linalg.qr(np.random.default_rng(20).standard_normal((5, 5)))[0]
    B, C = np.ones((5, 1)), np.ones((1, 5))
    sur, _ = _pole_residue_surrogate(np.diag(lam), np.eye(5), B, C)
    with pytest.raises(SingularShift):
        sur.outputs(pair.a, pair.b)
    with pytest.raises(SingularShift):
        evaluate(sur, pair.a, pair.b)
    sur, _ = _pole_residue_surrogate(Q @ np.diag(lam) @ Q.T, np.eye(5), B, C)
    far = evaluate(sur, 2.0, 1.0).J
    assert -evaluate(sur, pair.a, pair.b).J >= 1e20 * abs(far)
