import warnings

import numpy as np
import pytest
import scipy.linalg as spla
import scipy.sparse as sps

from daecure import numkernel as nk
from daecure.errors import DimensionMismatch, SingularShift, SpectraOverlap

from conftest import CountingLU
from oracles import PencilDeflation, solve_dense_sylvester


def test_factor_shifted_solves_shifted_system():
    rng = np.random.default_rng(0)
    n = 30
    A = sps.csc_matrix(rng.standard_normal((n, n)) - 6 * np.eye(n))
    E = sps.eye(n, format="csc")
    sigma = 0.3 + 1.1j
    fac = nk.ShiftedFactorization(A, E, sigma)
    b = rng.standard_normal(n)
    x = fac.solve(b)
    assert np.linalg.norm((A - sigma * E) @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_factor_shifted_singular_raises():
    A = sps.csc_matrix(np.diag([1.0, 2.0]))
    E = sps.eye(2, format="csc")
    with pytest.raises(SingularShift):
        nk.ShiftedFactorization(A, E, 1.0)


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
    n, q = 40, 3
    A = sps.csc_matrix(rng.standard_normal((n, n)) - 8 * np.eye(n))
    E = sps.csc_matrix(np.diag(rng.uniform(0.5, 2.0, n)))
    S = rng.standard_normal((q, q)) + 4 * np.eye(q)
    F = rng.standard_normal((n, q))
    V = nk.SylvesterContext(A, E, S).solve(F)
    res = A @ V - E @ (V @ S) - F
    assert np.linalg.norm(res) <= 1e-9 * np.linalg.norm(F)
    assert not np.iscomplexobj(V)


def test_sylvester_context_complex_pair():
    rng = np.random.default_rng(5)
    n = 25
    A = sps.csc_matrix(rng.standard_normal((n, n)) - 8 * np.eye(n))
    E = sps.eye(n, format="csc")
    # S with a complex conjugate eigenvalue pair
    S = np.array([[1.0, 2.0], [-2.0, 1.0]])
    F = rng.standard_normal((n, 2))
    V = nk.SylvesterContext(A, E, S).solve(F)
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
        S = np.array([[a, 1.0], [a * a - b, a]])
        del made[:]
        ctx = nk.SylvesterContext(A, E, S)
        if a * a < b:
            assert len(made) == 1 and made[0].imag != 0.0
            assert ctx.factors[1].sigma == np.conj(ctx.factors[0].sigma)
        else:
            assert len(made) == 2
        V = ctx.solve(F)
        assert not np.iscomplexobj(V)
        # the same residual as the two-LU path: factor every Schur shift
        T, U = spla.schur(S.astype(complex), output="complex")
        Xt = np.zeros((n, 2), dtype=complex)
        Ft = F @ U
        for j in range(2):
            fac = nk.ShiftedFactorization(A, E, T[j, j])
            Xt[:, j] = fac.solve(Ft[:, j] + E @ (Xt[:, :j] @ T[:j, j]))
        V2 = (Xt @ U.conj().T).real
        for X in (V, V2):
            assert np.linalg.norm(A @ X - E @ (X @ S) - F) \
                <= 1e-9 * np.linalg.norm(F)
        assert np.linalg.norm(V - V2) <= 1e-12 * np.linalg.norm(V)


def test_conjugate_factorization_solves_partner_shift():
    rng = np.random.default_rng(8)
    n = 30
    A = sps.csc_matrix(rng.standard_normal((n, n)) - 6 * np.eye(n))
    E = sps.eye(n, format="csc")
    sigma = 0.4 + 1.3j
    partner = nk.ConjugateFactorization(nk.ShiftedFactorization(A, E, sigma))
    assert partner.sigma == np.conj(sigma)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = partner.solve(b)
    assert np.linalg.norm((A - np.conj(sigma) * E) @ x - b) \
        <= 1e-10 * np.linalg.norm(b)


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
    fac = nk.ShiftedFactorization(A, E, sigma)
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
    fac = nk.ShiftedFactorization(A, E, -0.7)
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
    S = np.array([[a, 1.0], [a * a - b, a]])
    ctx = nk.SylvesterContext(A, E, S)
    F = rng.standard_normal((3, 40, 2))
    X = ctx.solve(F)
    assert X.shape == F.shape and not np.iscomplexobj(X)
    for Xi, Fi in zip(X, F):
        single = ctx.solve(Fi)
        assert np.linalg.norm(Xi - single) <= 1e-12 * np.linalg.norm(single)
        assert np.linalg.norm(A @ Xi - E @ (Xi @ S) - Fi) \
            <= 1e-9 * np.linalg.norm(Fi)


def test_stacked_sylvester_solve_shape_guard():
    _, A, E = _well_posed(10, 12)
    ctx = nk.SylvesterContext(A, E, np.array([[2.0, 1.0], [3.0, 2.0]]))
    with pytest.raises(DimensionMismatch):
        ctx.solve(np.ones((2, 10, 3)))


@pytest.mark.parametrize("sigma", [-0.7, 0.4 + 1.3j], ids=["real", "complex"])
def test_dense_and_sparse_factorizations_agree(sigma):
    # a pencil given as dense arrays is factored by LAPACK and solved
    # through the same residual-gated path as its SuperLU twin; it keeps
    # no dense copy of A - sigma E beside its LU
    rng, A, E = _well_posed(12, 13)
    M = (A - sigma * E).toarray()
    sparse = nk.ShiftedFactorization(A, E, sigma)
    dense = nk.ShiftedFactorization(A.toarray(), E.toarray(), sigma)
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
    S = np.array([[0.8, 1.0], [0.8 ** 2 - 1.4, 0.8]])     # conjugate pair
    ctx = nk.SylvesterContext(A, E, S)
    assert ctx.A is A and ctx.E is E
    assert len(factor_log) == 1 and factor_log[0].imag != 0.0
    assert isinstance(ctx.factors[1], nk.ConjugateFactorization)
    F = rng.standard_normal((10, 2))
    V = ctx.solve(F)
    assert not np.iscomplexobj(V)
    assert np.linalg.norm(A @ V - E @ (V @ S) - F) <= 1e-9 * np.linalg.norm(F)


def test_dense_singular_shift_raises():
    # A - 1*E = 0: an exact zero pivot, reported like a SuperLU failure
    # and without a LinAlgWarning or an inf in a factor
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularShift):
            nk.ShiftedFactorization(np.eye(3), np.eye(3), 1.0)
        with pytest.raises(SingularShift):
            nk.ShiftedFactorization(np.diag([1.0, np.inf]), np.eye(2), 0.5)


def _kronecker_sylvester(A, E, S, F):
    """Dense solution of A X - E X S = F through vec(X)."""
    n, q = F.shape
    K = np.kron(np.eye(q), A) - np.kron(S.T, E)
    return np.linalg.solve(K, F.reshape(-1, order="F")).reshape(
        n, q, order="F")


@pytest.mark.parametrize("delta", [1.0, 1e-4, 1e-8, 1e-12, 1e-14])
@pytest.mark.parametrize("kind", ["conjugate", "real"])
def test_sylvester_solve_toward_confluence_matches_kronecker(
        kind, delta, lu_solves):
    # a^2 - b = -delta a^2 (a conjugate pair) or +delta a^2 (a real pair).
    # A conjugate pair recovers the real X from one complex block solve
    # while [Re u0, Im u0] is well conditioned (cond = 1 / (a sqrt(delta))
    # here) and keeps the two-column path toward confluence; a real pair
    # runs on real Schur data, one real block solve per shift.  Either way
    # X is the dense Kronecker solution
    rng, A, E = _well_posed(40, 15)
    a = 1.3
    sign = -1.0 if kind == "conjugate" else 1.0
    S = np.array([[a, 1.0], [sign * delta * a * a, a]])
    F = rng.standard_normal((3, 40, 2))
    del lu_solves[:]
    ctx = nk.SylvesterContext(A, E, S)
    X = ctx.solve(F)
    for Xi, Fi in zip(X, F):
        want = _kronecker_sylvester(A.toarray(), E.toarray(), S, Fi)
        assert np.linalg.norm(Xi - want) <= 1e-12 * np.linalg.norm(want)
    if kind == "real":
        assert not np.iscomplexobj(ctx.T) and not np.iscomplexobj(ctx.U)
        assert lu_solves == [(40, 3), (40, 3)]
    else:
        recovered = ctx._recover is not None
        assert recovered == (1 / (a * np.sqrt(delta)) <= nk.RECOVER_COND)
        assert lu_solves == ([(40, 3)] if recovered else [(40, 3), (40, 3)])


def test_equal_real_shifts_share_one_lu(factor_log):
    # exact confluence a^2 = b: S(a, b) = [[a, 1], [0, a]] has the real
    # shift a twice, and one LU serves both Schur columns
    rng, A, E = _well_posed(40, 16)
    a = 1.3
    S = np.array([[a, 1.0], [0.0, a]])
    ctx = nk.SylvesterContext(A, E, S)
    assert factor_log == [a] and ctx.factors[1] is ctx.factors[0]
    F = rng.standard_normal((40, 2))
    want = _kronecker_sylvester(A.toarray(), E.toarray(), S, F)
    assert np.linalg.norm(ctx.solve(F) - want) <= 1e-12 * np.linalg.norm(want)


def test_complex_pencil_with_real_shifts_solves_complex():
    # real S and F do not make X real when A is complex: no real cast
    rng, A, E = _well_posed(20, 17)
    A = A + 1j * sps.eye(20, format="csc")
    S = np.array([[2.0, 1.0], [3.0, 2.0]])
    F = rng.standard_normal((20, 2))
    X = nk.SylvesterContext(A, E, S).solve(F)
    assert np.iscomplexobj(X)
    assert np.linalg.norm(A @ X - E @ (X @ S) - F) <= 1e-12 * np.linalg.norm(F)


@pytest.mark.parametrize("delta", [1.0, 1e-4, 1e-8, 1e-12, 1e-14, 0.0])
@pytest.mark.parametrize("kind", ["conjugate", "real"])
def test_kronecker_sylvester_matches_schur_and_dense_kronecker(
        kind, delta, factor_log):
    # a^2 - b = -delta a^2 (a conjugate pair) or +delta a^2 (a real pair),
    # and delta = 0 the confluent pair: one real LU of the 2n x 2n
    # Kronecker matrix, no shifted LU, solves a stack of right-hand sides
    # to the dense Kronecker solution and to the Schur solver's
    rng, A, E = _well_posed(40, 18)
    A, E = A.toarray(), E.toarray()
    a = 1.3
    sign = -1.0 if kind == "conjugate" else 1.0
    S = np.array([[a, 1.0], [sign * delta * a * a, a]])
    F = rng.standard_normal((3, 40, 2))
    ctx = nk.KroneckerSylvester(A, E, S)
    assert factor_log == [] and isinstance(ctx._lu, nk.DenseLU)
    X = ctx.solve(F)
    assert X.shape == F.shape and X.dtype == np.float64
    schur = nk.SylvesterContext(A, E, S).solve(F)
    for Xi, Fi, Yi in zip(X, F, schur):
        want = _kronecker_sylvester(A, E, S, Fi)
        assert np.linalg.norm(Xi - want) <= 1e-12 * np.linalg.norm(want)
        assert np.linalg.norm(Xi - Yi) <= 1e-12 * np.linalg.norm(Yi)
        assert np.linalg.norm(ctx.solve(Fi) - Xi) \
            <= 1e-14 * np.linalg.norm(Xi)


def test_kronecker_sylvester_block_layout():
    # q = 3 and a complex right-hand side on the real LU: the blocks of
    # I kron A - S^T kron E are placed as np.kron places them
    rng, A, E = _well_posed(7, 19)
    A, E = A.toarray(), E.toarray()
    S = rng.standard_normal((3, 3)) + 4 * np.eye(3)
    ctx = nk.KroneckerSylvester(A, E, S)
    assert np.array_equal(ctx._K, np.kron(np.eye(3), A) - np.kron(S.T, E))
    F = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    X = ctx.solve(F)
    assert np.linalg.norm(A @ X - E @ X @ S - F) <= 1e-12 * np.linalg.norm(F)
    with pytest.raises(DimensionMismatch):
        ctx.solve(np.ones((2, 7, 2)))
    with pytest.raises(DimensionMismatch):
        nk.KroneckerSylvester(A, E[:6, :6], S)


def test_kronecker_sylvester_at_a_pole_raises():
    # a shift that is an eigenvalue of the pencil: an exact zero pivot on
    # a diagonal pencil, and on a rotated one a residual that refinement
    # cannot bring within TOL_SOLVE
    lam = np.array([-1.0, -2.0, -3.5, -5.0, -8.0])
    S = np.array([[-3.5, 1.0], [0.0, 7.7]])
    Q = np.linalg.qr(np.random.default_rng(20).standard_normal((5, 5)))[0]
    F = np.ones((5, 2))
    with pytest.raises(SingularShift):
        nk.KroneckerSylvester(np.diag(lam), np.eye(5), S).solve(F)
    with pytest.raises(SingularShift):
        nk.KroneckerSylvester(Q @ np.diag(lam) @ Q.T, np.eye(5), S).solve(F)
