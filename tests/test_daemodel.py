import contextlib

import numpy as np
import pytest
import scipy.sparse as sps

from daecure import bench_io as bio
from daecure import cure
from daecure import daemodel as dm
from daecure import numkernel as nk
from daecure.errors import SingularSchurComplement, StructureViolation
from daecure.interp import DeflatedSystem

from conftest import STRUCTURE_VARIANTS
from oracles import PencilDeflation


def dense_projector_oracle(sys):
    return PencilDeflation(sys.E.toarray(), sys.A.toarray()).projectors()


def check_kit_against_oracle(sys, tol=1e-10):
    kit = dm.build_projectors(sys)
    Pl, Pr = dense_projector_oracle(sys)
    rng = np.random.default_rng(0)
    scale = max(np.abs(Pl).max(), np.abs(Pr).max(), 1.0)
    for _ in range(5):
        v = rng.standard_normal(sys.n)
        nv = np.linalg.norm(v)
        assert np.linalg.norm(kit.apply_left(v) - Pl @ v) <= tol * scale * nv
        assert np.linalg.norm(kit.apply_right(v) - Pr @ v) <= tol * scale * nv
    return kit


def test_index1_projectors_match_dense_oracle(index1_small, index1_general,
                                              index1_singular_e11):
    for sys in (index1_small, index1_general, index1_singular_e11):
        check_kit_against_oracle(sys)


def test_stokes_projectors_match_dense_oracle(stokes_small, stokes_general,
                                              stokes_singular_e11):
    for sys in (stokes_small, stokes_general, stokes_singular_e11):
        check_kit_against_oracle(sys, tol=1e-8)


@pytest.mark.parametrize("fixture", ["index1_small", "stokes_small"])
def test_projectors_and_transfer_split_share_one_factorization(
        fixture, request, factor_log):
    sys = request.getfixturevalue(fixture)
    del factor_log[:]
    dm.build_projectors(sys)
    assert len(factor_log) == 1


#: the fixtures whose E11 is diagonal with no zero entry
DIAGONAL_E11 = ["index1_small", "stokes_small"]


def _e11_order(sys):
    tag = sys.structure
    return tag.n1 if isinstance(tag, dm.SemiExplicitIndex1) else tag.n_v


@contextlib.contextmanager
def assembled_saddle():
    """Inside the block, every saddle-point matrix gets the LU of the
    assembled M or K."""
    def assembled(D, X, Y, Z, what):
        return dm._factor_assembled(sps.bmat([[D, X], [Y, Z]]), what)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dm, "_factor_saddle", assembled)
        yield


@pytest.mark.parametrize("fixture", STRUCTURE_VARIANTS)
def test_saddle_lu_is_of_the_schur_complement_of_a_diagonal_e11(
        fixture, request, monkeypatch):
    # order n2 (index 1) or n_p (Stokes) for a diagonal E11, else the
    # order n of M or K
    sys = request.getfixturevalue(fixture)
    orders = []
    init = nk.ShiftedFactorization.__init__

    def logged(self, pencil, sigma):
        init(self, pencil, sigma)
        orders.append(self.n)

    monkeypatch.setattr(nk.ShiftedFactorization, "__init__", logged)
    dm.build_projectors(sys)
    want = sys.n - _e11_order(sys) if fixture in DIAGONAL_E11 else sys.n
    assert orders == [want]


@pytest.mark.parametrize("fixture", DIAGONAL_E11)
def test_schur_saddle_agrees_with_the_assembled_lu(fixture, request):
    sys = request.getfixturevalue(fixture)
    kit = dm.build_projectors(sys)
    assert isinstance(kit.saddle, dm.SchurSaddle)
    with assembled_saddle():
        ref = dm.build_projectors(sys)
    assert isinstance(ref.saddle, nk.ShiftedFactorization)

    def close(x, y):
        return np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)

    pp, pp_ref = kit.poly, ref.poly
    assert close(kit.B_defl, ref.B_defl) and pp.kind == pp_ref.kind
    if pp.kind == "constant":
        assert close(pp.constant, pp_ref.constant)
    V = np.random.default_rng(3).standard_normal((sys.n, 3))
    assert close(kit.apply_left(V), ref.apply_left(V))
    assert close(kit.apply_right(V), ref.apply_right(V))


@pytest.mark.parametrize("fixture", DIAGONAL_E11)
def test_widely_spread_diagonal_e11_reduces_as_the_assembled_lu(
        fixture, request):
    # scaling the differential (velocity) columns by 1e-12 ... 1 spreads
    # E11 over that range and keeps the transfer function
    sys = request.getfixturevalue(fixture)
    k = _e11_order(sys)
    R = sps.diags(np.concatenate([np.logspace(-12, 0, k),
                                  np.ones(sys.n - k)]))
    sys = dm.DaeSystem(sys.E @ R, sys.A @ R, sys.B, sys.C @ R, sys.D,
                       sys.structure)
    assert isinstance(dm.build_projectors(sys).saddle, dm.SchurSaddle)

    def reduced_norm():
        report, _ = cure.cured_spark(DeflatedSystem.from_dae(sys))
        return report["norm_history"][-1]

    norm = reduced_norm()
    with assembled_saddle():
        ref = reduced_norm()
    assert abs(norm - ref) <= 1e-10 * ref


def _index1_with_blocks(d, E12, A21, A22):
    """Index-1 system with E11 = diag(d), A11 = -I and the given blocks."""
    n1, n2 = len(d), len(A22)
    E = sps.bmat([[sps.diags(d), E12], [None, sps.csc_matrix((n2, n2))]])
    A = sps.bmat([[-sps.eye(n1), None], [A21, A22]])
    return dm.DaeSystem(E, A, np.ones((n1 + n2, 1)), np.ones((1, n1 + n2)),
                        np.zeros((1, 1)), dm.SemiExplicitIndex1(n1))


def _rounds_singular():
    # S = I - 1e17 [[1, 1], [1, 1]] rounds to an exactly singular matrix
    return _index1_with_blocks([1e-17], np.ones((1, 2)), np.ones((2, 1)),
                               np.eye(2))


def _misses_the_probe():
    # S = diag(0.3, 0.7) - 1e12 [[1, 1], [1, 1]] keeps A22 only to about
    # 1e-4, so even a refined block solve misses the residual bound
    return _index1_with_blocks([1e-12], np.ones((1, 2)), np.ones((2, 1)),
                               np.diag([0.3, 0.7]))


@pytest.mark.parametrize("make", [_rounds_singular, _misses_the_probe])
def test_failed_schur_saddle_falls_back_to_the_assembled_lu(make):
    sys = make()
    kit = dm.build_projectors(sys)
    assert isinstance(kit.saddle, nk.ShiftedFactorization)
    assert kit.saddle.n == sys.n
    with assembled_saddle():
        ref = dm.build_projectors(sys)
    v = np.random.default_rng(4).standard_normal(sys.n)
    assert np.array_equal(kit.apply_left(v), ref.apply_left(v))
    assert np.array_equal(kit.apply_right(v), ref.apply_right(v))


def test_kit_deflates_like_the_left_projector(
        index1_small, index1_general, index1_singular_e11, stokes_small,
        stokes_general, stokes_singular_e11):
    for sys in (index1_small, index1_general, index1_singular_e11,
                stokes_small, stokes_general, stokes_singular_e11):
        kit = dm.build_projectors(sys)
        assert np.array_equal(kit.B_defl, kit.apply_left(sys.B.toarray()))


def test_ode_projectors_are_identity(ode_small):
    kit = dm.build_projectors(ode_small)
    v = np.arange(ode_small.n, dtype=float)
    assert np.array_equal(kit.apply_left(v), v)
    assert np.array_equal(kit.apply_right(v), v)


def test_projector_e_compatibility(index1_small):
    kit = dm.build_projectors(index1_small)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(index1_small.n)
    lhs = index1_small.E @ kit.apply_right(v)
    rhs = kit.apply_left(index1_small.E @ v)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * max(np.linalg.norm(rhs), 1.0)


def test_complex_vectors_supported(index1_small):
    kit = dm.build_projectors(index1_small)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(index1_small.n) + 1j * rng.standard_normal(index1_small.n)
    out = kit.apply_left(v)
    ref = kit.apply_left(v.real) + 1j * kit.apply_left(v.imag)
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


def test_index1_polynomial_part_is_schur_constant(index1_small):
    # [DERIVED] for the semi-explicit class with E12 = 0 the constant
    # polynomial part is -C2 A22^-1 B2 + D
    sys = index1_small
    n1 = sys.structure.n1
    A22 = sys.A[n1:, n1:].toarray()
    B2 = sys.B[n1:, :].toarray()
    C2 = sys.C[:, n1:].toarray()
    expect = -C2 @ np.linalg.solve(A22, B2) + sys.D
    pp = dm.build_projectors(sys).poly
    assert pp.kind == "constant"
    assert np.allclose(pp.constant, expect, atol=1e-10 * max(np.abs(expect).max(), 1.0))


def test_stokes_polynomial_part_strictly_proper(stokes_small):
    assert dm.build_projectors(stokes_small).poly.kind == "strictly_proper"


@pytest.mark.parametrize("block", ["B2", "C2"])
def test_stokes_pressure_io_is_unsupported(stokes_general, block):
    # an input into the constraint rows, or an output reading the
    # pressure, adds a constant (and, with both, a linear) part
    sys = stokes_general
    nv = sys.structure.n_v
    rng = np.random.default_rng(7)
    B, C = sys.B.toarray(), sys.C.toarray()
    if block == "B2":
        B[nv:] = rng.standard_normal(B[nv:].shape)
    else:
        C[:, nv:] = rng.standard_normal(C[:, nv:].shape)
    sys = dm.DaeSystem(sys.E, sys.A, sps.csc_matrix(B), sps.csc_matrix(C),
                       sys.D, sys.structure)
    assert dm.build_projectors(sys).poly.kind == "unsupported"


def eval_strictly_proper(sys, kit, s):
    """G^sp(s) = C Pi_r^f (sE - A)^-1 Pi_l^f B."""
    fac = nk.ShiftedFactorization(nk.Pencil(sys.A, sys.E), s)
    X = -fac.solve(kit.apply_left(sys.B.toarray()))
    return np.asarray(sys.C @ kit.apply_right(X))


def test_transfer_split(index1_small, index1_general, index1_singular_e11,
                        stokes_general):
    for sys in (index1_small, index1_general, index1_singular_e11,
                stokes_general):
        kit = dm.build_projectors(sys)
        pp = kit.poly
        poly = pp.constant if pp.kind == "constant" else 0.0
        for s in (0.5 + 1.0j, 3.0, 0.1 + 7.0j):
            total = dm.eval_transfer(sys, s)
            strictly = eval_strictly_proper(sys, kit, s)
            assert np.linalg.norm(total - strictly - poly) \
                <= 1e-9 * max(np.linalg.norm(total), 1.0)


def test_eval_transfer_stacks_an_array_of_shifts(index1_general):
    # one call over an array of shifts gives, point by point, the values
    # of scalar calls
    sys = index1_general
    s = np.array([[0.5 + 1.0j, 3.0], [0.1 + 7.0j, 2.0j]])
    G = dm.eval_transfer(sys, s)
    assert G.shape == s.shape + (sys.p, sys.m)
    for k in np.ndindex(s.shape):
        assert np.array_equal(G[k], dm.eval_transfer(sys, s[k]))


def test_eval_transfer_makes_one_sparse_lu_per_shift(monkeypatch):
    # index-1 250/50: SuperLU fills 83 % of the order-300 pencil, and the
    # reference evaluation still factors every shift on the sparse pencil
    sys = bio.gen_semi_explicit_index1(250, 50, seed=0)
    s = 1j * np.logspace(-2, 4, 4)
    made = []
    init = nk.ShiftedFactorization.__init__

    def logged_init(self, pencil, sigma):
        init(self, pencil, sigma)
        made.append((self.sigma, pencil.dense))

    monkeypatch.setattr(nk.ShiftedFactorization, "__init__", logged_init)
    dm.eval_transfer(sys, s)
    assert made == [(sk, False) for sk in s]


def test_strictly_proper_part_decays(index1_small):
    kit = dm.build_projectors(index1_small)
    g1 = np.linalg.norm(eval_strictly_proper(index1_small, kit, 1e6))
    g0 = np.linalg.norm(eval_strictly_proper(index1_small, kit, 1.0))
    assert g1 <= 1e-4 * g0


@pytest.mark.filterwarnings("error")
def test_near_singular_saddle_matrix_is_reported(index1_small):
    # algebraic row n1 + 1 repeats row n1 up to 1e-300 on the diagonal:
    # M = [[E11, E12], [A21, A22]] factors (no pivot is exactly zero),
    # but no solve with it meets the residual bound.  The solve's entries
    # reach 1e300, and the norm of its residual fails the gate without an
    # overflow warning
    n1 = index1_small.structure.n1
    A = index1_small.A.tolil()
    A[n1 + 1, :] = A[n1, :]
    A[n1 + 1, n1 + 1] += 1e-300
    sys = dm.DaeSystem(index1_small.E, A.tocsc(), index1_small.B,
                       index1_small.C, index1_small.D, index1_small.structure)
    with pytest.raises(SingularSchurComplement):
        dm.build_projectors(sys)


def test_realize_constant_poly_identity():
    P = np.array([[2.0, 0.0], [0.0, 0.0]])
    rom = dm.realize_constant_poly(P)
    assert rom.order == 1  # rank of P
    for s in (0.7, 1.3 + 2j):
        assert np.allclose(rom.eval(s), P, atol=1e-12)


def test_structure_violation_wrong_tag():
    E = np.diag([1.0, 0.0])
    A = np.array([[-1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(StructureViolation):
        dm.DaeSystem(sps.csc_matrix(E), sps.csc_matrix(A),
                     sps.csc_matrix(np.ones((2, 1))),
                     sps.csc_matrix(np.ones((1, 2))),
                     np.zeros((1, 1)), dm.SemiExplicitIndex1(3))


def test_structure_violation_stokes_nonzero_a22():
    E = np.diag([1.0, 0.0])
    A = np.array([[-1.0, 1.0], [1.0, 0.5]])
    with pytest.raises(StructureViolation):
        dm.DaeSystem(sps.csc_matrix(E), sps.csc_matrix(A),
                     sps.csc_matrix(np.ones((2, 1))),
                     sps.csc_matrix(np.ones((1, 2))),
                     np.zeros((1, 1)), dm.StokesIndex2(1, 1))
