import numpy as np
import pytest
import scipy.sparse as sps

from daecure import daemodel as dm
from daecure import numkernel as nk
from daecure.errors import SingularSchurComplement, StructureViolation

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
    kit = dm.build_projectors(sys)
    dm.split_transfer(sys, kit)
    assert len(factor_log) == 1


def test_split_transfer_deflates_like_the_left_projector(
        index1_small, index1_general, index1_singular_e11, stokes_small,
        stokes_general, stokes_singular_e11):
    for sys in (index1_small, index1_general, index1_singular_e11,
                stokes_small, stokes_general, stokes_singular_e11):
        kit = dm.build_projectors(sys)
        B_defl, _ = dm.split_transfer(sys, kit)
        assert np.array_equal(B_defl, kit.apply_left(sys.B.toarray()))


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
    _, pp = dm.split_transfer(sys, dm.build_projectors(sys))
    assert pp.kind == "constant"
    assert np.allclose(pp.constant, expect, atol=1e-10 * max(np.abs(expect).max(), 1.0))


def test_stokes_polynomial_part_strictly_proper(stokes_small):
    _, pp = dm.split_transfer(stokes_small, dm.build_projectors(stokes_small))
    assert pp.kind == "strictly_proper"


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
    _, pp = dm.split_transfer(sys, dm.build_projectors(sys))
    assert pp.kind == "unsupported"


def eval_strictly_proper(sys, kit, s):
    """G^sp(s) = C Pi_r^f (sE - A)^-1 Pi_l^f B."""
    fac = nk.ShiftedFactorization(sys.A, sys.E, s)
    X = -fac.solve(kit.apply_left(sys.B.toarray()))
    return np.asarray(sys.C @ kit.apply_right(X))


def test_transfer_split(index1_small, index1_general, index1_singular_e11,
                        stokes_general):
    for sys in (index1_small, index1_general, index1_singular_e11,
                stokes_general):
        kit = dm.build_projectors(sys)
        _, pp = dm.split_transfer(sys, kit)
        poly = pp.constant if pp.kind == "constant" else 0.0
        for s in (0.5 + 1.0j, 3.0, 0.1 + 7.0j):
            total = dm.eval_transfer(sys, s)
            strictly = eval_strictly_proper(sys, kit, s)
            assert np.linalg.norm(total - strictly - poly) \
                <= 1e-9 * max(np.linalg.norm(total), 1.0)


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
