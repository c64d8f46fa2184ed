import numpy as np
import pytest

from daecure import daemodel as dm
from daecure import interp
from daecure.errors import DimensionMismatch, DuplicateShift, NonPositiveParams


def test_spark_basis_sylvester_residual(index1_small):
    ds = interp.DeflatedSystem.from_dae(index1_small)
    basis, data = interp.spark_basis(ds, 1.3, 0.9)
    assert interp.sylvester_residual(ds, basis, data) <= 1e-12


def test_spark_matrices_encode_shift_pair():
    # [DERIVED] eigenvalues of S are a +- sqrt(a^2 - b)
    a, b = 2.0, 3.0
    data = interp.spark_params_matrices(a, b)
    w = np.sort_complex(np.linalg.eigvals(data.S))
    d = np.lib.scimath.sqrt(a * a - b)
    expect = np.sort_complex(np.array([a - d, a + d]))
    assert np.allclose(w, expect, atol=1e-12)


def test_interpolation_at_distinct_real_shifts(index1_small):
    ds = interp.DeflatedSystem.from_dae(index1_small)
    basis, data = interp.spark_basis(ds, 2.0, 3.0)  # a^2 > b: real shifts
    from daecure.pork import check_interpolation, pork_input
    rom = pork_input(basis, data, ds.C)
    assert max(check_interpolation(ds.eval, rom, data)) <= 1e-10


def test_interpolation_at_complex_pair(stokes_small):
    ds = interp.DeflatedSystem.from_dae(stokes_small)
    basis, data = interp.spark_basis(ds, 0.5, 4.0)  # a^2 < b: complex pair
    from daecure.pork import check_interpolation, pork_input
    rom = pork_input(basis, data, ds.C)
    assert max(check_interpolation(ds.eval, rom, data)) <= 1e-10


def test_basis_smooth_through_confluence(index1_small):
    # a^2 = b merges the shifts; Sylvester route must stay finite/continuous
    ds = interp.DeflatedSystem.from_dae(index1_small)
    a = 1.5
    V0, _ = interp.spark_basis(ds, a, a * a)
    Vm, _ = interp.spark_basis(ds, a, a * a * (1 - 1e-7))
    assert np.linalg.norm(V0.V - Vm.V) <= 1e-4 * np.linalg.norm(V0.V)


def test_tangential_basis_interpolates(index1_small):
    ds = interp.DeflatedSystem.from_dae(index1_small)
    shift_dirs = [(0.7, np.array([1.0])),
                  (1.0 + 2.0j, np.array([1.0 + 0.0j])),
                  (1.0 - 2.0j, np.array([1.0 + 0.0j]))]
    basis, data = interp.tangential_basis(ds, shift_dirs)
    assert basis.q == 3
    assert not np.iscomplexobj(basis.V)
    assert interp.sylvester_residual(ds, basis, data) <= 1e-12
    from daecure.pork import check_interpolation, pork_input
    rom = pork_input(basis, data, ds.C)
    assert max(check_interpolation(ds.eval, rom, data)) <= 1e-9


def test_realification_block_structure():
    sd = [(2.0 + 1.0j, np.array([1.0 + 0j])), (2.0 - 1.0j, np.array([1.0 + 0j]))]
    S, R = interp.realify_shift_directions(sd, 1)
    assert np.allclose(S, [[2.0, 1.0], [-1.0, 2.0]])
    assert np.allclose(R, [[1.0, 0.0]])


def test_duplicate_shift_raises():
    sd = [(1.0, np.array([1.0])), (1.0, np.array([1.0]))]
    with pytest.raises(DuplicateShift):
        interp.realify_shift_directions(sd, 1)


def test_unpaired_complex_shift_raises():
    sd = [(1.0 + 1.0j, np.array([1.0 + 0j]))]
    with pytest.raises(DimensionMismatch):
        interp.realify_shift_directions(sd, 1)


def test_admissibility_rejects_lhp_shifts():
    data = interp.InterpData(S=np.array([[-1.0]]), R=np.array([[1.0]]))
    with pytest.raises(NonPositiveParams):
        data.check_admissible()


def test_admissibility_rejects_uncontrollable_data():
    data = interp.InterpData(S=np.diag([1.0, 2.0]), R=np.array([[1.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        data.check_admissible()


def test_shift_directions_roundtrip():
    data = interp.spark_params_matrices(0.5, 4.0)
    sd = data.shift_directions()
    shifts = sorted([s for s, _ in sd], key=lambda z: z.imag)
    d = np.lib.scimath.sqrt(0.25 - 4.0)
    assert np.allclose(shifts, [0.5 - d, 0.5 + d])
    for _, r in sd:
        assert abs(np.linalg.norm(r) - 1.0) <= 1e-12


def test_eval_at_conjugate_shift_reuses_factorization(index1_small,
                                                       factor_log):
    ds = interp.DeflatedSystem.from_dae(index1_small)
    s = 0.7 + 2.3j
    fresh = [interp.DeflatedSystem.from_dae(index1_small).eval(x)
             for x in (s, np.conj(s))]     # one new system per shift
    made = factor_log
    del made[:]
    shared = [ds.eval(x) for x in (s, np.conj(s), 1.5, s)]
    assert made == [s, 1.5, s]
    for got, want in zip(shared, fresh):
        assert np.allclose(got, want, rtol=1e-12, atol=0)
    assert np.array_equal(shared[3], shared[0])
