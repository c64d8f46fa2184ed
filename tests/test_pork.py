import numpy as np
import pytest
import scipy.linalg as spla

from daecure import h2analysis as h2
from daecure import numkernel as nk
from daecure.errors import NotAntistable
from daecure.interp import DeflatedSystem, InterpData
from daecure.pork import check_interpolation, pork_input

from conftest import basis_at, make_ode
from oracles import check_orthogonality, h2_error_norm, transfer


def test_poles_are_mirror_images(index1_small):
    ds = DeflatedSystem.from_dae(index1_small)
    V, data = basis_at(ds, 1.2, 5.0)
    rom = pork_input(V, data, ds.C)
    shifts = np.linalg.eigvals(data.S)
    poles = np.sort_complex(rom.poles())
    assert np.allclose(poles, np.sort_complex(-np.conj(shifts)), atol=1e-10)


def test_er_is_the_shift_gramian(index1_small):
    ds = DeflatedSystem.from_dae(index1_small)
    V, data = basis_at(ds, 0.8, 2.0)
    rom = pork_input(V, data, ds.C)
    # Er solves S^H Er + Er S = R^H R by construction
    res = data.S.conj().T @ rom.Er + rom.Er @ data.S - data.R.conj().T @ data.R
    assert np.linalg.norm(res) <= 1e-12
    assert np.allclose(rom.Ar, -data.S.conj().T @ rom.Er, atol=1e-12)
    assert np.allclose(rom.Br, -data.R.conj().T, atol=1e-15)


def test_reduced_controllability_gramian_is_er_inverse(index1_small):
    # [DERIVED] Ar P Er^T + Er P Ar^T + Br Br^T = 0 is solved by P = Er^-1
    ds = DeflatedSystem.from_dae(index1_small)
    V, data = basis_at(ds, 1.0, 0.6)
    rom = pork_input(V, data, ds.C)
    P = np.linalg.inv(rom.Er)
    res = rom.Ar @ P @ rom.Er.T + rom.Er @ P @ rom.Ar.T + rom.Br @ rom.Br.T
    assert np.linalg.norm(res) <= 1e-10
    A1, B1 = np.linalg.solve(rom.Er, rom.Ar), np.linalg.solve(rom.Er, rom.Br)
    assert np.allclose(spla.solve_continuous_lyapunov(A1, -B1 @ B1.T), P,
                       atol=1e-10)


def test_lhp_shifts_rejected():
    data = InterpData(S=np.array([[-2.0]]), R=np.array([[1.0]]))
    with pytest.raises(NotAntistable):
        pork_input(np.ones((3, 1)), data, np.ones((1, 3)))


def test_interpolation_scalar_anchor():
    # [DERIVED] G(s) = 1/(s+1); shift sigma = 1 with the order-1 projection
    sys = make_ode([-1.0], [1.0], [1.0])
    ds = DeflatedSystem.from_dae(sys)
    data = InterpData(S=np.array([[1.0]]), R=np.array([[1.0]]))
    V = nk.SylvesterContext(ds.A, ds.E, data.S).solve(ds.B_defl @ data.R)
    rom = pork_input(V, data, ds.C)
    # G(1) = 1/2 must be matched; reduced model is c/(s+1) with c chosen
    # so G_r(1) = 1/2, i.e. it reproduces G exactly here
    assert abs(rom.eval(1.0)[0, 0] - 0.5) <= 1e-13
    assert max(check_interpolation(transfer(ds), rom, data)) <= 1e-13


def test_orthogonality_of_pseudo_optimal_error(index1_small):
    ds = DeflatedSystem.from_dae(index1_small)
    V, data = basis_at(ds, 0.9, 1.7)
    rom = pork_input(V, data, ds.C)
    worst = check_orthogonality(ds, rom, data, trials=5, seed=1)
    assert worst <= 1e-10


def test_norm_decomposition_by_pseudo_optimality(index1_small):
    # [DERIVED] orthogonality of the error implies the Pythagorean split
    ds = DeflatedSystem.from_dae(index1_small)
    V, data = basis_at(ds, 0.9, 1.7)
    rom = pork_input(V, data, ds.C)
    ng = h2.h2_norm(index1_small)
    nr = h2.h2_norm(rom)
    ne = h2_error_norm(ds, rom)
    assert abs(ng ** 2 - nr ** 2 - ne ** 2) <= 1e-10 * ng ** 2
