import numpy as np
import scipy.linalg as spla

from daecure import h2analysis as h2
from daecure.interp import DeflatedSystem
from daecure.pork import check_interpolation, pork_input

from conftest import basis_at, make_ode
from oracles import check_orthogonality, h2_error_norm, transfer


def test_poles_are_mirror_images(index1_small):
    ds = DeflatedSystem.from_dae(index1_small)
    V, pair = basis_at(ds, 1.2, 5.0)
    rom = pork_input(V, pair, ds.C)
    shifts = np.linalg.eigvals(pair.S)
    poles = np.sort_complex(rom.poles())
    assert np.allclose(poles, np.sort_complex(-np.conj(shifts)), atol=1e-10)


def test_er_is_the_shift_gramian(index1_small):
    ds = DeflatedSystem.from_dae(index1_small)
    V, pair = basis_at(ds, 0.8, 2.0)
    rom = pork_input(V, pair, ds.C)
    # Er solves S^H Er + Er S = R^H R by construction
    res = pair.S.conj().T @ rom.Er + rom.Er @ pair.S - pair.R.conj().T @ pair.R
    assert np.linalg.norm(res) <= 1e-12
    assert np.allclose(rom.Ar, -pair.S.conj().T @ rom.Er, atol=1e-12)
    assert np.allclose(rom.Br, -pair.R.conj().T, atol=1e-15)


def test_reduced_controllability_gramian_is_er_inverse(index1_small):
    # [DERIVED] Ar P Er^T + Er P Ar^T + Br Br^T = 0 is solved by P = Er^-1
    ds = DeflatedSystem.from_dae(index1_small)
    V, pair = basis_at(ds, 1.0, 0.6)
    rom = pork_input(V, pair, ds.C)
    P = np.linalg.inv(rom.Er)
    res = rom.Ar @ P @ rom.Er.T + rom.Er @ P @ rom.Ar.T + rom.Br @ rom.Br.T
    assert np.linalg.norm(res) <= 1e-10
    A1, B1 = np.linalg.solve(rom.Er, rom.Ar), np.linalg.solve(rom.Er, rom.Br)
    assert np.allclose(spla.solve_continuous_lyapunov(A1, -B1 @ B1.T), P,
                       atol=1e-10)


def test_interpolation_order_two_anchor():
    # [DERIVED] G(s) = 1/((s+1)(s+2)) = 1/(s+1) - 1/(s+2).  The shift pair
    # a = 3/2, b = 2 has the shifts 1 and 2, the mirror images of G's
    # poles; the order-2 ROM has those poles and matches G there, so it
    # is G: G_r(1) = G(1) = 1/6 and G_r(0) = G(0) = 1/2
    sys = make_ode([-1.0, -2.0], [1.0, 1.0], [1.0, -1.0])
    ds = DeflatedSystem.from_dae(sys)
    V, pair = basis_at(ds, 1.5, 2.0)
    rom = pork_input(V, pair, ds.C)
    assert np.allclose(np.sort(pair.shifts().real), [1.0, 2.0], atol=1e-15)
    assert abs(rom.eval(1.0)[0, 0] - 1 / 6) <= 1e-13
    assert abs(rom.eval(0.0)[0, 0] - 1 / 2) <= 1e-13
    assert max(check_interpolation(transfer(ds), rom, pair)) <= 1e-13


def test_orthogonality_of_pseudo_optimal_error(index1_small):
    ds = DeflatedSystem.from_dae(index1_small)
    V, pair = basis_at(ds, 0.9, 1.7)
    rom = pork_input(V, pair, ds.C)
    worst = check_orthogonality(ds, rom, pair, trials=5, seed=1)
    assert worst <= 1e-10


def test_norm_decomposition_by_pseudo_optimality(index1_small):
    # [DERIVED] orthogonality of the error implies the Pythagorean split
    ds = DeflatedSystem.from_dae(index1_small)
    V, pair = basis_at(ds, 0.9, 1.7)
    rom = pork_input(V, pair, ds.C)
    ng = h2.h2_norm(index1_small)
    nr = h2.h2_norm(rom)
    ne = h2_error_norm(ds, rom)
    assert abs(ng ** 2 - nr ** 2 - ne ** 2) <= 1e-10 * ng ** 2
