import dataclasses

import numpy as np
import pytest
import scipy.sparse as sps

from daecure import daemodel as dm
from daecure import h2analysis as h2
from daecure import numkernel as nk
from daecure.errors import (
    DeskScaleExceeded,
    StructureViolation,
    UnstableSystem,
)
from daecure.interp import DeflatedSystem
from daecure.pork import RomRealization

from conftest import STRUCTURE_VARIANTS, make_ode, make_random_stable_ode
from oracles import (
    PencilDeflation,
    PoleResidueForm,
    h2_error_norm,
    h2_inner_pole_residue,
    h2_inner_sylvester_dense,
    rom_to_pole_residue,
    transfer,
)


def rom_1pole(lam, b=1.0, c=1.0):
    return RomRealization(Er=[[1.0]], Ar=[[lam]], Br=[[b]], Cr=[[c]])


def test_h2_norm_scalar_anchor():
    # [DERIVED] ||1/(s+1)|| = 1/sqrt(2)
    assert abs(h2.h2_norm(rom_1pole(-1.0)) - 1 / np.sqrt(2)) <= 1e-14


def test_h2_inner_scalar_anchor():
    # [DERIVED] <1/(s+1), 1/(s+2)> = 1/3
    g1, g2 = rom_1pole(-1.0), rom_1pole(-2.0)
    val, _, _ = h2_inner_sylvester_dense(g1, g2)
    assert abs(val - 1.0 / 3.0) <= 1e-14
    pr = rom_to_pole_residue(g2)
    val_pr = h2_inner_pole_residue(g1.eval, pr)
    assert abs(val_pr - 1.0 / 3.0) <= 1e-14


def test_two_routes_agree_on_random_pairs():
    for seed in range(5):
        sysA = make_random_stable_ode(12, seed=seed)
        romB = _random_rom(4, seed + 100)
        dsA = DeflatedSystem.from_dae(sysA)
        v1, X, Y = h2_inner_sylvester_dense(dsA, romB)
        pr = rom_to_pole_residue(romB)
        v2 = h2_inner_pole_residue(transfer(dsA), pr)
        assert abs(v1 - v2) <= 1e-8 * max(abs(v1), 1e-6)
        # Gramian symmetry: trace(C X C*) = trace(B* Y B)
        tc = np.trace(dsA.C @ X @ romB.Cr.conj().T)
        tb = np.trace(dsA.B_defl.conj().T @ Y @ romB.Br)
        assert abs(tc - tb) <= 1e-8 * max(abs(tc), 1e-6)


def _random_rom(q, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((q, q))
    A = A - (abs(np.linalg.eigvals(A).real).max() + 1.0) * np.eye(q)
    E = np.eye(q) + 0.1 * rng.standard_normal((q, q))
    return RomRealization(Er=E, Ar=E @ A, Br=rng.standard_normal((q, 1)),
                          Cr=rng.standard_normal((1, q)))


def test_descriptor_norm_equals_finite_part_norm(index1_small):
    # the H2 norm of a DAE is the norm of its strictly proper part
    ds = DeflatedSystem.from_dae(index1_small)
    n1 = index1_small.structure.n1
    # [DERIVED] oracle: explicit finite realization by block elimination
    A11 = index1_small.A[:n1, :n1].toarray()
    A12 = index1_small.A[:n1, n1:].toarray()
    A21 = index1_small.A[n1:, :n1].toarray()
    A22 = index1_small.A[n1:, n1:].toarray()
    B1 = index1_small.B[:n1].toarray()
    B2 = index1_small.B[n1:].toarray()
    C1 = index1_small.C[:, :n1].toarray()
    C2 = index1_small.C[:, n1:].toarray()
    Ared = A11 - A12 @ np.linalg.solve(A22, A21)
    Bred = B1 - A12 @ np.linalg.solve(A22, B2)
    Cred = C1 - C2 @ np.linalg.solve(A22, A21)
    oracle = RomRealization(Er=np.eye(n1), Ar=Ared, Br=Bred, Cr=Cred)
    assert abs(h2.h2_norm(ds) - h2.h2_norm(oracle)) <= 1e-9 * h2.h2_norm(oracle)


def test_unstable_raises():
    with pytest.raises(UnstableSystem):
        h2.h2_norm(rom_1pole(0.5))
    with pytest.raises(UnstableSystem):
        pr = PoleResidueForm(poles=np.array([0.5 + 0j]),
                             b_rows=np.array([[1.0 + 0j]]),
                             c_cols=np.array([[1.0 + 0j]]))
        h2_inner_pole_residue(lambda s: np.array([[1.0]]), pr)


def test_repeated_poles_rejected_for_pole_residue():
    rom = RomRealization(Er=np.eye(2), Ar=np.diag([-1.0, -1.0]),
                         Br=np.ones((2, 1)), Cr=np.ones((1, 2)))
    with pytest.raises(ValueError, match="too close"):
        rom_to_pole_residue(rom)


def test_desk_scale_limit_enforced(monkeypatch):
    n = nk.DENSE_LIMIT + 1
    A = sps.csc_matrix(sps.diags(-np.arange(1.0, n + 1)))
    sys = dm.DaeSystem(sps.eye(n, format="csc"), A,
                       sps.csc_matrix(np.ones((n, 1))),
                       sps.csc_matrix(np.ones((1, n))),
                       np.zeros((1, 1)), dm.SemiExplicitIndex1(n))
    ds = DeflatedSystem.from_dae(sys)

    def refuse(*args, **kwargs):
        raise AssertionError("densified or factored past the size limit")

    # the size is checked before anything is densified or factored
    monkeypatch.setattr(sps.csc_matrix, "toarray", refuse)
    monkeypatch.setattr(dm, "build_projectors", refuse)
    with pytest.raises(DeskScaleExceeded):
        h2.h2_norm(ds)


def qz_finite_std(ds):
    """Finite standard realization and map-back factors of a deflated
    system by reordered QZ of the dense pencil, the oracle for the
    projector route."""
    defl = PencilDeflation(ds.E.toarray(), ds.A.toarray())
    nf = defl.nf
    A1, B1, C1 = defl.finite_realization(ds.B_defl, ds.C)
    return A1, B1, C1, defl.XR[:, :nf], np.linalg.solve(defl.Ef,
                                                         defl.XL[:nf])


def with_qz_oracle(fn, *args):
    """``fn(*args)`` with deflated systems brought to finite coordinates
    by QZ instead of their projectors; a reduced realization keeps its
    SVD-and-projector route."""
    finite_std = h2._finite_std

    def qz_for_systems(obj):
        if isinstance(obj, DeflatedSystem):
            return qz_finite_std(obj)
        return finite_std(obj)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(h2, "_finite_std", qz_for_systems)
        return fn(*args)


@pytest.mark.parametrize("fixture", STRUCTURE_VARIANTS)
def test_projector_route_matches_qz_oracle(fixture, request):
    ds = DeflatedSystem.from_dae(request.getfixturevalue(fixture))
    A1 = h2._finite_std(ds)[0]
    assert A1.shape[0] == qz_finite_std(ds)[0].shape[0]
    oracle = with_qz_oracle(h2.h2_norm, ds)
    assert abs(h2.h2_norm(ds) - oracle) <= 1e-10 * oracle


@pytest.mark.parametrize("fixture", STRUCTURE_VARIANTS)
def test_projected_cross_gramians(fixture, request):
    ds = DeflatedSystem.from_dae(request.getfixturevalue(fixture))
    rom = _random_rom(4, 7)
    val, X, Y = h2_inner_sylvester_dense(ds, rom)
    scale = h2.h2_norm(ds) * h2.h2_norm(rom)
    pr = rom_to_pole_residue(rom)
    assert abs(val - h2_inner_pole_residue(transfer(ds), pr)) <= 1e-8 * scale
    # Gramian trace identity: trace(C X Cr^T) = value = trace(B^T Y Br)
    assert abs(np.trace(ds.C @ X @ rom.Cr.T) - val) <= 1e-10 * scale
    assert abs(np.trace(ds.B_defl.T @ Y @ rom.Br) - val) <= 1e-9 * scale
    # the mapped-back Gramians do not depend on the finite coordinates
    val_qz, X_qz, Y_qz = with_qz_oracle(h2_inner_sylvester_dense, ds, rom)
    assert abs(val - val_qz) <= 1e-10 * scale
    assert np.linalg.norm(X - X_qz) <= 1e-8 * np.linalg.norm(X_qz)
    assert np.linalg.norm(Y - Y_qz) <= 1e-8 * np.linalg.norm(Y_qz)


def test_projector_rank_must_match_the_tag(index1_small, monkeypatch):
    ds = DeflatedSystem.from_dae(index1_small)
    build = dm.build_projectors

    def halved(sys):
        kit = build(sys)
        return dataclasses.replace(
            kit, apply_right=lambda v: 0.5 * kit.apply_right(v))

    monkeypatch.setattr(dm, "build_projectors", halved)
    with pytest.raises(StructureViolation, match="rank 25"):
        h2.h2_norm(ds)


def test_error_norm_of_exact_model_is_zero():
    sys = make_ode([-1.0, -3.0], [1.0, 1.0], [2.0, -1.0])
    ds = DeflatedSystem.from_dae(sys)
    rom = RomRealization(Er=np.eye(2), Ar=np.diag([-1.0, -3.0]),
                         Br=np.array([[1.0], [1.0]]),
                         Cr=np.array([[2.0, -1.0]]))
    assert h2_error_norm(ds, rom) <= 1e-12
