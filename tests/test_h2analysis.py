import dataclasses

import numpy as np
import pytest
import scipy.linalg as spla
import scipy.sparse as sps

from daecure import daemodel as dm
from daecure import h2analysis as h2
from daecure import numkernel as nk
from daecure.errors import (
    DeskScaleExceeded,
    SingularShift,
    StructureViolation,
    UnstableSystem,
)
from daecure.interp import DeflatedSystem
from daecure.pork import RomRealization

from conftest import STRUCTURE_VARIANTS, make_ode, make_random_stable_ode
from oracles import (
    PoleResidueForm,
    h2_error_norm,
    h2_inner_pole_residue,
    h2_inner_sylvester_dense,
    qz_finite_std,
    qz_h2_norm,
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
    assert abs(h2.h2_norm(index1_small) - h2.h2_norm(oracle)) \
        <= 1e-9 * h2.h2_norm(oracle)


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

    def refuse(*args, **kwargs):
        raise AssertionError("densified or factored past the size limit")

    # the size is checked before anything is densified or factored
    monkeypatch.setattr(sps.csc_matrix, "toarray", refuse)
    monkeypatch.setattr(dm, "build_projectors", refuse)
    with pytest.raises(DeskScaleExceeded):
        h2.h2_norm(sys)


@pytest.mark.parametrize("fixture", STRUCTURE_VARIANTS)
def test_projector_route_matches_qz_oracle(fixture, request):
    sys = request.getfixturevalue(fixture)
    A1 = h2._finite_std(sys).A1
    assert A1.shape[0] == qz_finite_std(sys)[0].shape[0]
    oracle = qz_h2_norm(sys)
    assert abs(h2.h2_norm(sys) - oracle) <= 1e-10 * oracle


def _rank2_rom():
    """A rank-2 Er hidden by random orthogonal factors, over an algebraic
    block that makes the pencil index 1."""
    rng = np.random.default_rng(3)
    Q1, Q2 = (np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(2))
    return RomRealization(Er=Q1 @ np.diag([1.0, 0.5, 0.0, 0.0]) @ Q2,
                          Ar=Q1 @ (np.diag([-1.0, -3.0, 1.0, 2.0])
                                   + np.triu(np.ones((4, 4)), 1)) @ Q2,
                          Br=rng.standard_normal((4, 1)),
                          Cr=rng.standard_normal((1, 4)))


def test_rom_route_matches_qz_oracle():
    rom = _rank2_rom()
    assert h2._finite_std(h2._semi_explicit(rom)).A1.shape == (2, 2)
    oracle = qz_h2_norm(rom)
    assert abs(h2.h2_norm(rom) - oracle) <= 1e-12 * oracle


def test_rom_route_keeps_er_singular_values_twelve_decades_apart():
    # Er's singular values run from 1 to 1e-12, hidden by random
    # orthogonal factors.  The four small ones carry fast modes that B and
    # C do not reach, so the norm is well conditioned and QZ resolves it.
    # A basis of Er's unscaled rows squares that spread into Ef and misses
    # the norm by about 1e-8.
    rng = np.random.default_rng(0)
    q, k = 8, 4
    Q1, Q2 = (np.linalg.qr(rng.standard_normal((q, q)))[0] for _ in range(2))
    small = np.logspace(-2, -12, k)
    T = np.triu(rng.standard_normal((q, q)), 1)
    T[np.diag_indices(q)] = -rng.uniform(1.0, 3.0, q)
    T[q - k:] *= small[:, None]
    T[:q - k, q - k:] = 0.0
    b, c = (np.concatenate([rng.standard_normal(q - k), np.zeros(k)])
            for _ in range(2))
    rom = RomRealization(Er=Q1 @ np.diag(np.r_[np.ones(q - k), small]) @ Q2,
                         Ar=Q1 @ T @ Q2, Br=(Q1 @ b)[:, None],
                         Cr=(c @ Q2)[None, :])
    sv = np.linalg.svd(rom.Er, compute_uv=False)
    assert sv[0] >= 1e10 * sv[-1]
    oracle = qz_h2_norm(rom)
    assert abs(h2.h2_norm(rom) - oracle) <= 1e-12 * oracle


@pytest.mark.parametrize("fixture", ["index1_small", "index1_singular_e11",
                                     "stokes_small", "rom"])
def test_projector_applied_to_finite_columns_only(fixture, request,
                                                  monkeypatch):
    # Pi_r sees n_f columns and the one self-check column, and no pivoted
    # QR picks a basis out of its range
    if fixture == "rom":
        obj, nf = _rank2_rom(), 2
    else:
        obj = request.getfixturevalue(fixture)
        tag = obj.structure
        nf = tag.n1 if isinstance(tag, dm.SemiExplicitIndex1) \
            else tag.n_v - tag.n_p
    build, qr, cols = dm.build_projectors, spla.qr, []

    def counting(sys):
        kit = build(sys)

        def right(v):
            cols.append(1 if v.ndim == 1 else v.shape[1])
            return kit.apply_right(v)

        return dataclasses.replace(kit, apply_right=right)

    def unpivoted(*args, **kwargs):
        assert not kwargs.get("pivoting"), "pivoted QR"
        return qr(*args, **kwargs)

    monkeypatch.setattr(dm, "build_projectors", counting)
    monkeypatch.setattr(spla, "qr", unpivoted)
    h2.h2_norm(obj)
    assert cols == [nf, 1]


@pytest.mark.parametrize("fixture", STRUCTURE_VARIANTS)
def test_projected_cross_gramians(fixture, request):
    sys = request.getfixturevalue(fixture)
    ds = DeflatedSystem.from_dae(sys)
    rom = _random_rom(4, 7)
    val, X, Y = h2_inner_sylvester_dense(ds, rom)
    scale = h2.h2_norm(sys) * h2.h2_norm(rom)
    pr = rom_to_pole_residue(rom)
    assert abs(val - h2_inner_pole_residue(transfer(ds), pr)) <= 1e-8 * scale
    # Gramian trace identity: trace(C X Cr^T) = value = trace(B^T Y Br)
    assert abs(np.trace(ds.C @ X @ rom.Cr.T) - val) <= 1e-10 * scale
    assert abs(np.trace(ds.B_defl.T @ Y @ rom.Br) - val) <= 1e-9 * scale


def test_projector_rank_must_match_the_tag(index1_small, monkeypatch):
    build = dm.build_projectors

    def halved(sys):
        kit = build(sys)
        return dataclasses.replace(
            kit, apply_right=lambda v: 0.5 * kit.apply_right(v))

    monkeypatch.setattr(dm, "build_projectors", halved)
    with pytest.raises(StructureViolation, match="not idempotent"):
        h2.h2_norm(index1_small)


def test_error_norm_of_exact_model_is_zero():
    sys = make_ode([-1.0, -3.0], [1.0, 1.0], [2.0, -1.0])
    ds = DeflatedSystem.from_dae(sys)
    rom = RomRealization(Er=np.eye(2), Ar=np.diag([-1.0, -3.0]),
                         Br=np.array([[1.0], [1.0]]),
                         Cr=np.array([[2.0, -1.0]]))
    assert h2_error_norm(ds, rom) <= 1e-12


#: the sweep of the benchmark's bode grid
SWEEP = 1j * np.logspace(-2, 4, 40)


def _pressure_io(sys):
    """Stokes ``sys`` with inputs into the constraint rows and outputs
    reading the pressure: a polynomial part P0 + s P1 with both
    nonzero."""
    nv = sys.structure.n_v
    rng = np.random.default_rng(7)
    B, C = sys.B.toarray(), sys.C.toarray()
    B[nv:] = rng.standard_normal(B[nv:].shape)
    C[:, nv:] = rng.standard_normal(C[:, nv:].shape)
    return dm.DaeSystem(sys.E, sys.A, sps.csc_matrix(B), sps.csc_matrix(C),
                        sys.D, sys.structure)


def _two_inputs(sys):
    """``sys`` with a second random input and output."""
    rng = np.random.default_rng(8)
    B = np.hstack([sys.B.toarray(), rng.standard_normal((sys.n, 1))])
    C = np.vstack([sys.C.toarray(), rng.standard_normal((1, sys.n))])
    return dm.DaeSystem(sys.E, sys.A, sps.csc_matrix(B), sps.csc_matrix(C),
                        np.ones((2, 2)), sys.structure)


@pytest.mark.parametrize("fixture", STRUCTURE_VARIANTS
                         + ["pressure_io", "two_inputs"])
def test_sweep_matches_per_shift_lus(fixture, request):
    # finite coordinates and a Hessenberg form give, point by point, the
    # values of one sparse LU of the pencil per shift, the polynomial
    # part included
    if fixture == "pressure_io":
        sys = _pressure_io(request.getfixturevalue("stokes_small"))
        pp = dm.build_projectors(sys).poly
        assert pp.kind == "unsupported"
        assert np.any(pp.constant) and np.any(pp.linear)
    elif fixture == "two_inputs":
        sys = _two_inputs(request.getfixturevalue("index1_general"))
    else:
        sys = request.getfixturevalue(fixture)
    G, residuals = h2.sweep_transfer(sys, SWEEP)
    want = dm.eval_transfer(sys, SWEEP)
    assert G.shape == want.shape == SWEEP.shape + (sys.p, sys.m)
    assert residuals.shape == SWEEP.shape
    assert np.all(residuals <= nk.TOL_SOLVE)
    for Gk, wk in zip(G, want):
        assert np.linalg.norm(Gk - wk) <= 1e-12 * np.linalg.norm(wk)


def test_sweep_matches_dense_solves_with_pressure_io(stokes_general):
    # E11 != I and A21 != A12^T with pressure inputs and outputs: against
    # LAPACK solves of the assembled sE - A the sweep keeps 1e-13, where
    # the ordered sparse LUs of ``eval_transfer`` keep about 1e-12
    sys = _pressure_io(stokes_general)
    A, E, B, C = (M.toarray() for M in (sys.A, sys.E, sys.B, sys.C))
    for Gk, sk in zip(h2.sweep_transfer(sys, SWEEP)[0], SWEEP):
        want = C @ np.linalg.solve(sk * E - A, B) + sys.D
        assert np.linalg.norm(Gk - want) <= 1e-13 * np.linalg.norm(want)


def test_sweep_of_one_shift(stokes_small):
    s = 0.5 + 2.0j
    G = h2.sweep_transfer(stokes_small, s)[0]
    want = dm.eval_transfer(stokes_small, s)
    assert G.shape == want.shape
    assert np.linalg.norm(G - want) <= 1e-12 * np.linalg.norm(want)


def test_sweep_certificate_catches_a_perturbed_basis(stokes_general,
                                                     monkeypatch):
    # Z off range Pi_r by 1e-6 relative: the Hessenberg solves still meet
    # their own bound, but the lifted state misses the full-pencil one
    finite_std = h2._finite_std

    def perturbed(sys):
        fr = finite_std(sys)
        rng = np.random.default_rng(0)
        return dataclasses.replace(
            fr, Z=fr.Z * (1 + 1e-6 * rng.standard_normal(fr.Z.shape)))

    monkeypatch.setattr(h2, "_finite_std", perturbed)
    with pytest.raises(SingularShift, match="full-pencil residual"):
        h2.sweep_transfer(stokes_general, SWEEP)


def test_sweep_at_a_pole_is_a_singular_shift():
    # poles at +-i: the shift i makes sI - H exactly singular
    A = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    sys = dm.DaeSystem(sps.eye(3, format="csc"), sps.csc_matrix(A),
                       sps.csc_matrix(np.ones((3, 1))),
                       sps.csc_matrix(np.ones((1, 3))), np.zeros((1, 1)),
                       dm.SemiExplicitIndex1(3))
    with pytest.raises(SingularShift, match="singular at shift"):
        h2.sweep_transfer(sys, np.array([2j, 1j]))
