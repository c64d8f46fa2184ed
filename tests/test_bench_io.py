import csv
import json
import os

import numpy as np
import pytest
import scipy.linalg as spla

from daecure import bench_io as bio
from daecure import daemodel as dm
from daecure.errors import ParseError, StructureViolation
from daecure.pork import RomRealization

from oracles import PencilDeflation


def test_index1_generator_postconditions():
    sys = bio.gen_semi_explicit_index1(30, 8, seed=7)
    n1 = sys.structure.n1
    assert n1 == 30 and sys.n == 38
    # E11 = I, E12 = 0, algebraic rows zero
    assert np.array_equal(sys.E[:n1, :n1].toarray(), np.eye(n1))
    assert sys.E[:n1, n1:].nnz == 0
    assert sys.E[n1:, :].nnz == 0
    # A22 strictly diagonally dominant -> nonsingular
    A22 = sys.A[n1:, n1:].toarray()
    off = np.abs(A22).sum(axis=1) - np.abs(np.diag(A22))
    assert np.all(np.abs(np.diag(A22)) > off)
    # all finite pencil eigenvalues strictly stable, n_f = n1
    w = spla.eigvals(sys.A.toarray(), sys.E.toarray())
    finite = w[np.isfinite(w)]
    assert finite.size == n1
    assert finite.real.max() < 0


def test_stokes_generator_postconditions():
    m = 4
    sys = bio.gen_stokes_index2(m, seed=2)
    nv, npp = sys.structure.n_v, sys.structure.n_p
    assert nv == 2 * m * m and npp == m * m - 1
    A12 = sys.A[:nv, nv:].toarray()
    A21 = sys.A[nv:, :nv].toarray()
    assert np.array_equal(A21, A12.T)
    # pressure Schur complement nonsingular after pinning
    S = A21 @ A12
    assert np.isfinite(np.linalg.cond(S))
    # K = I - A12 (A21 A12)^-1 A21 idempotent
    K = np.eye(nv) - A12 @ np.linalg.solve(S, A21)
    assert np.abs(K @ K - K).max() <= 1e-10 * max(np.abs(K).max(), 1.0)
    # index-2 count: n_inf = 2 n_p via the dense pencil oracle
    defl = PencilDeflation(sys.E.toarray(), sys.A.toarray())
    assert sys.n - defl.nf == 2 * npp
    # B, C touch only velocity unknowns
    assert sys.B[nv:, :].nnz == 0
    assert sys.C[:, nv:].nnz == 0


def test_generators_deterministic():
    a = bio.gen_semi_explicit_index1(12, 4, seed=5)
    b = bio.gen_semi_explicit_index1(12, 4, seed=5)
    assert (a.A != b.A).nnz == 0 and (a.B != b.B).nnz == 0
    s1 = bio.gen_stokes_index2(3, seed=9)
    s2 = bio.gen_stokes_index2(3, seed=9)
    assert (s1.A != s2.A).nnz == 0 and (s1.C != s2.C).nnz == 0


def test_generated_systems_pass_projector_invariants():
    for sys in (bio.gen_semi_explicit_index1(3, 2, seed=7),
                bio.gen_stokes_index2(3, seed=0)):
        kit = dm.build_projectors(sys)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(sys.n)
        pl = kit.apply_left(v)
        assert np.linalg.norm(kit.apply_left(pl) - pl) \
            <= 1e-8 * max(np.linalg.norm(pl), 1.0)


def test_roundtrip_exact(tmp_path):
    sys = bio.gen_semi_explicit_index1(10, 3, seed=1)
    mp = bio.write_system(sys, tmp_path)
    back = bio.read_system(mp)
    for key in ("E", "A", "B", "C"):
        M1 = getattr(sys, key).toarray()
        M2 = getattr(back, key).toarray()
        assert np.array_equal(M1, M2)
    assert back.structure == sys.structure


def test_matrix_market_header(tmp_path):
    sys = bio.gen_semi_explicit_index1(4, 2, seed=0)
    bio.write_system(sys, tmp_path)
    head = open(os.path.join(tmp_path, "system_A.mtx")).readline()
    assert head.startswith("%%MatrixMarket matrix coordinate real general")


def test_manifest_wrong_block_size(tmp_path):
    sys = bio.gen_semi_explicit_index1(6, 2, seed=0)
    mp = bio.write_system(sys, tmp_path)
    man = json.load(open(mp))
    man["structure"]["n1"] = 5  # E row 5 is nonzero -> violates the tag
    json.dump(man, open(mp, "w"))
    with pytest.raises(StructureViolation):
        bio.read_system(mp)


def test_manifest_missing_file_entry(tmp_path):
    sys = bio.gen_semi_explicit_index1(4, 2, seed=0)
    mp = bio.write_system(sys, tmp_path)
    man = json.load(open(mp))
    del man["files"]["B"]
    json.dump(man, open(mp, "w"))
    with pytest.raises(ParseError):
        bio.read_system(mp)


def test_manifest_bad_json_reports_position(tmp_path):
    mp = tmp_path / "manifest.json"
    mp.write_text('{"files": }')
    with pytest.raises(ParseError) as exc:
        bio.read_system(str(mp))
    assert "line" in str(exc.value) and "column" in str(exc.value)


def test_permutation_roundtrip(tmp_path):
    sys = bio.gen_semi_explicit_index1(5, 2, seed=3)
    mp = bio.write_system(sys, tmp_path)
    rng = np.random.default_rng(0)
    perm = rng.permutation(sys.n)
    inv = np.argsort(perm)
    man = json.load(open(mp))
    # write the matrices pre-scrambled, declare the inverse reordering
    import scipy.io as spio
    for key in ("E", "A"):
        M = getattr(sys, key)[perm][:, perm]
        spio.mmwrite(os.path.join(tmp_path, man["files"][key]), M)
    spio.mmwrite(os.path.join(tmp_path, man["files"]["B"]), sys.B[perm])
    spio.mmwrite(os.path.join(tmp_path, man["files"]["C"]), sys.C[:, perm])
    man["row_perm"] = inv.tolist()
    man["col_perm"] = inv.tolist()
    json.dump(man, open(mp, "w"))
    back = bio.read_system(mp)
    assert np.array_equal(back.A.toarray(), sys.A.toarray())


def test_channel_selection():
    sys = bio.gen_semi_explicit_index1(8, 2, seed=4, m=3, p=2)
    sub = bio.select_channel(sys, 1, 2)
    assert sub.m == 1 and sub.p == 1
    s = 0.3 + 1.2j
    full = dm.eval_transfer(sys, s)
    single = dm.eval_transfer(sub, s)
    assert abs(full[1, 2] - single[0, 0]) <= 1e-12 * max(abs(full[1, 2]), 1.0)
    with pytest.raises(StructureViolation):
        bio.select_channel(sys, 5, 0)


def test_read_and_channel_selection_factor_nothing(tmp_path, factor_log):
    mp = bio.write_system(
        bio.gen_semi_explicit_index1(8, 2, seed=4, m=3, p=2), tmp_path)
    del factor_log[:]
    sub = bio.select_channel(bio.read_system(mp), 1, 2)
    assert sub.m == 1 and sub.p == 1
    assert factor_log == []


def test_freq_response_csv(tmp_path):
    path = tmp_path / "fr.csv"
    omegas = np.array([0.1, 1.0, 10.0])
    vals = (1.0 / (1j * omegas + 1.0)).reshape(-1, 1, 1)
    bio.write_freq_response(path, omegas, vals)
    rows = list(csv.reader(open(path)))
    assert rows[0] == ["omega", "re", "im", "magnitude_db"]
    assert len(rows) == 4
    om, re, im, db = map(float, rows[2])
    assert om == 1.0
    assert abs(complex(re, im) - 1.0 / (1j + 1.0)) <= 1e-12
    assert abs(db - 20 * np.log10(abs(1.0 / (1j + 1.0)))) <= 1e-10


def test_h2_history_csv(tmp_path):
    path = tmp_path / "h.csv"
    bio.write_h2_history(path, [1.0, 1.5, 1.6])
    rows = list(csv.reader(open(path)))
    assert rows[0] == ["k", "norm", "rel_increase"]
    assert float(rows[2][1]) == 1.5
    assert abs(float(rows[2][2]) - (1.5 - 1.0) / 1.5) <= 1e-12


def test_rom_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    rom = RomRealization(Er=np.eye(3), Ar=-np.eye(3) + 0.1 * rng.standard_normal((3, 3)),
                         Br=rng.standard_normal((3, 1)),
                         Cr=rng.standard_normal((1, 3)))
    bio.write_rom(rom, tmp_path)
    back = bio.read_rom(tmp_path)
    for key in ("Er", "Ar", "Br", "Cr"):
        assert np.allclose(getattr(back, key), getattr(rom, key), atol=1e-12)
