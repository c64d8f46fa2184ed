import csv
import ctypes
import importlib
import json
import os
import platform
import subprocess
import sys
import weakref

import numpy as np
import pytest
import scipy
import scipy.io as spio
import scipy.linalg as spla
import scipy.sparse as sps

import daecure
from daecure import bench_io as bio
from daecure import cli
from daecure import cure
from daecure import daemodel as dm
from daecure import h2analysis as h2
from daecure import numkernel as nk
from daecure.pork import RomRealization

from conftest import STRUCTURE_VARIANTS


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def sysdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("sys")
    assert run(["gen", "--kind", "index1", "--n1", "40", "--n2", "8",
                "--seed", "3", "--out", str(d)]) == 0
    return d


def _manifest(d):
    return os.path.join(d, "manifest.json")


def test_gen_and_validate(sysdir):
    assert run(["validate", _manifest(sysdir)]) == 0


def test_gen_stokes_and_validate(tmp_path):
    assert run(["gen", "--kind", "stokes2", "--m", "4", "--seed", "1",
                "--out", str(tmp_path)]) == 0
    assert run(["validate", _manifest(tmp_path)]) == 0


def test_reduce_end_to_end(sysdir, tmp_path):
    out = tmp_path / "res"
    assert run(["reduce", "--manifest", _manifest(sysdir),
                "--tol", "1e-6", "--max-steps", "30",
                "--out", str(out)]) == 0
    report = json.load(open(out / "report.json"))
    k = report["cure"]["k"]
    # strictly proper part contributes 2k states, constant part one more
    assert report["orders"]["q"] == 2 * k + 1
    assert report["invariants"]["stable"]
    assert max(report["invariants"]["interpolation_residual_max_per_step"]) \
        <= 1e-8
    assert report["config"]["shifts_init"] == [1e-4, 1e-4]
    assert len(report["input_hash"]) == 64
    assert (out / "h2_history.csv").exists()
    assert (out / "rom_E.mtx").exists()


def test_reduce_reports_same_hash_for_same_input(sysdir, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert run(["reduce", "--manifest", _manifest(sysdir),
                    "--out", str(out)]) == 0
        outs.append(json.load(open(out / "report.json")))
    assert outs[0]["input_hash"] == outs[1]["input_hash"]
    assert outs[0]["cure"]["norm_history"] == outs[1]["cure"]["norm_history"]
    assert outs[0]["output_hash"] == outs[1]["output_hash"]
    written = [tmp_path / "a" / "h2_history.csv"] + [
        tmp_path / "a" / fn for fn in outs[0]["rom_files"].values()]
    assert outs[0]["output_hash"] == bio.content_hash(written)


def test_reduce_defaults_are_the_cure_config_defaults():
    args = cli.build_parser().parse_args(
        ["reduce", "--manifest", "m.json", "--out", "out"])
    cfg = cure.CureConfig()
    assert (args.tol, args.max_steps) == (cfg.tol_rel, cfg.max_steps)
    assert cli._parse_pair(args.shifts_init, float, "") \
        == (cfg.init.a, cfg.init.b)


def test_bode_row_count_and_error_column(sysdir, tmp_path):
    res = tmp_path / "res"
    assert run(["reduce", "--manifest", _manifest(sysdir),
                "--out", str(res)]) == 0
    out = tmp_path / "bode"
    assert run(["bode", "--manifest", _manifest(sysdir), "--rom", str(res),
                "--wmin", "1e-2", "--wmax", "1e2", "--points", "200",
                "--out", str(out)]) == 0
    for fn in ("fom.csv", "rom.csv", "error.csv"):
        rows = list(csv.reader(open(out / fn)))
        assert len(rows) == 201  # header + 200 points
    fom = list(csv.reader(open(out / "fom.csv")))
    assert fom[0][0] == "omega"
    assert abs(float(fom[1][0]) - 1e-2) <= 1e-12
    assert abs(float(fom[-1][0]) - 1e2) <= 1e-10


def test_bode_sweep_factors_no_order_n_pencil(tmp_path, monkeypatch):
    # a 40-point Stokes m=12 sweep (n = 431 <= DENSE_LIMIT) runs in finite
    # coordinates: its one LU is the projector build's, of the order-143
    # pressure Schur complement, and its FOM column is that of dense solves
    sys = bio.gen_stokes_index2(12, 0)
    assert sys.n <= nk.DENSE_LIMIT
    path = bio.write_system(sys, tmp_path / "sys")
    orders = []
    init = nk.ShiftedFactorization.__init__

    def counting_init(self, pencil, sigma):
        orders.append(pencil.n)
        init(self, pencil, sigma)

    monkeypatch.setattr(nk.ShiftedFactorization, "__init__", counting_init)
    out = tmp_path / "bode"
    assert run(["bode", "--manifest", path, "--wmin", "1e-2", "--wmax",
                "1e4", "--points", "40", "--out", str(out)]) == 0
    assert orders == [sys.structure.n_p]
    rows = list(csv.reader(open(out / "fom.csv")))[1:]
    A, E = sys.A.toarray(), sys.E.toarray()
    B, C = sys.B.toarray(), sys.C.toarray()
    for row in rows:
        w = float(row[0])
        want = complex((-C @ np.linalg.solve(A - 1j * w * E, B)
                        + sys.D)[0, 0])
        got = complex(float(row[1]), float(row[2]))
        assert abs(got - want) <= 1e-10 * abs(want)


def test_h2norm_scalar_anchor(tmp_path, capsys):
    rom = RomRealization(Er=[[1.0]], Ar=[[-1.0]], Br=[[1.0]], Cr=[[1.0]])
    bio.write_rom(rom, tmp_path)
    assert run(["h2norm", str(tmp_path)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "0.7071067811865476"


@pytest.fixture(scope="module")
def index1_romdir(tmp_path_factory):
    """ROM directory of the index-1 60/12 reduction; its constant-part
    block makes Er singular."""
    d = tmp_path_factory.mktemp("index1-60")
    assert run(["gen", "--kind", "index1", "--n1", "60", "--n2", "12",
                "--seed", "0", "--out", str(d / "sys")]) == 0
    assert run(["reduce", "--manifest", _manifest(d / "sys"),
                "--out", str(d / "rom")]) == 0
    return d / "rom"


def test_h2_history_rows_are_the_report_steps(index1_romdir):
    # h2_history.csv writes the norm and increase report.json records per
    # step; the ROM adds the constant part's block to the 2k CURE states
    report = json.load(open(index1_romdir / "report.json"))
    steps = report["cure"]["steps"]
    rows = list(csv.reader(open(index1_romdir / "h2_history.csv")))
    assert rows[0] == ["k", "norm", "rel_increase"]
    assert rows[1:] == [[str(st["k"]), repr(st["norm_total"]),
                         repr(st["rel_increase"])] for st in steps]
    assert [float(row[1]) for row in rows[1:]] \
        == report["cure"]["norm_history"]
    orders = report["orders"]
    assert orders["q_polynomial"] == 1
    assert orders["q"] == orders["q_strictly_proper"] + orders["q_polynomial"]
    assert orders["q_strictly_proper"] == 2 * report["cure"]["k"]


def _h2norm(target, capsys):
    """(exit code, stdout, stderr) of ``daecure h2norm target``."""
    capsys.readouterr()
    code = run(["h2norm", str(target)])
    return (code,) + tuple(capsys.readouterr())


def _refuse_qz(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("QZ reached from h2norm")

    monkeypatch.setattr(spla, "qz", refuse)
    monkeypatch.setattr(spla, "ordqz", refuse)


def test_h2norm_of_index1_rom_is_its_strictly_proper_norm(
        index1_romdir, capsys, monkeypatch):
    # the reported norm is that of the strictly proper part, the last
    # captured norm of the reduction; the SVD of Er, not QZ, finds it
    _refuse_qz(monkeypatch)
    rom = bio.read_rom(index1_romdir)
    assert np.linalg.matrix_rank(rom.Er) < rom.order
    code, out, _ = _h2norm(index1_romdir, capsys)
    assert code == 0
    val = float(out)
    report = json.load(open(index1_romdir / "report.json"))
    last = report["cure"]["norm_history"][-1]
    assert abs(val - last) <= 1e-6 * last
    assert abs(val - 0.96729177) <= 1e-8


def test_h2norm_of_rotated_index1_rom(index1_romdir, tmp_path, capsys):
    # orthogonal Q1, Q2 hide the Er = 0 block: Q1 (s Er - Ar) Q2 has the
    # same transfer function and a singular Er in no block form
    rom = bio.read_rom(index1_romdir)
    rng = np.random.default_rng(0)
    Q1, Q2 = (np.linalg.qr(rng.standard_normal((rom.order, rom.order)))[0]
              for _ in range(2))
    bio.write_rom(RomRealization(Er=Q1 @ rom.Er @ Q2, Ar=Q1 @ rom.Ar @ Q2,
                                 Br=Q1 @ rom.Br, Cr=rom.Cr @ Q2, Dr=rom.Dr),
                  tmp_path)
    val = float(_h2norm(index1_romdir, capsys)[1])
    code, out, _ = _h2norm(tmp_path, capsys)
    assert code == 0
    assert abs(float(out) - val) <= 1e-12 * val


def test_h2norm_of_index2_rom_is_numerical_error(tmp_path, capsys):
    # E = diag(1, 1, 0) and A22 = 0: a regular pencil of index 2, which
    # has no semi-explicit index-1 form
    bio.write_rom(RomRealization(
        Er=np.diag([1.0, 1.0, 0.0]),
        Ar=np.array([[-1.0, 0.0, 1.0], [0.0, -2.0, 1.0], [1.0, 1.0, 0.0]]),
        Br=np.array([[1.0], [0.0], [0.0]]), Cr=np.array([[1.0, 1.0, 0.0]])),
        tmp_path)
    code, out, err = _h2norm(tmp_path, capsys)
    assert code == cli.EXIT_NUMERICAL and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "SingularSchurComplement"


#: ||G|| of gen_semi_explicit_index1(20, 5, 0)
INDEX1_20_NORM = 0.22774946165352922


@pytest.mark.parametrize("scales, code", [
    ({"C": 1e200}, cli.EXIT_OK),
    ({"B": 1e-200}, cli.EXIT_OK),
    ({"C": 1e200, "B": 1e150}, cli.EXIT_NUMERICAL),
], ids=["C-1e200", "B-1e-200", "norm-overflows"])
def test_h2norm_of_a_scaled_manifest(scales, code, tmp_path, capsys):
    # ||G|| is printed whenever it is representable, though its square
    # overflows or underflows; a norm that is not finite is an error
    sys = bio.gen_semi_explicit_index1(20, 5, 0)
    bio.write_system(dm.DaeSystem(
        sys.E, sys.A, sys.B * scales.get("B", 1.0),
        sys.C * scales.get("C", 1.0), sys.D, sys.structure), tmp_path)
    got, out, err = _h2norm(_manifest(tmp_path), capsys)
    assert got == code
    if code == cli.EXIT_OK:
        want = INDEX1_20_NORM * scales.get("B", 1.0) * scales.get("C", 1.0)
        assert abs(float(out) - want) <= 1e-12 * want and err == ""
    else:
        lines = err.splitlines()
        assert out == "" and len(lines) == 1
        assert json.loads(lines[0])["error"] == "DaecureError"


def _reduce(manifest, out, capsys):
    """(exit code, JSON error objects on stderr, report.json) of
    ``daecure reduce``; every stderr line must be one."""
    capsys.readouterr()
    code = run(["reduce", "--manifest", str(manifest), "--out", str(out)])
    errors = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
    return code, errors, json.load(open(os.path.join(out, "report.json")))


@pytest.mark.parametrize("scales, code", [
    ({"C": 1e200}, cli.EXIT_NUMERICAL),
    ({"B": 1e-160}, cli.EXIT_OK),
], ids=["C-1e200", "B-1e-160"])
def test_reduce_fails_closed_on_a_non_finite_result(scales, code, tmp_path,
                                                     capsys):
    # C x 1e200 makes the captured norm and the certificate NaN: reduce
    # writes its report, which records the norm history as failing, then
    # exits 1 with one JSON line on stderr, naming the phase and the step
    # (numpy's overflow warnings on the way are not printed).  B x 1e-160
    # gives finite zeros, which pass every recorded invariant
    sys = bio.gen_semi_explicit_index1(20, 5, 0)
    bio.write_system(dm.DaeSystem(
        sys.E, sys.A, sys.B * scales.get("B", 1.0),
        sys.C * scales.get("C", 1.0), sys.D, sys.structure), tmp_path)
    got, errors, report = _reduce(_manifest(tmp_path), tmp_path / "rom",
                                  capsys)
    assert got == code
    history = report["cure"]["norm_history"]
    certs = report["invariants"]["interpolation_residual_max_per_step"]
    nondecreasing = report["invariants"]["norm_history_nondecreasing"]
    if code == cli.EXIT_OK:
        assert errors == [] and history == [0.0] and certs == [0.0]
        assert nondecreasing is True
    else:
        assert nondecreasing is False
        assert len(errors) == 1
        assert errors[0]["error"] == "InvariantViolation"
        assert errors[0]["message"].startswith("phase cure, step 1:")
        assert np.isnan(history).all() and np.isnan(certs).all()


def test_non_finite_reduce_prints_one_json_line(tmp_path):
    # as a process, where numpy's warnings would reach stderr: C x 1e200
    # overflows in SPARK and PORK, and stderr is the one JSON error alone
    dae = bio.gen_semi_explicit_index1(20, 5, 0)
    bio.write_system(dm.DaeSystem(dae.E, dae.A, dae.B, dae.C * 1e200, dae.D,
                                  dae.structure), tmp_path)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__),
                                                   "..", "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "daecure.cli", "reduce", "--manifest",
         _manifest(tmp_path), "--out", str(tmp_path / "rom")],
        env=env, capture_output=True, text=True, timeout=120)
    lines = proc.stderr.splitlines()
    assert proc.returncode == cli.EXIT_NUMERICAL
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"] == "InvariantViolation"


@pytest.mark.parametrize("spoil", ["certificate", "decrease", "unstable"])
def test_reduce_fails_closed_on_each_recorded_invariant(
        spoil, sysdir, tmp_path, capsys, monkeypatch):
    # a certificate above 1e-8 or a norm below its predecessor fails its
    # step, and an unstable total model the last step, after report.json
    # is written; the run takes two steps
    cured_spark = cli.curemod.cured_spark

    def spoiled(ds, cfg):
        report, ledger = cured_spark(ds, cfg)
        if spoil == "certificate":
            ledger.records[0].interp_residual = 1e-6
        elif spoil == "decrease":
            report["norm_history"][1] = report["norm_history"][0] / 2
        else:
            monkeypatch.setattr(RomRealization, "poles",
                                lambda rom: np.array([1.0]))
        return report, ledger

    monkeypatch.setattr(cli.curemod, "cured_spark", spoiled)
    got, errors, report = _reduce(_manifest(sysdir), tmp_path / "rom",
                                  capsys)
    k = {"certificate": 1, "decrease": 2}.get(spoil, report["cure"]["k"])
    assert report["cure"]["k"] >= 2
    assert got == cli.EXIT_NUMERICAL and len(errors) == 1
    assert errors[0]["error"] == "InvariantViolation"
    assert errors[0]["message"].startswith(f"phase cure, step {k}:")


@pytest.mark.parametrize("ar, code, error", [
    (-1.0, cli.EXIT_OK, None),
    (0.0, cli.EXIT_NUMERICAL, "SingularSchurComplement"),
], ids=["regular", "not-regular"])
def test_h2norm_of_rom_with_zero_er(ar, code, error, tmp_path, capsys):
    # Er = 0: the strictly proper part is zero if the pencil is regular,
    # and Ar = 0 makes det(s Er - Ar) vanish identically
    bio.write_rom(RomRealization(Er=[[0.0]], Ar=[[ar]], Br=[[1.0]],
                                 Cr=[[1.0]]), tmp_path)
    got, out, err = _h2norm(tmp_path, capsys)
    assert got == code
    if error is None:
        assert out.strip() == "0.0" and err == ""
    else:
        assert out == "" and json.loads(err)["error"] == error


def test_h2norm_of_rom_above_dense_limit(tmp_path, capsys):
    # the size limit guards the densification of a sparse system only
    lam = np.arange(1.0, nk.DENSE_LIMIT + 2)
    n = lam.size
    bio.write_rom(RomRealization(Er=np.eye(n), Ar=-np.diag(lam),
                                 Br=np.ones((n, 1)), Cr=np.ones((1, n))),
                  tmp_path)
    code, out, _ = _h2norm(tmp_path, capsys)
    # [DERIVED] ||sum_i 1/(s + lam_i)||^2 = sum_ij 1/(lam_i + lam_j)
    expected = np.sqrt(np.sum(1.0 / (lam[:, None] + lam[None, :])))
    assert code == 0
    assert abs(float(out) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("fixture", STRUCTURE_VARIANTS)
def test_h2norm_of_manifest_factors_only_saddle_points(
        fixture, request, tmp_path, capsys, monkeypatch, factor_log):
    sys = request.getfixturevalue(fixture)
    expected = h2.h2_norm(sys)
    path = bio.write_system(sys, tmp_path)
    _refuse_qz(monkeypatch)
    del factor_log[:]
    capsys.readouterr()
    assert run(["h2norm", path]) == 0
    assert float(capsys.readouterr().out) == expected
    # one saddle-point LU for the transfer split and the projectors
    assert factor_log == [0.0]


#: an entry of a block the structure tag declares zero: the generator,
#: the matrix, and the entry's place relative to (n_v or n1, n_v or n1)
ZERO_BLOCK_ENTRIES = {
    "stokes-E-pressure-row": (lambda: bio.gen_stokes_index2(4, 1), "E",
                              (0, -1)),
    "index1-E-algebraic-row": (lambda: bio.gen_semi_explicit_index1(
        20, 5, 0), "E", (0, -1)),
    "stokes-A22": (lambda: bio.gen_stokes_index2(4, 1), "A", (0, 0)),
}


@pytest.mark.parametrize("value, code", [(0.0, cli.EXIT_OK),
                                         (1.0, cli.EXIT_UNSUPPORTED)])
@pytest.mark.parametrize("block", sorted(ZERO_BLOCK_ENTRIES))
def test_structural_zero_blocks_are_checked_by_value(block, value, code,
                                                     tmp_path, capsys):
    # a zero block may store explicit zeros; a stored nonzero breaks it
    gen, key, (di, dj) = ZERO_BLOCK_ENTRIES[block]
    sys = gen()
    tag = sys.structure
    k = tag.n1 if isinstance(tag, dm.SemiExplicitIndex1) else tag.n_v
    path = bio.write_system(sys, tmp_path)
    _, plain, _ = _h2norm(path, capsys)
    mat = getattr(sys, key).tocoo()
    stored = sps.coo_matrix((np.append(mat.data, value),
                             (np.append(mat.row, k + di),
                              np.append(mat.col, k + dj))), shape=mat.shape)
    name = json.load(open(path))["files"][key]
    spio.mmwrite(str(tmp_path / name), stored, symmetry="general")
    assert spio.mmread(str(tmp_path / name)).nnz == mat.nnz + 1
    got, out, err = _h2norm(path, capsys)
    assert got == code
    if code == cli.EXIT_OK:
        assert float(out) == float(plain)
    else:
        assert json.loads(err)["error"] == "StructureViolation"


def test_refused_h2norm_of_manifest_factors_nothing(tmp_path, capsys,
                                                    factor_log):
    path = bio.write_system(bio.gen_stokes_index2(60, seed=0), tmp_path)
    capsys.readouterr()
    assert run(["h2norm", path]) == cli.EXIT_UNSUPPORTED
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == "DeskScaleExceeded"
    assert factor_log == []


def test_missing_manifest_is_io_error(capsys):
    assert run(["h2norm", "/nonexistent/manifest.json"]) == cli.EXIT_IO
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == cli.EXIT_IO


def test_unsupported_polynomial_part_exit2(tmp_path, capsys):
    sys = bio.gen_stokes_index2(3, seed=0)
    mp = bio.write_system(sys, tmp_path)
    # a nonzero feedthrough on the index-2 class is improper
    spio.mmwrite(os.path.join(tmp_path, "D.mtx"), np.array([[1.0]]))
    man = json.load(open(mp))
    man["files"]["D"] = "D.mtx"
    json.dump(man, open(mp, "w"))
    assert run(["reduce", "--manifest", mp,
                "--out", str(tmp_path / "res")]) == cli.EXIT_UNSUPPORTED
    err = json.loads(capsys.readouterr().err.strip())
    assert err["message"] == "Unsupported polynomial part"


@pytest.mark.parametrize("sizes", [{"n": 26}, {"m": 3}, {"p": 7},
                                   {"m": 3, "p": 7}])
@pytest.mark.parametrize("command", ["h2norm", "reduce"])
def test_declared_size_mismatch_exit2(tmp_path, capsys, command, sizes):
    # the manifest declares more states, inputs or outputs than E, B and C
    # hold
    mp = bio.write_system(bio.gen_semi_explicit_index1(20, 5, seed=0),
                          tmp_path / "sys")
    json.dump({**json.load(open(mp)), **sizes}, open(mp, "w"))
    out = str(tmp_path / "out")
    argv = {"h2norm": ["h2norm", mp],
            "reduce": ["reduce", "--manifest", mp, "--out", out]}[command]
    capsys.readouterr()
    assert run(argv) == cli.EXIT_UNSUPPORTED
    std = capsys.readouterr()
    obj = json.loads(std.err)          # exactly one JSON object
    assert obj["error"] == "StructureViolation"
    assert f"declares {next(iter(sizes))} = " in obj["message"]
    assert std.out == "" and not os.path.exists(out)


@pytest.mark.parametrize("n2, code", [(5, cli.EXIT_OK), (5.0, cli.EXIT_OK),
                                      (999, cli.EXIT_UNSUPPORTED),
                                      (4, cli.EXIT_UNSUPPORTED)])
@pytest.mark.parametrize("command", ["validate", "reduce"])
def test_declared_n2_must_be_n_minus_n1(tmp_path, capsys, command, n2,
                                        code):
    # an index-1 manifest may declare n2, the algebraic row count; one
    # that E does not have is refused like a declared n, m or p
    mp = bio.write_system(bio.gen_semi_explicit_index1(20, 5, seed=0),
                          tmp_path / "sys")
    man = json.load(open(mp))
    json.dump({**man, "structure": {**man["structure"], "n2": n2}},
              open(mp, "w"))
    out = str(tmp_path / "out")
    argv = {"validate": ["validate", mp],
            "reduce": ["reduce", "--manifest", mp, "--out", out]}[command]
    capsys.readouterr()
    assert run(argv) == code
    if code == cli.EXIT_OK:
        return
    std = capsys.readouterr()
    obj = json.loads(std.err)          # exactly one JSON object
    assert obj["error"] == "StructureViolation"
    assert obj["message"] == (f"manifest declares structure.n2 = {n2} but "
                              "n - n1 = 5")
    assert std.out == "" and not os.path.exists(out)

@pytest.mark.parametrize("perm", [None, "row_perm", "col_perm"])
@pytest.mark.parametrize("shapes", [{"E": (8, 9), "A": (8, 9)},
                                    {"B": (9, 1)}],
                         ids=["pencil-8x9", "B-9-rows"])
@pytest.mark.parametrize("command", ["h2norm", "reduce"])
def test_nonconformal_blocks_exit2_whether_or_not_permuted(
        tmp_path, capsys, command, shapes, perm):
    # a permutation of the 8 states must not cut a ninth column or row
    # off; without one, the shape check of the system refuses them too
    sys = bio.gen_semi_explicit_index1(6, 2, seed=0)
    mp = bio.write_system(sys, tmp_path / "sys")
    for key, shape in shapes.items():
        mat, block = sps.lil_matrix(shape), getattr(sys, key)
        mat[:block.shape[0], :block.shape[1]] = block
        spio.mmwrite(str(tmp_path / "sys" / f"system_{key}.mtx"),
                     mat.tocsc())
    if perm is not None:
        # swap two differential states: the structure stays valid
        json.dump({**json.load(open(mp)), perm: [1, 0] + list(range(2, 8))},
                  open(mp, "w"))
    out = str(tmp_path / "out")
    argv = {"h2norm": ["h2norm", mp],
            "reduce": ["reduce", "--manifest", mp, "--out", out]}[command]
    capsys.readouterr()
    assert run(argv) == cli.EXIT_UNSUPPORTED
    std = capsys.readouterr()
    obj = json.loads(std.err)          # exactly one JSON object
    assert obj["error"] == "StructureViolation"
    assert std.out == "" and not os.path.exists(out)


def test_index2_pencil_tagged_index1_is_numerical_error(tmp_path, capsys):
    mp = bio.write_system(bio.gen_stokes_index2(3, seed=0), tmp_path)
    man = json.load(open(mp))
    man["structure"] = {"kind": "semi_explicit_index1",
                        "n1": man["structure"]["n_v"]}
    json.dump(man, open(mp, "w"))
    assert run(["reduce", "--manifest", mp,
                "--out", str(tmp_path / "res")]) == cli.EXIT_NUMERICAL
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "SingularSchurComplement"


def test_non_regular_pencil_fails_with_typed_error(tmp_path, capsys):
    # det(sE - A) = 0 for every s: E = diag(1, 0), A = diag(-1, 0)
    sys = dm.DaeSystem(sps.diags([1.0, 0.0]), sps.diags([-1.0, 0.0]),
                       np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)),
                       dm.SemiExplicitIndex1(1))
    mp = bio.write_system(sys, tmp_path)
    for argv, error in (
            (["reduce", "--manifest", mp, "--out", str(tmp_path / "r")],
             "SingularSchurComplement"),
            (["validate", mp], "SingularSchurComplement"),
            (["h2norm", mp], "SingularSchurComplement"),
            (["bode", "--manifest", mp, "--wmin", "1e-2", "--wmax", "1e2",
              "--points", "5", "--out", str(tmp_path / "b")],
             "SingularSchurComplement")):
        assert run(argv) == cli.EXIT_NUMERICAL
        obj = json.loads(capsys.readouterr().err.strip())
        assert obj["error"] == error and obj["exit_code"] == cli.EXIT_NUMERICAL


INDEX1 = {"kind": "semi_explicit_index1"}


@pytest.mark.parametrize("command", ["validate", "bode", "reduce", "h2norm"])
@pytest.mark.parametrize("edit", [
    lambda man: {**man, "structure": INDEX1},
    lambda man: {**man, "structure": {**INDEX1, "n1": "eight"}},
    lambda man: {**man, "structure": {**INDEX1, "n1": 7.5}},
    lambda man: {**man, "n": "many"},
    lambda man: {**man, "row_perm": ["x"] + list(range(1, man["n"]))},
    lambda man: {**man, "files": {**man["files"], "E": 5}},
    lambda man: [man],
    lambda man: {**man, "structure": {"kind": []}},
    lambda man: {**man, "files": {**man["files"], "X": "missing.mtx"}},
], ids=["no-n1", "n1-text", "n1-fraction", "n-text", "row-perm-text",
        "file-not-a-name", "top-level-list", "kind-not-a-string",
        "unknown-file-key"])
def test_malformed_manifest_field_is_parse_error(tmp_path, capsys, command,
                                                 edit):
    mp = bio.write_system(bio.gen_stokes_index2(4, seed=1), tmp_path)
    json.dump(edit(json.load(open(mp))), open(mp, "w"))
    out = str(tmp_path / "out")
    argv = {"validate": ["validate", mp],
            "bode": ["bode", "--manifest", mp, "--wmin", "1e-2",
                     "--wmax", "1e2", "--out", out],
            "reduce": ["reduce", "--manifest", mp, "--out", out],
            "h2norm": ["h2norm", mp]}[command]
    assert run(argv) == cli.EXIT_IO
    obj = json.loads(capsys.readouterr().err.strip())
    assert obj["error"] == "ParseError" and obj["exit_code"] == cli.EXIT_IO
    assert not os.path.exists(out)


def test_general_dense_manifest_is_parse_error(sysdir, tmp_path, capsys):
    man = json.load(open(_manifest(sysdir)))
    man["structure"] = {"kind": "general_dense"}
    man["files"] = {k: os.path.join(sysdir, v)
                    for k, v in man["files"].items()}
    mp = tmp_path / "manifest.json"
    json.dump(man, open(mp, "w"))
    assert run(["h2norm", str(mp)]) == cli.EXIT_IO
    err = json.loads(capsys.readouterr().err.strip())
    assert err["exit_code"] == cli.EXIT_IO
    assert "general_dense" in err["message"]


def _with_block(d, key, shape):
    """Index-1 20/5 with an empty ``key`` block of ``shape`` and no
    declared sizes."""
    mp = bio.write_system(bio.gen_semi_explicit_index1(20, 5, seed=0), d)
    man = json.load(open(mp))
    spio.mmwrite(os.path.join(d, man["files"][key]), sps.csc_matrix(shape))
    json.dump({k: v for k, v in man.items() if k not in ("n", "m", "p")},
              open(mp, "w"))
    return mp


def _stokes_tag_without_pressure(d):
    # a stable ODE, x' = -diag(1..6) x, tagged Stokes with n_p = 0
    n = 6
    ode = dm.DaeSystem(sps.eye(n), sps.diags(-np.arange(1.0, n + 1)),
                       np.ones((n, 1)), np.ones((1, n)), np.zeros((1, 1)),
                       dm.SemiExplicitIndex1(n))
    mp = bio.write_system(ode, d)
    json.dump({**json.load(open(mp)), "structure": {
        "kind": "stokes_index2", "n_v": n, "n_p": 0}}, open(mp, "w"))
    return mp


@pytest.mark.parametrize("make", [
    lambda d: _with_block(d, "B", (25, 0)),
    lambda d: _with_block(d, "C", (0, 25)),
    _stokes_tag_without_pressure,
], ids=["no-inputs", "no-outputs", "stokes-n_p-0"])
@pytest.mark.parametrize("command", ["h2norm", "bode", "validate", "reduce"])
def test_degenerate_system_exits2_with_one_json_object(tmp_path, capsys,
                                                       command, make):
    mp = make(tmp_path / "sys")
    out = str(tmp_path / "out")
    argv = {"h2norm": ["h2norm", mp],
            "bode": ["bode", "--manifest", mp, "--wmin", "1e-2",
                     "--wmax", "1e2", "--out", out],
            "validate": ["validate", mp],
            "reduce": ["reduce", "--manifest", mp, "--out", out]}[command]
    capsys.readouterr()
    assert run(argv) == cli.EXIT_UNSUPPORTED
    std = capsys.readouterr()
    obj = json.loads(std.err)          # exactly one JSON object
    assert obj["error"] == "StructureViolation"
    assert obj["exit_code"] == cli.EXIT_UNSUPPORTED
    assert std.out == "" and not os.path.exists(out)


def _spoil(mat, value):
    """``mat`` as a CSC matrix whose first stored entry is ``value``."""
    mat = sps.csc_matrix(mat, dtype=type(value))
    mat.data[0] = value
    return mat


@pytest.mark.parametrize("key, value", [
    ("C", np.nan), ("A", np.inf), ("A", -1.0 + 1j),
], ids=["nan-in-C", "inf-in-A", "complex-A"])
@pytest.mark.parametrize("command", ["reduce", "h2norm", "bode", "validate"])
def test_invalid_matrix_entries_exit2_before_factoring(
        tmp_path, capsys, factor_log, command, key, value):
    sys = bio.gen_semi_explicit_index1(20, 5, seed=0)
    mp = bio.write_system(sys, tmp_path / "sys")
    spio.mmwrite(str(tmp_path / "sys" / f"system_{key}.mtx"),
                 _spoil(getattr(sys, key), value))
    out = str(tmp_path / "out")
    argv = {"reduce": ["reduce", "--manifest", mp, "--out", out],
            "h2norm": ["h2norm", mp],
            "bode": ["bode", "--manifest", mp, "--wmin", "1e-2",
                     "--wmax", "1e2", "--out", out],
            "validate": ["validate", mp]}[command]
    capsys.readouterr()
    assert run(argv) == cli.EXIT_UNSUPPORTED
    std = capsys.readouterr()
    obj = json.loads(std.err)          # exactly one JSON object
    assert obj["error"] == "InvalidEntries"
    assert obj["exit_code"] == cli.EXIT_UNSUPPORTED
    assert std.out == "" and factor_log == []
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["h2norm", "bode"])
def test_complex_rom_entry_exit2(sysdir, tmp_path, capsys, command):
    rom = RomRealization(Er=[[1.0]], Ar=[[-1.0]], Br=[[1.0]], Cr=[[1.0]])
    bio.write_rom(rom, tmp_path / "rom")
    spio.mmwrite(str(tmp_path / "rom" / "rom_C.mtx"), np.array([[1.0 + 2j]]))
    out = str(tmp_path / "out")
    argv = {"h2norm": ["h2norm", str(tmp_path / "rom")],
            "bode": ["bode", "--manifest", _manifest(sysdir), "--rom",
                     str(tmp_path / "rom"), "--wmin", "1e-2", "--wmax",
                     "1e2", "--out", out]}[command]
    capsys.readouterr()
    assert run(argv) == cli.EXIT_UNSUPPORTED
    obj = json.loads(capsys.readouterr().err)
    assert obj["error"] == "InvalidEntries"
    assert "complex" in obj["message"]
    assert not os.path.exists(out)


@pytest.mark.parametrize("key, shape", [("E", (3, 4)), ("D", (2, 3))],
                         ids=["Er-3x4", "Dr-2x3"])
@pytest.mark.parametrize("command", ["h2norm", "bode"])
def test_rom_block_of_wrong_shape_exit2(sysdir, tmp_path, capsys, command,
                                        key, shape):
    # Er must be square and Dr p x m, here 1 x 1
    rom = RomRealization(Er=np.eye(3), Ar=-np.diag([1.0, 2.0, 3.0]),
                         Br=np.ones((3, 1)), Cr=np.ones((1, 3)))
    bio.write_rom(rom, tmp_path / "rom")
    spio.mmwrite(str(tmp_path / "rom" / f"rom_{key}.mtx"), np.ones(shape))
    out = str(tmp_path / "out")
    argv = {"h2norm": ["h2norm", str(tmp_path / "rom")],
            "bode": ["bode", "--manifest", _manifest(sysdir), "--rom",
                     str(tmp_path / "rom"), "--wmin", "1e-2", "--wmax",
                     "1e2", "--out", out]}[command]
    capsys.readouterr()
    assert run(argv) == cli.EXIT_UNSUPPORTED
    std = capsys.readouterr()
    obj = json.loads(std.err)          # exactly one JSON object
    assert obj["error"] == "DimensionMismatch"
    assert std.out == "" and not os.path.exists(out)


def test_mimo_without_channel_exit2(tmp_path, capsys):
    sys = bio.gen_semi_explicit_index1(10, 3, seed=0, m=2, p=2)
    mp = bio.write_system(sys, tmp_path)
    assert run(["reduce", "--manifest", mp,
                "--out", str(tmp_path / "res")]) == cli.EXIT_UNSUPPORTED
    capsys.readouterr()


def test_mimo_with_channel_selection(tmp_path):
    sys = bio.gen_semi_explicit_index1(10, 3, seed=0, m=2, p=2)
    mp = bio.write_system(sys, tmp_path)
    assert run(["reduce", "--manifest", mp, "--channel", "1,0",
                "--out", str(tmp_path / "res")]) == 0


def test_bad_shifts_init_is_io_error(sysdir, tmp_path, capsys):
    assert run(["reduce", "--manifest", _manifest(sysdir),
                "--shifts-init", "nope",
                "--out", str(tmp_path / "res")]) == cli.EXIT_IO
    capsys.readouterr()


@pytest.mark.parametrize("channel", ["1", "a,b", "0,1,0"])
@pytest.mark.parametrize("command", ["reduce", "bode"])
def test_bad_channel_is_io_error(sysdir, tmp_path, capsys, command,
                                 channel):
    out = str(tmp_path / "res")
    flags = ["--wmin", "1e-2", "--wmax", "1e2"] if command == "bode" else []
    assert run([command, "--manifest", _manifest(sysdir),
                "--channel", channel, *flags, "--out", out]) == cli.EXIT_IO
    obj = json.loads(capsys.readouterr().err.strip())
    assert obj["error"] == "ParseError"
    assert obj["message"] == "--channel must be 'out_idx,in_idx' (0-based)"
    assert not os.path.exists(out)


def test_bode_with_rom_of_other_channel_count_fails_first(
        sysdir, tmp_path, capsys, factor_log):
    # a 2-output ROM against a SISO system: refused before any frequency
    # point is factored or any file is written
    rom = tmp_path / "rom"
    bio.write_rom(RomRealization(Er=np.eye(1), Ar=[[-1.0]], Br=[[1.0]],
                                 Cr=[[1.0], [2.0]]), rom)
    out = tmp_path / "bode"
    assert run(["bode", "--manifest", _manifest(sysdir), "--rom", str(rom),
                "--wmin", "1e-2", "--wmax", "1e2", "--out", str(out)]) \
        == cli.EXIT_UNSUPPORTED
    obj = json.loads(capsys.readouterr().err.strip())
    assert obj["error"] == "UnsupportedInput"
    assert factor_log == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["reduce", "bode"])
def test_out_naming_a_file_fails_before_the_reduction_or_sweep(
        sysdir, tmp_path, capsys, monkeypatch, command):
    # --out is made as soon as the input is read and checked, so a file
    # in its place exits 3 before the reduction or the frequency sweep
    # starts, and the file is left as it was
    entered = []
    monkeypatch.setattr(cure, "cured_spark",
                        lambda *args: entered.append("cured_spark"))
    monkeypatch.setattr(cli, "_bode_eval",
                        lambda *args: entered.append("sweep"))
    out = tmp_path / "afile"
    out.write_bytes(b"not a directory\n")
    flags = ["--wmin", "1e-2", "--wmax", "1e2"] if command == "bode" else []
    assert run([command, "--manifest", _manifest(sysdir), *flags,
                "--out", str(out)]) == cli.EXIT_IO
    std = capsys.readouterr()
    obj = json.loads(std.err)          # exactly one JSON object
    assert obj["error"] == "FileExistsError"
    assert obj["exit_code"] == cli.EXIT_IO
    assert entered == [] and std.out == ""
    assert out.read_bytes() == b"not a directory\n"

@pytest.mark.parametrize("argv", [
    ["reduce", "--max-steps", "0"],
    ["reduce", "--max-steps", "-3"],
    ["reduce", "--tol", "-1"],
    ["reduce", "--tol", "nan"],
    ["reduce", "--tol", "inf"],
    ["reduce", "--shifts-init", "0,1"],
    ["reduce", "--shifts-init", "1,-1"],
    ["reduce", "--shifts-init", "inf,1"],
    ["reduce", "--shifts-init", "nan,1"],
    ["bode", "--wmin", "0", "--wmax", "1e2"],
    ["bode", "--wmin", "-1", "--wmax", "1e2"],
    ["bode", "--wmin", "1e2", "--wmax", "1e2"],
    ["bode", "--wmin", "1e3", "--wmax", "1e2"],
    ["bode", "--wmin", "1e-2", "--wmax", "inf"],
    ["reduce", "--max-steps", "two"],
    ["reduce", "--shifts-init", "-1,1"],
    ["reduce", "--no-such-flag"],
    [],
    ["reduce", "--shifts-init", "1e300,1e300"],
    ["reduce", "--shifts-init", "1e-300,1e-300"],
])
def test_bad_flags_exit2_with_one_json_object(sysdir, tmp_path, capsys,
                                              argv):
    # an empty argv has no subcommand, which argparse calls "command"
    cmd, flags = (argv[0], argv[1:]) if argv else (None, ["command"])
    full = [cmd, "--manifest", _manifest(sysdir), *flags,
            "--out", str(tmp_path / "res")] if cmd else []
    assert run(full) == cli.EXIT_UNSUPPORTED
    err = capsys.readouterr().err.strip()
    obj = json.loads(err)          # exactly one JSON object, nothing else
    assert obj["exit_code"] == cli.EXIT_UNSUPPORTED
    assert obj["error"] == "UnsupportedInput"
    assert flags[0] in obj["message"]
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("kind", [
    ["--kind", "index1", "--n1", "5", "--n2", "2"],
    ["--kind", "stokes2", "--m", "4"],
], ids=["index1", "stokes2"])
def test_gen_negative_seed_exit2_with_one_json_object(tmp_path, capsys,
                                                      kind):
    out = tmp_path / "sys"
    assert run(["gen", *kind, "--seed", "-1", "--out", str(out)]) \
        == cli.EXIT_UNSUPPORTED
    captured = capsys.readouterr()
    obj = json.loads(captured.err.strip())
    assert obj["exit_code"] == cli.EXIT_UNSUPPORTED
    assert obj["error"] == "UnsupportedInput"
    assert "--seed" in obj["message"]
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["reduce", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    out = capsys.readouterr()
    assert "usage: daecure" in out.out and out.err == ""


def test_report_records_thread_cap(sysdir, tmp_path, monkeypatch):
    for env in (None, "1"):
        for var in cli.THREAD_VARS:
            if env is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, env)
        out = tmp_path / f"res{env}"
        assert run(["reduce", "--manifest", _manifest(sysdir),
                    "--max-steps", "1", "--out", str(out)]) == 0
        report = json.load(open(out / "report.json"))
        assert report["threads"] == {"OMP_NUM_THREADS": env,
                                     "OPENBLAS_NUM_THREADS": env,
                                     "MKL_NUM_THREADS": env}


def test_report_records_versions_and_openblas_threads(sysdir, tmp_path,
                                                     monkeypatch):
    # the count is the one OpenBLAS applies: numpy's copy is set to one
    # thread for the run (and restored); a getter not found is null
    module, getter = cli.OPENBLAS_GETTERS["numpy"]
    lib = ctypes.CDLL(importlib.import_module(module).__file__)
    get = getattr(lib, getter)
    set_ = getattr(lib, getter.replace("_get_", "_set_"))
    get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
    before = get()
    monkeypatch.setitem(cli.OPENBLAS_GETTERS, "scipy",
                        ("scipy.linalg._fblas", "no_such_getter"))
    set_(1)
    try:
        out = tmp_path / "res"
        assert run(["reduce", "--manifest", _manifest(sysdir),
                    "--max-steps", "1", "--out", str(out)]) == 0
    finally:
        set_(before)
    report = json.load(open(out / "report.json"))
    assert report["openblas_threads"] == {"numpy": 1, "scipy": None}
    assert report["versions"] == {"python": platform.python_version(),
                                  "numpy": np.__version__,
                                  "scipy": scipy.__version__,
                                  "daecure": daecure.__version__}


@pytest.mark.parametrize("fixture", ["index1_small", "stokes_small"])
def test_validate_factors_saddle_and_one_shift(fixture, request, tmp_path,
                                               factor_log):
    path = bio.write_system(request.getfixturevalue(fixture), tmp_path)
    assert run(["validate", path]) == 0
    assert factor_log == [0.0, 2.17 + 0.3j]


@pytest.mark.parametrize("fixture, split_solves",
                         [("index1_small", 1), ("stokes_small", 2)])
def test_reduce_solves_each_saddle_rhs_once(fixture, split_solves, request,
                                            tmp_path, lu_solves, monkeypatch):
    # the regularity check, then one solve per distinct right-hand side of
    # the transfer split: M^-1 [0; B2] (index 1), or K^-1 [0; B2] and
    # K^-1 [B1 - A11 x_b; 0] (Stokes)
    saddle = []
    init = nk.ShiftedFactorization.__init__

    def log_saddle_apart(self, pencil, sigma):
        init(self, pencil, sigma)
        # only the saddle-point LU has E = 0; a surrogate's E is dense
        if sps.issparse(pencil.E) and pencil.E.nnz == 0:
            self._lu.log = saddle

    monkeypatch.setattr(nk.ShiftedFactorization, "__init__",
                        log_saddle_apart)
    path = bio.write_system(request.getfixturevalue(fixture), tmp_path)
    assert run(["reduce", "--manifest", path, "--max-steps", "1",
                "--out", str(tmp_path / "rom")]) == 0
    assert len(saddle) == 1 + split_solves


def test_saddle_factorization_freed_before_cure(sysdir, tmp_path,
                                                monkeypatch):
    refs, alive = [], []
    factor_saddle = dm._factor_saddle
    cured_spark = cure.cured_spark

    def tracked(*blocks):
        fac = factor_saddle(*blocks)
        refs.append(weakref.ref(fac))
        return fac

    def entry(*args, **kwargs):
        alive.extend(ref() is not None for ref in refs)
        return cured_spark(*args, **kwargs)

    monkeypatch.setattr(dm, "_factor_saddle", tracked)
    monkeypatch.setattr(cure, "cured_spark", entry)
    assert run(["reduce", "--manifest", _manifest(sysdir), "--max-steps", "1",
                "--out", str(tmp_path / "rom")]) == 0
    assert alive == [False]


#: prints whether the CLI pinned the malloc thresholds and how many bytes
#: a 5 MiB block added to the mapped total after a 16 MiB mapped block was
#: freed (which, unpinned, lifts glibc's threshold above 5 MiB)
MAPPED_PROBE = """
import ctypes
from daecure import cli

class MallInfo2(ctypes.Structure):
    _fields_ = [(n, ctypes.c_size_t) for n in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]

pinned = cli.pin_malloc_thresholds()
libc = ctypes.CDLL(None)
libc.malloc.restype = ctypes.c_void_p
libc.free.argtypes = [ctypes.c_void_p]
libc.mallinfo2.restype = MallInfo2
libc.free(libc.malloc(16 << 20))
before = libc.mallinfo2().hblkhd
block = libc.malloc(5 << 20)
print(pinned, libc.mallinfo2().hblkhd - before)
libc.free(block)
"""


def _mapped_probe(**env):
    full = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    full.update(env, PYTHONPATH=os.path.join(os.path.dirname(__file__),
                                             "..", "src"))
    proc = subprocess.run([sys.executable, "-c", MAPPED_PROBE], env=full,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        pytest.skip(f"no glibc mallinfo2: {proc.stderr.strip()[-200:]}")
    pinned, grown = proc.stdout.split()
    return pinned == "True", int(grown)


def test_pinned_malloc_maps_large_blocks_after_a_larger_free():
    pinned, grown = _mapped_probe()
    if not pinned:
        pytest.skip("malloc thresholds are pinned on glibc only")
    assert grown >= 5 << 20


def test_malloc_threshold_from_environment_is_kept():
    pinned, _ = _mapped_probe(MALLOC_MMAP_THRESHOLD_=str(64 << 20))
    assert not pinned


def test_main_reads_matrix_market_with_one_thread(sysdir, monkeypatch):
    fmm = pytest.importorskip("scipy.io._fast_matrix_market")
    monkeypatch.setattr(fmm, "PARALLELISM", 0)     # scipy's default: all
    assert run(["validate", _manifest(sysdir)]) == 0
    assert fmm.PARALLELISM == 1


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize adds about 17 MB to the peak RSS of every command;
    # no daecure module needs it
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__),
                                                   "..", "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, daecure, daecure.cli; "
         "print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
