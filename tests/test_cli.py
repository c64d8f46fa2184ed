import csv
import json
import os

import numpy as np
import pytest
import scipy.io as spio

from daecure import bench_io as bio
from daecure import cli
from daecure.pork import RomRealization


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


def test_h2norm_scalar_anchor(tmp_path, capsys):
    rom = RomRealization(Er=[[1.0]], Ar=[[-1.0]], Br=[[1.0]], Cr=[[1.0]])
    bio.write_rom(rom, tmp_path)
    assert run(["h2norm", str(tmp_path)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "0.7071067811865476"


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
])
def test_bad_flags_exit2_with_one_json_object(sysdir, tmp_path, capsys,
                                              argv):
    cmd, flags = argv[0], argv[1:]
    assert run([cmd, "--manifest", _manifest(sysdir), *flags,
                "--out", str(tmp_path / "res")]) == cli.EXIT_UNSUPPORTED
    err = capsys.readouterr().err.strip()
    obj = json.loads(err)          # exactly one JSON object, nothing else
    assert obj["exit_code"] == cli.EXIT_UNSUPPORTED
    assert obj["error"] == "UnsupportedInput"
    assert flags[0] in obj["message"]
    assert not (tmp_path / "res").exists()


def test_report_records_thread_cap(sysdir, tmp_path, monkeypatch):
    try:
        import threadpoolctl  # noqa: F401
        capped = True
    except ImportError:
        capped = False
    for env, want in ((None, {"requested": None, "applied": False}),
                      ("1", {"requested": 1, "applied": capped})):
        if env is None:
            monkeypatch.delenv("DAECURE_THREADS", raising=False)
        else:
            monkeypatch.setenv("DAECURE_THREADS", env)
        out = tmp_path / f"res{env}"
        assert run(["reduce", "--manifest", _manifest(sysdir),
                    "--max-steps", "1", "--out", str(out)]) == 0
        report = json.load(open(out / "report.json"))
        assert report["threads"] == want
