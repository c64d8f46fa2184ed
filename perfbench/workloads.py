"""The benchmark's workloads: how their inputs are made, which daecure
commands one operation runs, and how the outputs are checked.

Every operation starts with a ``reduce`` of one fixed generated system
(generator seed 0): the index-1 system at n1=250, n2=50, the
criterion-1 Stokes system (m=12) or the Stokes m=60 ladder point.
The benchmark seed draws a random +-1 diagonal D and the program reads
the similar system (D E D, D A D, D B, C D).  Its transfer function,
sparsity pattern and rounding are those of the seed-0 system, so one
recorded reference value per workload checks every seed, and the amount
of work does not change with the seed.
"""

import json
import math
import os
from dataclasses import dataclass

#: stagnation tolerance passed to every ``reduce``
REDUCE_TOL = "1e-6"
#: fixed bode grid: wmin, wmax, points
BODE_GRID = ("1e-2", "1e4", 40)
#: bound on the per-step interpolation residuals in report.json
INTERP_TOL = 1e-8
#: relative agreement required of an H2 norm the run recomputes
NORM_TOL = 1e-6
#: ||G_r|| may fall below the recorded reference by at most this share;
#: it may rise up to ||G|| (a better reduction is not a wrong one)
ROM_FLOOR_TOL = 1e-4


@dataclass(frozen=True)
class Workload:
    kind: str            # generator: "index1" or "stokes2"
    size: dict           # generator size arguments
    commands: tuple      # CLI commands of one operation, in order
    entry: str           # "module.function" where set-up ends
    norm_full: float     # ||G|| of the strictly proper part
    norm_rom: float      # ||G_r|| at --tol 1e-6, with one BLAS thread


# norm_full: ``daecure h2norm`` of the manifest (the dense oracle), and
# for Stokes m=60 Gauss-Legendre quadrature of |G(iw)|^2 over log w with
# a 1/w^2 tail (it matches the dense oracle to 1e-11 on the two smaller
# systems).  norm_rom: report.json of the reduction at the commit that added this
# benchmark.
WORKLOADS = {
    "index1-250-reduce": Workload(
        "index1", {"n1": 250, "n2": 50}, ("reduce",), "cure.cured_spark",
        0.12634576632763486, 0.12634574099864157),
    "stokes60-reduce": Workload(
        "stokes2", {"m": 60}, ("reduce",), "cure.cured_spark",
        5.196160775396977e-05, 3.1189115697950466e-08),
    "stokes12-verify": Workload(
        "stokes2", {"m": 12}, ("reduce", "h2norm-fom", "h2norm-rom", "bode"),
        "cure.cured_spark", 0.004426613205711504, 0.004400826218377722),
}


def manifest_path(workdir):
    return os.path.join(workdir, "system", "manifest.json")


def make_inputs(name, seed, workdir):
    """Write the workload's manifest; nothing here is timed."""
    import numpy as np
    import scipy.sparse as sps

    from daecure import bench_io as bio
    from daecure import daemodel as dm

    w = WORKLOADS[name]
    if w.kind == "index1":
        sys_ = bio.gen_semi_explicit_index1(w.size["n1"], w.size["n2"], 0)
    else:
        sys_ = bio.gen_stokes_index2(w.size["m"], 0)
    d = np.random.default_rng(seed).choice([-1.0, 1.0], size=sys_.n)
    D = sps.diags(d)
    scaled = dm.DaeSystem((D @ sys_.E @ D).tocsc(), (D @ sys_.A @ D).tocsc(),
                          (D @ sys_.B).tocsc(), (sys_.C @ D).tocsc(),
                          sys_.D, sys_.structure)
    bio.write_system(scaled, os.path.dirname(manifest_path(workdir)),
                     name=f"{name}-s{seed}")


def rom_dir(opdir):
    """The ROM an operation's ``reduce`` writes and its later commands read."""
    return os.path.join(opdir, "rom")


def command_argv(cmd, workdir, opdir):
    """The argv of one CLI command of an operation writing under opdir."""
    man = manifest_path(workdir)
    rom = rom_dir(opdir)
    if cmd == "reduce":
        return ["reduce", "--manifest", man, "--tol", REDUCE_TOL,
                "--out", rom]
    if cmd == "h2norm-fom":
        return ["h2norm", man]
    if cmd == "h2norm-rom":
        return ["h2norm", rom]
    if cmd == "bode":
        wmin, wmax, points = BODE_GRID
        return ["bode", "--manifest", man, "--rom", rom, "--wmin", wmin,
                "--wmax", wmax, "--points", str(points),
                "--out", os.path.join(opdir, "bode")]
    raise ValueError(f"unknown command {cmd!r}")


def rel_h2_error(norm_full, norm_rom):
    """sqrt(||G||^2 - ||G_r||^2) / ||G||, exact for a pseudo-optimal ROM."""
    return math.sqrt(max(norm_full ** 2 - norm_rom ** 2, 0.0)) / norm_full


def check_reduce_output(romdir, w):
    """Problems found in a reduce output directory, and ||G_r||."""
    problems = []
    try:
        with open(os.path.join(romdir, "report.json")) as fh:
            rep = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"], None
    inv = rep.get("invariants", {})
    if inv.get("stable") is not True:
        problems.append("ROM not stable")
    if inv.get("norm_history_nondecreasing") is not True:
        problems.append("norm history decreases")
    resid = inv.get("interpolation_residual_max_per_step") or [math.inf]
    if not max(resid) <= INTERP_TOL:
        problems.append(f"interpolation residual {max(resid):.3e} "
                        f"> {INTERP_TOL:g}")
    for fn in (rep.get("rom_files") or {"missing": "rom_E.mtx"}).values():
        if not os.path.isfile(os.path.join(romdir, fn)):
            problems.append(f"ROM file {fn} missing")
    if not os.path.isfile(os.path.join(romdir, "h2_history.csv")):
        problems.append("h2_history.csv missing")
    hist = rep.get("cure", {}).get("norm_history") or [0.0]
    norm = float(hist[-1])
    if not (w.norm_rom * (1 - ROM_FLOOR_TOL) <= norm
            <= w.norm_full * (1 + NORM_TOL)):
        problems.append(f"||G_r|| = {norm!r} outside "
                        f"[{w.norm_rom * (1 - ROM_FLOOR_TOL)!r}, "
                        f"{w.norm_full * (1 + NORM_TOL)!r}]")
    return problems, norm


def check_bode_output(bodedir):
    """Problems found in a bode output directory."""
    problems = []
    points = BODE_GRID[2]
    for fn in ("fom.csv", "rom.csv", "error.csv"):
        try:
            with open(os.path.join(bodedir, fn)) as fh:
                rows = fh.read().splitlines()[1:]
        except OSError:
            problems.append(f"{fn} missing")
            continue
        if len(rows) != points:
            problems.append(f"{fn}: {len(rows)} rows, expected {points}")
        try:
            ok = all(math.isfinite(float(x))
                     for row in rows for x in row.split(","))
        except ValueError:
            ok = False
        if not ok:
            problems.append(f"{fn}: non-numeric or non-finite value")
    return problems


def parse_norm(text):
    """The value ``daecure h2norm`` prints, or None."""
    try:
        val = float(text.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None
    return val if math.isfinite(val) else None


def check_operation(name, opdir, codes, outputs):
    """Check one operation's exit codes and files.

    Returns (problems, values) where values holds ``rom_h2_norm`` and
    ``rel_h2_error`` of the operation.
    """
    w = WORKLOADS[name]
    problems = [f"{cmd} exited {code}"
                for cmd, code in zip(w.commands, codes) if code != 0]
    norm_full = w.norm_full
    more, norm_rom = check_reduce_output(rom_dir(opdir), w)
    problems += more
    if "h2norm-fom" in w.commands:
        got = parse_norm(outputs[w.commands.index("h2norm-fom")])
        if got is None or abs(got - w.norm_full) > NORM_TOL * w.norm_full:
            problems.append(f"h2norm of the manifest gave {got!r}, "
                            f"reference {w.norm_full!r}")
        else:
            norm_full = got
    if "h2norm-rom" in w.commands and norm_rom is not None:
        got = parse_norm(outputs[w.commands.index("h2norm-rom")])
        if got is None or abs(got - norm_rom) > NORM_TOL * norm_rom:
            problems.append(f"h2norm of the ROM gave {got!r}, report.json "
                            f"says {norm_rom!r}")
    if "bode" in w.commands:
        problems += check_bode_output(os.path.join(opdir, "bode"))
    values = {}
    if norm_rom is not None and norm_rom > 0:
        values = {"rom_h2_norm": norm_rom,
                  "rel_h2_error": rel_h2_error(norm_full, norm_rom)}
    return problems, values
