"""Command-line frontend.

Pipeline for ``reduce``: load system -> build structured projectors ->
split off the polynomial part -> cumulative shift-pair reduction of the
strictly proper part -> realize the constant polynomial part -> combine
block-diagonally -> write ROM files, H2 history and a JSON report.

Exit codes: 0 ok, 1 numerical failure, 2 unsupported input, 3 I/O error.
"""

import argparse
import json
import os
import sys as _sys

import numpy as np

from . import bench_io as bio
from . import cure as curemod
from . import daemodel as dm
from . import h2analysis as h2
from . import spark as sparkmod
from .errors import (
    DaecureError,
    DeskScaleExceeded,
    DimensionMismatch,
    ParseError,
    StructureViolation,
)
from .interp import DeflatedSystem
from .pork import RomRealization, check_interpolation

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_UNSUPPORTED = 2
EXIT_IO = 3


class UnsupportedInput(DaecureError):
    pass


def _thread_request():
    """The DAECURE_THREADS value as a positive int, or None."""
    try:
        return max(1, int(os.environ["DAECURE_THREADS"]))
    except (KeyError, ValueError):
        return None


def _cap_threads():
    """Cap the BLAS thread pools at DAECURE_THREADS; returns whether a cap
    was applied.  That takes threadpoolctl: once numpy has loaded its
    BLAS, setting OMP_*/OPENBLAS_* variables no longer changes anything.
    """
    limit = _thread_request()
    if limit is None:
        return False
    try:
        import threadpoolctl
    except ImportError:
        return False
    threadpoolctl.threadpool_limits(limits=limit)
    return True


def _parse_pair(text, what):
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"{what} must be two comma-separated numbers")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ParseError(f"{what} must be two comma-separated numbers")


def _parse_channel(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("--channel must be 'out_idx,in_idx' (0-based)")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("--channel must be 'out_idx,in_idx' (0-based)")


def _load_siso(args):
    sys = bio.read_system(args.manifest)
    if getattr(args, "channel", None):
        out_idx, in_idx = _parse_channel(args.channel)
        sys = bio.select_channel(sys, out_idx, in_idx)
    return sys


def _combine(total: RomRealization, poly: RomRealization | None):
    """Block-diagonal combination of the strictly proper ROM and the
    polynomial-part realization."""
    if poly is None or poly.order == 0:
        return total
    q1, q2 = total.order, poly.order
    E = np.zeros((q1 + q2, q1 + q2))
    A = np.zeros((q1 + q2, q1 + q2))
    E[:q1, :q1] = total.Er
    E[q1:, q1:] = poly.Er
    A[:q1, :q1] = total.Ar
    A[q1:, q1:] = poly.Ar
    B = np.vstack([total.Br, poly.Br])
    C = np.hstack([total.Cr, poly.Cr])
    return RomRealization(Er=E, Ar=A, Br=B, Cr=C,
                          Dr=total.Dr + poly.Dr, provenance="combined")


def _step_interpolation_residuals(sys, kit, ledger):
    """Replay the cumulative run and certify interpolation per step."""
    ds = DeflatedSystem.from_dae(sys, kit)
    worst = []
    for rec in ledger.records:
        res = check_interpolation(ds.eval, rec.rom, rec.data)
        worst.append(max(res))
        ds.B_defl = ds.B_defl - ds.E @ (
            rec.basis.V @ np.linalg.solve(rec.rom.Er, rec.rom.Br))
    return worst


def cmd_reduce(args):
    if args.max_steps < 1:
        raise UnsupportedInput(
            f"--max-steps must be at least 1, got {args.max_steps}")
    if not (np.isfinite(args.tol) and args.tol >= 0):
        raise UnsupportedInput(
            f"--tol must be finite and nonnegative, got {args.tol}")
    threads = {"requested": _thread_request(), "applied": _cap_threads()}
    sys = _load_siso(args)
    if sys.m != 1 or sys.p != 1:
        raise UnsupportedInput(
            f"reduction needs a SISO system; got {sys.p} x {sys.m} "
            "(use --channel to select one)"
        )
    kit = dm.build_projectors(sys)
    pp = dm.polynomial_part(sys, kit)
    if pp.kind == "unsupported":
        raise UnsupportedInput("Unsupported polynomial part")
    init_a, init_b = _parse_pair(args.shifts_init, "--shifts-init")
    cfg = curemod.CureConfig(
        tol_rel=args.tol, max_steps=args.max_steps,
        init_a=init_a, init_b=init_b,
        spark_cfg=sparkmod.TrustRegionConfig(),
    )
    total, report, ledger = curemod.cured_spark(sys, kit, cfg)
    poly_rom = None
    if pp.kind == "constant" and np.any(pp.constant):
        poly_rom = dm.realize_constant_poly(pp.constant)
    combined = _combine(total, poly_rom)

    poles = combined.poles() if total is not None else np.array([])
    finite = poles[np.isfinite(poles)]
    interp_worst = _step_interpolation_residuals(sys, kit, ledger)
    invariants = {
        "interpolation_residual_max_per_step": interp_worst,
        "total_poles_max_real": float(finite.real.max())
        if finite.size else None,
        "stable": bool(finite.size == 0 or finite.real.max() < 0),
        "norm_history_nondecreasing": bool(
            np.all(np.diff(report["norm_history"]) >= -1e-12)
        ),
    }
    os.makedirs(args.out, exist_ok=True)
    rom_files = bio.write_rom(combined, args.out, name="rom")
    bio.write_h2_history(os.path.join(args.out, "h2_history.csv"),
                         report["norm_history"])
    with open(args.manifest) as fh:
        man = json.load(fh)
    input_files = [args.manifest] + [
        os.path.join(os.path.dirname(os.path.abspath(args.manifest)), fn)
        for fn in man.get("files", {}).values()
    ]
    full_report = {
        "config": {
            "manifest": os.path.abspath(args.manifest),
            "tol": args.tol, "max_steps": args.max_steps,
            "shifts_init": [init_a, init_b],
            "channel": getattr(args, "channel", None),
            "out": os.path.abspath(args.out),
        },
        "input_hash": bio.content_hash(input_files),
        "threads": threads,
        "orders": {
            "n": sys.n,
            "q_strictly_proper": total.order if total is not None else 0,
            "q_polynomial": poly_rom.order if poly_rom is not None else 0,
            "q": combined.order,
        },
        "polynomial_part": pp.kind,
        "cure": report,
        "invariants": invariants,
        "rom_files": rom_files,
    }
    bio.write_results(full_report, args.out)
    print(f"reduced order q = {combined.order} "
          f"({report['k']} steps, stop: {report['stop_reason']})")
    print(f"report written to {os.path.join(args.out, 'report.json')}")
    if not invariants["stable"]:
        raise DaecureError("reduced model failed the stability check")
    return EXIT_OK


def _bode_eval(sys, rom, omegas):
    p, m = sys.p, sys.m
    fom = np.zeros((omegas.size, p, m), dtype=complex)
    for k, om in enumerate(omegas):
        fom[k] = dm.eval_transfer(sys, 1j * om)
    if rom is None:
        return fom, None
    red = np.zeros((omegas.size, rom.p, rom.m), dtype=complex)
    for k, om in enumerate(omegas):
        red[k] = rom.eval(1j * om)
    return fom, red


def cmd_bode(args):
    if args.points < 2:
        raise UnsupportedInput("need at least 2 frequency points")
    if not (0 < args.wmin < args.wmax < np.inf):
        raise UnsupportedInput(
            f"need 0 < --wmin < --wmax < inf, got {args.wmin}, {args.wmax}")
    _cap_threads()
    sys = _load_siso(args)
    rom = bio.read_rom(args.rom) if args.rom else None
    omegas = np.logspace(np.log10(args.wmin), np.log10(args.wmax),
                         args.points)
    fom, red = _bode_eval(sys, rom, omegas)
    os.makedirs(args.out, exist_ok=True)
    bio.write_freq_response(os.path.join(args.out, "fom.csv"), omegas, fom)
    written = ["fom.csv"]
    if red is not None:
        if red.shape[1:] != fom.shape[1:]:
            raise UnsupportedInput("ROM channel count differs from system")
        bio.write_freq_response(os.path.join(args.out, "rom.csv"),
                                omegas, red)
        bio.write_freq_response(os.path.join(args.out, "error.csv"),
                                omegas, fom - red)
        written += ["rom.csv", "error.csv"]
    print(f"wrote {', '.join(written)} to {args.out} "
          f"({args.points} points)")
    return EXIT_OK


def cmd_h2norm(args):
    _cap_threads()
    target = args.target
    if os.path.isdir(target):
        rom = bio.read_rom(target)
        val = h2.h2_norm(rom)
    else:
        sys = bio.read_system(target)
        kit = dm.build_projectors(sys)
        ds = DeflatedSystem.from_dae(sys, kit)
        val = h2.h2_norm(ds)
    print(repr(float(val)))
    return EXIT_OK


def cmd_validate(args):
    _cap_threads()
    sys = bio.read_system(args.manifest)
    kit = dm.build_projectors(sys)
    rng = np.random.default_rng(0)
    failures = []

    def check(name, ok):
        print(f"{name}: {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)

    v = rng.standard_normal(sys.n)
    tol = 1e-8 * max(np.linalg.norm(v), 1.0)
    check("left projector idempotent",
          np.linalg.norm(kit.apply_left(kit.apply_left(v))
                         - kit.apply_left(v)) <= tol)
    check("right projector idempotent",
          np.linalg.norm(kit.apply_right(kit.apply_right(v))
                         - kit.apply_right(v)) <= tol)
    ev = sys.E @ kit.apply_right(v)
    check("E-compatibility of the projector pair",
          np.linalg.norm(ev - kit.apply_left(sys.E @ v))
          <= 1e-8 * max(np.linalg.norm(sys.E @ v), 1.0))
    w = rng.standard_normal(sys.n)
    check("transpose consistency",
          abs(w @ kit.apply_left(v) - kit.apply_left_t(w) @ v)
          <= 1e-8 * max(abs(w @ kit.apply_left(v)), 1.0))
    pp = dm.polynomial_part(sys, kit)
    check("polynomial part classified", pp.kind != "unsupported")
    if pp.kind != "unsupported":
        s0 = 2.17 + 0.3j
        total = dm.eval_transfer(sys, s0)
        sp = dm.eval_strictly_proper(sys, kit, s0)
        poly = pp.constant if pp.kind == "constant" else 0.0
        check("transfer splits into strictly proper + polynomial",
              np.linalg.norm(total - sp - poly)
              <= 1e-8 * max(np.linalg.norm(total), 1.0))
    if failures:
        raise DaecureError(f"validation failed: {', '.join(failures)}")
    print("all invariants ok")
    return EXIT_OK


def cmd_gen(args):
    _cap_threads()
    if args.kind == "index1":
        if args.n1 is None or args.n2 is None:
            raise UnsupportedInput("--kind index1 needs --n1 and --n2")
        sys = bio.gen_semi_explicit_index1(args.n1, args.n2, args.seed)
        name = f"index1_{args.n1}_{args.n2}_s{args.seed}"
    elif args.kind == "stokes2":
        if args.m is None:
            raise UnsupportedInput("--kind stokes2 needs --m")
        sys = bio.gen_stokes_index2(args.m, args.seed)
        name = f"stokes2_{args.m}_s{args.seed}"
    else:
        raise UnsupportedInput(f"unknown generator kind {args.kind!r}")
    path = bio.write_system(sys, args.out, name=name)
    print(f"wrote n = {sys.n} system, manifest {path}")
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="daecure",
        description="H2-pseudo-optimal reduction of sparse descriptor "
                    "systems by cumulative rational interpolation",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    red = sub.add_parser("reduce", help="run the full reduction pipeline")
    red.add_argument("--manifest", required=True)
    red.add_argument("--tol", type=float, default=1e-6,
                     help="relative H2-norm stagnation tolerance")
    red.add_argument("--max-steps", type=int, default=20)
    red.add_argument("--shifts-init", default="1e-4,1e-4",
                     help="initial (a,b) shift parameters")
    red.add_argument("--channel", default=None,
                     help="out_idx,in_idx channel selection for MIMO input")
    red.add_argument("--out", required=True)
    red.set_defaults(fn=cmd_reduce)

    bode = sub.add_parser("bode", help="frequency response CSV export")
    bode.add_argument("--manifest", required=True)
    bode.add_argument("--rom", default=None,
                      help="directory with rom_*.mtx for comparison")
    bode.add_argument("--channel", default=None)
    bode.add_argument("--wmin", type=float, required=True)
    bode.add_argument("--wmax", type=float, required=True)
    bode.add_argument("--points", type=int, default=200)
    bode.add_argument("--out", required=True)
    bode.set_defaults(fn=cmd_bode)

    h2n = sub.add_parser("h2norm", help="H2 norm of a system manifest or "
                                        "ROM directory")
    h2n.add_argument("target")
    h2n.set_defaults(fn=cmd_h2norm)

    val = sub.add_parser("validate", help="run the invariant suite on a "
                                          "system manifest")
    val.add_argument("manifest")
    val.set_defaults(fn=cmd_validate)

    gen = sub.add_parser("gen", help="generate a benchmark system")
    gen.add_argument("--kind", required=True, choices=["index1", "stokes2"])
    gen.add_argument("--n1", type=int, default=None)
    gen.add_argument("--n2", type=int, default=None)
    gen.add_argument("--m", type=int, default=None)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=cmd_gen)
    return ap


def _error_json(code, exc):
    return json.dumps({
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    })


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, OSError) as exc:
        print(_error_json(EXIT_IO, exc), file=_sys.stderr)
        return EXIT_IO
    except (UnsupportedInput, StructureViolation, DeskScaleExceeded,
            DimensionMismatch) as exc:
        print(_error_json(EXIT_UNSUPPORTED, exc), file=_sys.stderr)
        return EXIT_UNSUPPORTED
    except (DaecureError, np.linalg.LinAlgError) as exc:
        print(_error_json(EXIT_NUMERICAL, exc), file=_sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    _sys.exit(main())
