"""Command-line frontend.

Pipeline for ``reduce``: load system -> split the transfer function into
the deflated input and the polynomial part (one saddle-point
factorization) -> cumulative shift-pair reduction of the strictly proper
part -> realize the constant polynomial part -> assemble both into one
ROM -> write ROM files, H2 history and a JSON report.

Exit codes: 0 ok, 1 numerical failure, 2 unsupported input, 3 I/O error.
"""

import argparse
import ctypes
import functools
import importlib
import json
import os
import platform
import sys as _sys

import numpy as np
import scipy

from . import __version__
from . import bench_io as bio
from . import cure as curemod
from . import daemodel as dm
from . import h2analysis as h2
from . import numkernel as nk
from .errors import (
    DaecureError,
    DeskScaleExceeded,
    DimensionMismatch,
    InvalidEntries,
    InvariantViolation,
    NonPositiveParams,
    ParseError,
    StructureViolation,
)
from .interp import DeflatedSystem
from .spark import SparkParams

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_UNSUPPORTED = 2
EXIT_IO = 3

#: thread variables BLAS/OpenMP read when numpy loads; ``reduce`` records
#: their values in report.json
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: each OpenBLAS copy that numpy and scipy load: the extension module
#: whose shared object links it, and its thread-count getter.  numpy's
#: copy is ``libscipy_openblas64_``, scipy's ``libscipy_openblas``
OPENBLAS_GETTERS = {
    "numpy": ("numpy._core._multiarray_umath",
              "scipy_openblas_get_num_threads64_"),
    "scipy": ("scipy.linalg._fblas", "scipy_openblas_get_num_threads"),
}

#: glibc's mallopt parameters, and the value the CLI pins both to: blocks
#: of at least MALLOC_THRESHOLD bytes are mapped on their own, and free
#: space at the top of the heap is returned once it exceeds it
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_THRESHOLD = 4 << 20


class UnsupportedInput(DaecureError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as UnsupportedInput, so it exits 2
    with one JSON error object like every other rejected input."""

    def error(self, message):
        raise UnsupportedInput(message)


def _parse_pair(text, cast, message):
    """Two comma-separated values of type ``cast``; ParseError with
    ``message`` otherwise."""
    parts = text.split(",")
    try:
        if len(parts) == 2:
            return cast(parts[0]), cast(parts[1])
    except ValueError:
        pass
    raise ParseError(message)


def _load_siso(args):
    sys = bio.read_system(args.manifest)
    if getattr(args, "channel", None):
        out_idx, in_idx = _parse_pair(
            args.channel, int, "--channel must be 'out_idx,in_idx' (0-based)")
        sys = bio.select_channel(sys, out_idx, in_idx)
    return sys


def openblas_threads():
    """The effective thread count of each OpenBLAS copy in
    ``OPENBLAS_GETTERS``, None where its module or getter is not found.
    The getter is looked up on the extension module's shared object,
    whose symbol search covers the libraries it links."""
    counts = {}
    for copy, (module, getter) in OPENBLAS_GETTERS.items():
        try:
            fn = getattr(ctypes.CDLL(importlib.import_module(module).__file__),
                         getter)
        except (ImportError, AttributeError, OSError):
            counts[copy] = None
            continue
        fn.argtypes, fn.restype = [], ctypes.c_int
        counts[copy] = fn()
    return counts


def _step_interpolation_residuals(ledger):
    """Per-step interpolation certificates, as made by ``cure_step``."""
    return [rec.interp_residual for rec in ledger.records]


def cmd_reduce(args):
    if args.max_steps < 1:
        raise UnsupportedInput(
            f"--max-steps must be at least 1, got {args.max_steps}")
    if not (np.isfinite(args.tol) and args.tol >= 0):
        raise UnsupportedInput(
            f"--tol must be finite and nonnegative, got {args.tol}")
    pair = _parse_pair(args.shifts_init, float,
                       "--shifts-init must be two comma-separated numbers")
    try:
        init = SparkParams(*pair)
    except NonPositiveParams as exc:
        raise UnsupportedInput(f"--shifts-init: {exc}") from exc
    sys = _load_siso(args)
    if sys.m != 1 or sys.p != 1:
        raise UnsupportedInput(
            f"reduction needs a SISO system; got {sys.p} x {sys.m} "
            "(use --channel to select one)"
        )
    ds = DeflatedSystem.from_dae(sys)
    pp = ds.poly
    if pp.kind == "unsupported":
        raise UnsupportedInput("Unsupported polynomial part")
    report, ledger = curemod.cured_spark(ds, curemod.CureConfig(
        tol_rel=args.tol, max_steps=args.max_steps, init=init))
    poly_rom = None
    if pp.kind == "constant" and np.any(pp.constant):
        poly_rom = dm.realize_constant_poly(pp.constant)
    rom = curemod.assemble_total(ledger.records, poly_rom)

    poles = rom.poles()
    finite = poles[np.isfinite(poles)]
    norms = report["norm_history"]
    certs = _step_interpolation_residuals(ledger)
    # each step's norm is finite and no smaller than its predecessor's
    grows = [p - 1e-12 <= x < np.inf for x, p in zip(norms, [0.0] + norms)]
    invariants = {
        "interpolation_residual_max_per_step": certs,
        "total_poles_max_real": float(finite.real.max())
        if finite.size else None,
        "stable": bool(finite.size == 0 or finite.real.max() < 0),
        "norm_history_nondecreasing": all(grows),
    }
    os.makedirs(args.out, exist_ok=True)
    rom_files = bio.write_rom(rom, args.out)
    history = os.path.join(args.out, "h2_history.csv")
    bio.write_h2_history(history, report["steps"])
    output_files = [history] + [os.path.join(args.out, fn)
                                for fn in rom_files.values()]
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
            "shifts_init": [init.a, init.b],
            "channel": getattr(args, "channel", None),
            "out": os.path.abspath(args.out),
        },
        "input_hash": bio.content_hash(input_files),
        "output_hash": bio.content_hash(output_files),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "openblas_threads": openblas_threads(),
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__,
                     "daecure": __version__},
        "orders": {
            "n": sys.n,
            "q_strictly_proper": report["order"],
            "q_polynomial": poly_rom.order if poly_rom is not None else 0,
            "q": rom.order,
        },
        "polynomial_part": pp.kind,
        "cure": report,
        "invariants": invariants,
        "rom_files": rom_files,
    }
    bio.write_results(full_report, args.out)
    print(f"reduced order q = {rom.order} "
          f"({report['k']} steps, stop: {report['stop_reason']})")
    print(f"report written to {os.path.join(args.out, 'report.json')}")
    # each step: its norm grows, certificate <= 1e-8; last: stable
    ok = [g and c <= 1e-8 for g, c in zip(grows, certs)]
    ok[-1] &= invariants["stable"]
    if not all(ok):
        k = ok.index(False)
        raise InvariantViolation(f"phase cure, step {k + 1}: ||G_r|| = "
                                 f"{norms[k]!r}, certificate {certs[k]!r}")
    return EXIT_OK


def _bode_eval(sys, rom, omegas):
    """The system's and the ROM's transfer values at s = i omegas: the
    system's in finite coordinates up to ``nk.DENSE_LIMIT``, above it by
    one sparse LU per point."""
    s = 1j * omegas
    if sys.n <= nk.DENSE_LIMIT:
        fom = h2.sweep_transfer(sys, s)[0]
    else:
        fom = dm.eval_transfer(sys, s)
    if rom is None:
        return fom, None
    return fom, rom.eval(s)


def cmd_bode(args):
    if args.points < 2:
        raise UnsupportedInput("need at least 2 frequency points")
    if not (0 < args.wmin < args.wmax < np.inf):
        raise UnsupportedInput(
            f"need 0 < --wmin < --wmax < inf, got {args.wmin}, {args.wmax}")
    sys = _load_siso(args)
    rom = bio.read_rom(args.rom) if args.rom else None
    if rom is not None and (rom.p, rom.m) != (sys.p, sys.m):
        raise UnsupportedInput(
            f"ROM has {rom.p} x {rom.m} channels, the system "
            f"{sys.p} x {sys.m}")
    omegas = np.logspace(np.log10(args.wmin), np.log10(args.wmax),
                         args.points)
    fom, red = _bode_eval(sys, rom, omegas)
    os.makedirs(args.out, exist_ok=True)
    bio.write_freq_response(os.path.join(args.out, "fom.csv"), omegas, fom)
    written = ["fom.csv"]
    if red is not None:
        bio.write_freq_response(os.path.join(args.out, "rom.csv"),
                                omegas, red)
        bio.write_freq_response(os.path.join(args.out, "error.csv"),
                                omegas, fom - red)
        written += ["rom.csv", "error.csv"]
    print(f"wrote {', '.join(written)} to {args.out} "
          f"({args.points} points)")
    return EXIT_OK


def cmd_h2norm(args):
    target = args.target
    read = bio.read_rom if os.path.isdir(target) else bio.read_system
    print(repr(float(h2.h2_norm(read(target)))))
    return EXIT_OK


def cmd_validate(args):
    sys = bio.read_system(args.manifest)
    kit = dm.build_projectors(sys)
    failures = []

    def check(name, ok):
        print(f"{name}: {'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)

    v = np.random.default_rng(0).standard_normal(sys.n)
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
    check("polynomial part classified", kit.poly.kind != "unsupported")
    if kit.poly.kind != "unsupported":
        # G(s0) and G^sp(s0) = C Pi_r (s0 E - A)^-1 Pi_l B from one LU
        fac = nk.ShiftedFactorization(nk.Pencil(sys.A, sys.E), 2.17 + 0.3j)
        X = -fac.solve(np.hstack([sys.B.toarray(), kit.B_defl]))
        total = sys.C @ X[:, :sys.m] + sys.D
        sp = sys.C @ kit.apply_right(X[:, sys.m:])
        check("transfer splits into strictly proper + polynomial",
              np.linalg.norm(total - sp - kit.poly.constant)
              <= 1e-8 * max(np.linalg.norm(total), 1.0))
    if failures:
        raise DaecureError(f"validation failed: {', '.join(failures)}")
    print("all invariants ok")
    return EXIT_OK


def cmd_gen(args):
    if args.seed < 0:
        raise UnsupportedInput(f"--seed must be nonnegative, got {args.seed}")
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
    ap = _ArgumentParser(
        prog="daecure",
        description="H2-pseudo-optimal reduction of sparse descriptor "
                    "systems by cumulative rational interpolation",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    red = sub.add_parser("reduce", help="run the full reduction pipeline")
    red.add_argument("--manifest", required=True)
    defaults = curemod.CureConfig()
    red.add_argument("--tol", type=float, default=defaults.tol_rel,
                     help="relative H2-norm stagnation tolerance")
    red.add_argument("--max-steps", type=int, default=defaults.max_steps)
    red.add_argument("--shifts-init",
                     default=f"{defaults.init.a},{defaults.init.b}",
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


@functools.cache
def pin_malloc_thresholds():
    """Fix glibc's mmap and trim thresholds for this process, once.

    By default glibc raises its mmap threshold to the size of each mapped
    block it frees (up to 32 MiB).  After the first sparse LU of a large
    pencil, SuperLU's growing work arrays then come from the brk heap, and
    how much of the heap stays resident depends on its layout: the peak
    RSS of identical reductions of Stokes m=60 in one process varied by
    8 MB.  With fixed thresholds every block of 4 MiB or more is mapped
    and returned when freed.  Thresholds set through glibc's
    ``MALLOC_MMAP_THRESHOLD_`` / ``MALLOC_TRIM_THRESHOLD_`` are kept, and
    without glibc this does nothing.  Returns whether it pinned them.
    """
    if any(f"MALLOC_{name}_THRESHOLD_" in os.environ
           for name in ("MMAP", "TRIM")):
        return False
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return False
    return bool(mallopt(M_MMAP_THRESHOLD, MALLOC_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, MALLOC_THRESHOLD))


def pin_reader_threads():
    """Parse and write Matrix Market files with one thread.

    scipy's ``fast_matrix_market`` backend (scipy >= 1.12) uses every
    core unless its module-level ``PARALLELISM`` says otherwise; no BLAS
    thread variable caps it, and threadpoolctl, its documented control,
    is not a dependency.  One thread read Stokes m=60 in 8.3 ms instead
    of 11.2 ms on 2 vCPUs.
    """
    try:
        from scipy.io import _fast_matrix_market as fmm
    except ImportError:
        return
    fmm.PARALLELISM = 1


def _error_json(code, exc):
    return json.dumps({
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    })


def main(argv=None):
    pin_malloc_thresholds()
    pin_reader_threads()
    try:
        args = build_parser().parse_args(argv)
        # every numeric result is gated where it is made, so numpy's
        # floating-point warnings would only add lines to stderr's one
        # JSON error object
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (ParseError, OSError) as exc:
        print(_error_json(EXIT_IO, exc), file=_sys.stderr)
        return EXIT_IO
    except (UnsupportedInput, StructureViolation, DeskScaleExceeded,
            DimensionMismatch, InvalidEntries) as exc:
        print(_error_json(EXIT_UNSUPPORTED, exc), file=_sys.stderr)
        return EXIT_UNSUPPORTED
    except (DaecureError, np.linalg.LinAlgError) as exc:
        print(_error_json(EXIT_NUMERICAL, exc), file=_sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    _sys.exit(main())
