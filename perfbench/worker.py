"""One benchmark process: ``python3 perfbench/worker.py MODE ...``.

run.py starts a fresh worker per run with the BLAS/OpenMP thread
variables already set to 1, so they hold from numpy's first import
(``DAECURE_THREADS`` cannot do that without threadpoolctl).  Modes:

prep   write the workload's inputs and record size properties (untimed)
e2e    whole operations for --seconds, each between two calibrations
trace  untraced and traced operations in turn for --seconds

An operation calls ``daecure.cli.main`` in-process once per command of
the workload.  The result is written as JSON to ``<workdir>/<mode>.json``.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse as sps  # noqa: E402
import scipy.sparse.linalg as spsla  # noqa: E402

import daecure.spark as sparkmod  # noqa: E402
from daecure import (bench_io, cli, cure, daemodel, h2analysis,  # noqa: E402
                     interp, numkernel, pork)

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from run import THREAD_VARS  # noqa: E402

MODULES = {"bench_io": bench_io, "cli": cli, "cure": cure,
           "daemodel": daemodel, "h2analysis": h2analysis, "interp": interp,
           "numkernel": numkernel, "pork": pork, "spark": sparkmod}
#: median time of one calibration() on the reference machine (2-vCPU
#: Intel Xeon VM, one BLAS thread); the end-to-end times are scaled to it
CALIBRATION_REF_S = 0.25
#: shift of the factorization whose fill is recorded as a size property
REPRESENTATIVE_SHIFT = 1.0

#: (span name, module, function) wrapped at module level
FUNCTIONS = [
    ("bench_io.read_system", "bench_io", "read_system"),
    ("bench_io.read_rom", "bench_io", "read_rom"),
    ("bench_io.write", "bench_io", "write_rom"),
    ("bench_io.write", "bench_io", "write_results"),
    ("bench_io.write", "bench_io", "write_h2_history"),
    ("bench_io.write", "bench_io", "write_freq_response"),
    ("daemodel.build_projectors", "daemodel", "build_projectors"),
    ("daemodel.polynomial_part", "daemodel", "polynomial_part"),
    ("daemodel.eval_transfer", "daemodel", "eval_transfer"),
    ("interp.spark_basis", "interp", "spark_basis"),
    ("pork.pork_input", "pork", "pork_input"),
    ("pork.check_interpolation", "pork", "check_interpolation"),
    ("spark.spark", "spark", "spark"),
    ("spark.spark_gradient", "spark", "spark_gradient"),
    ("spark.spark_cost", "spark", "spark_cost"),
    ("cure.cured_spark", "cure", "cured_spark"),
    ("cure.cure_step", "cure", "cure_step"),
    ("cure.assemble_total", "cure", "assemble_total"),
    ("h2analysis.h2_norm", "h2analysis", "h2_norm"),
    ("cli.certify", "cli", "_step_interpolation_residuals"),
]
#: (span name, module, class, method) wrapped on the class
METHODS = [
    ("interp.DeflatedSystem.from_dae", "interp", "DeflatedSystem",
     "from_dae"),
    ("numkernel.factor", "numkernel", "ShiftedFactorization", "__init__"),
    ("numkernel.solve", "numkernel", "ShiftedFactorization", "solve"),
    ("numkernel.sylvester_ctx", "numkernel", "SylvesterContext", "__init__"),
]
SPAN_NAMES = ["cli.main"] + sorted({f[0] for f in FUNCTIONS}
                                   | {m[0] for m in METHODS})
#: spans whose call count the issue names ".count" instead of ".calls"
COUNT_SUFFIX = {"numkernel.factor": "count", "numkernel.solve": "count",
                "numkernel.sylvester_ctx": "count"}
#: counters filled from call results rather than from span counts
COUNTERS = ["spark.tr_iters", "spark.tr_accepted", "spark.tr_rejected",
            "spark.zero_iter_calls", "numkernel.factor.complex_count"]


class EntryClock:
    """Records when an operation first enters the workload's compute
    layer."""

    def __init__(self, entry):
        self.first = None
        self.patcher = spans.Patcher()
        mod, attr = entry.split(".")

        def wrapper(fn):
            def timed(*args, **kwargs):
                if self.first is None:
                    self.first = time.perf_counter()
                return fn(*args, **kwargs)
            return timed

        if not self.patcher.function(MODULES[mod], attr, wrapper):
            raise RuntimeError(f"compute entry {entry} not found")


def install_tracer(tracer):
    """Wrap every traced entry point; returns the Patcher that undoes it."""
    patcher = spans.Patcher()

    def on_spark(args, res):
        its = [r for r in getattr(res, "trace", []) if r.get("iter", 0) > 0]
        acc = sum(1 for r in its if r.get("accepted"))
        tracer.counts["spark.tr_iters"] += len(its)
        tracer.counts["spark.tr_accepted"] += acc
        tracer.counts["spark.tr_rejected"] += len(its) - acc
        tracer.counts["spark.zero_iter_calls"] += acc == 0

    def on_factor(args, _):
        if complex(getattr(args[0], "sigma", 0.0)).imag != 0.0:
            tracer.counts["numkernel.factor.complex_count"] += 1

    hooks = {"spark.spark": on_spark, "numkernel.factor": on_factor}
    for name, mod, attr in FUNCTIONS:
        patcher.function(MODULES[mod], attr,
                         lambda fn, n=name: tracer.wrap(n, fn, hooks.get(n)))
    for name, mod, cls, attr in METHODS:
        owner = getattr(MODULES[mod], cls, None)
        if owner is not None:
            patcher.method(owner, attr,
                           lambda fn, n=name: tracer.wrap(n, fn, hooks.get(n)))
    return patcher


def _quiet_main(argv, main):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_operation(name, workdir, k, clock, tracer=None):
    """Run the workload's commands once; returns timings and outputs."""
    opdir = os.path.join(workdir, f"op{k}")
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    codes, outputs = [], []
    clock.first = None
    t0 = time.perf_counter()
    for cmd in wl.WORKLOADS[name].commands:
        code, text = _quiet_main(wl.command_argv(cmd, workdir, opdir),
                                 main)
        codes.append(code)
        outputs.append(text)
    wall = time.perf_counter() - t0
    setup = clock.first - t0 if clock.first is not None else None
    problems, values = wl.check_operation(name, opdir, codes, outputs)
    if setup is None:
        problems.append("the compute layer was never entered")
    shutil.rmtree(opdir, ignore_errors=True)
    # tracebacks and closures leave cycles holding the operation's arrays;
    # free them now so the next operation's peak RSS is its own
    gc.collect()
    return {"wall_s": wall, "setup_s": setup, "problems": problems,
            **values}


class Calibration:
    """A fixed kernel with daecure's mix of work (complex SuperLU
    factorizations and solves, small dense products, interpreter loops)
    that calls nothing in daecure, so no change to the package moves it.

    The host's speed drifts by 10-20 % over minutes, and it moves every
    kind of work alike; an operation's time divided by the kernel's time
    in the same run drifts far less (see README.md)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        n = 300
        self.A = (sps.random(n, n, density=0.03, random_state=2)
                  - 4 * sps.eye(n)).tocsc()
        self.I = sps.eye(n, format="csc")
        self.b = rng.standard_normal(n).astype(complex)
        self.M = rng.standard_normal((40, 40))

    def time(self):
        t0 = time.perf_counter()
        for k in range(12):
            spsla.splu((self.A - (1 + 1j * k) * self.I).tocsc()).solve(self.b)
        x = self.M
        for _ in range(4000):
            x = np.tanh(x @ self.M * 0.01)
        acc = 0
        for i in range(600000):
            acc += i * i % 7
        return time.perf_counter() - t0


def layer_values(tracer, entry):
    """Per-layer values of one traced operation, and the self-time split
    of its set-up window."""
    sp = tracer.spans
    st = spans.self_times(sp)
    out = {name: 0 for name in COUNTERS}
    out.update(tracer.counts)
    for name in SPAN_NAMES:
        out[f"{name}.s"] = sum(s.end - s.start for i, s in enumerate(sp)
                               if s.name == name
                               and not spans.has_ancestor(sp, i, name))
        out[f"{name}.{COUNT_SUFFIX.get(name, 'calls')}"] = \
            sum(1 for s in sp if s.name == name)
    for layer in MODULES:
        out[f"{layer}.self_s"] = sum(v for k, v in st.items()
                                     if spans.layer_of(k) == layer)
    out["cure.steps"] = out["cure.cure_step.calls"]
    in_spark = sum(1 for i, s in enumerate(sp) if s.name == "numkernel.factor"
                   and spans.has_ancestor(sp, i, "spark.spark"))
    out["numkernel.factor_in_spark.count"] = in_spark
    out["numkernel.factor_per_tr_iter"] = \
        in_spark / max(out["spark.tr_iters"], 1)
    end = next((s.start for s in sp if s.name == entry), None)
    if end is None:     # the operation failed before its compute layer
        out["trace.setup_s"] = 0.0
        out["daemodel.build_projectors.setup_share"] = 0.0
        return out, {}
    window = end - sp[0].start
    split = spans.self_times(sp, until=end)
    split["cli.main"] = window - sum(split.values())
    out["trace.setup_s"] = window
    out["daemodel.build_projectors.setup_share"] = \
        split.get("daemodel.build_projectors", 0.0) / window
    return out, {k: v / window for k, v in split.items()}


def run_e2e(name, workdir, seconds):
    """Whole operations for ``seconds``, a calibration before the first and
    after each.  The times are scaled by CALIBRATION_REF_S over the median
    calibration of the run."""
    clock = EntryClock(wl.WORKLOADS[name].entry)
    cal = Calibration()
    ops, cals, problems = [], [cal.time()], []
    t0 = time.perf_counter()
    while not ops or time.perf_counter() - t0 < seconds:
        ops.append(run_operation(name, workdir, len(ops), clock))
        cals.append(cal.time())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not clock.patcher.restore():
        problems.append("compute-entry wrapper not restored")
    f = CALIBRATION_REF_S / statistics.median(cals)
    good = [op for op in ops if not op["problems"]]
    for op in ops:
        problems += op["problems"]
    return {
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "problems": problems,
        "samples": {
            "wall_s": [op["wall_s"] * f for op in good],
            "setup_s": [op["setup_s"] * f for op in good],
            "peak_rss_mb": [peak],
            "rom_h2_norm": [op["rom_h2_norm"] for op in good],
            "rel_h2_error": [op["rel_h2_error"] for op in good],
            "raw_wall_s": [op["wall_s"] for op in good],
            "raw_setup_s": [op["setup_s"] for op in good],
            "calibration_s": cals,
        },
    }


def run_trace(name, workdir, seconds):
    """Untraced and traced operations in turn, at least one of each."""
    entry = wl.WORKLOADS[name].entry
    clock = EntryClock(entry)
    tracer = spans.Tracer()
    plain, traced, values, splits = [], [], [], []
    restored = True
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        k = len(plain) + len(traced)
        if len(plain) == len(traced):
            plain.append(run_operation(name, workdir, k, clock))
            continue
        tracer.reset()
        patcher = install_tracer(tracer)
        try:
            traced.append(run_operation(name, workdir, k, clock, tracer))
        finally:
            restored = patcher.restore() and restored
        vals, split = layer_values(tracer, entry)
        values.append(vals)
        splits.append(split)
    ops = plain + traced
    problems = [p for op in ops for p in op["problems"]]
    if not (clock.patcher.restore() and restored):
        problems.append("trace wrappers not restored")
    counts = [{k: v for k, v in vals.items() if isinstance(v, int)}
              for vals in values]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("traced counts differ between operations")
    metrics = {k: statistics.median(v[k] for v in values) for k in values[0]}
    metrics.update(counts[0])
    metrics["trace.overhead_share"] = (
        statistics.median(op["wall_s"] for op in traced)
        / statistics.median(op["wall_s"] for op in plain) - 1)
    return {"attempted": len(ops),
            "failed": sum(1 for op in ops if op["problems"]),
            "problems": problems, "metrics": metrics,
            "span_self_s": spans.self_times(tracer.spans),
            "setup_split": {k: statistics.median(s.get(k, 0.0)
                                                 for s in splits)
                            for k in set().union(*splits)}}


def run_prep(name, seed, workdir):
    wl.make_inputs(name, seed, workdir)
    sys_ = bench_io.read_system(wl.manifest_path(workdir))
    lu = spsla.splu((sys_.A - REPRESENTATIVE_SHIFT * sys_.E).tocsc())
    arrays = (lu.L.data, lu.L.indices, lu.L.indptr, lu.U.data, lu.U.indices,
              lu.U.indptr, lu.perm_r, lu.perm_c)
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "n": sys_.n,
        "nnz_A": int(sys_.A.nnz),
        "numkernel.lu_fill_nnz": int(lu.L.nnz + lu.U.nnz),
        "numkernel.lu_bytes": int(sum(a.nbytes for a in arrays)),
        "lu_shift": REPRESENTATIVE_SHIFT,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["prep", "e2e", "trace"])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args()
    if args.mode == "prep":
        res = run_prep(args.workload, args.seed, args.workdir)
    elif args.mode == "e2e":
        res = run_e2e(args.workload, args.workdir, args.seconds)
    else:
        res = run_trace(args.workload, args.workdir, args.seconds)
    with open(os.path.join(args.workdir, f"{args.mode}.json"), "w") as fh:
        json.dump(res, fh)


if __name__ == "__main__":
    main()
