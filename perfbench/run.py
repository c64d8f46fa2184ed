"""daecure reduction benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

Each run makes the workload's inputs from the seed in an untimed prep
process, then measures in a fresh worker process (see worker.py) started
with one BLAS/OpenMP thread.  It prints provenance and a readable table,
and as its last line one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``).  Exit code 0
when every operation passed its output checks, 1 otherwise, 2 when the
package source is not beside the benchmark.
"""

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "daecure"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: wall-clock budget of one run, prep and measurement together
RUN_LIMIT_S = 170.0


def child_env():
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    # with threadpoolctl installed the CLI would apply this cap instead
    env.pop("DAECURE_THREADS", None)
    return env


def worker(mode, workload, workdir, seed, seconds, deadline):
    """Run one worker process to completion; returns its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode,
           "--workload", workload, "--workdir", str(workdir),
           "--seed", str(seed), "--seconds", str(seconds)]
    left = deadline - time.monotonic()
    if left <= 0:
        raise RuntimeError(f"no time left for the {mode} step")
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=left,
                          stdout=subprocess.DEVNULL)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}")
    with open(workdir / f"{mode}.json") as fh:
        return json.load(fh)


def source_identity():
    """git revision when the checkout is a repository, and a hash of the
    package source either way."""
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                  "HEAD"], capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return rev, h.hexdigest()[:16]


def summarize(spec, res, trace):
    """The metric object of the result line, from the worker's result."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics, missing = {}, []
    for m in wanted:
        if trace:
            val = res["metrics"].get(m["name"])
        else:
            samples = res["samples"].get(m["name"]) or []
            val = statistics.median(samples) if samples else None
        if val is None:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = {"value": val, "unit": m["unit"]}
    return metrics, missing


def top(values, fmt, k=6):
    best = sorted(values.items(), key=lambda kv: -kv[1])[:k]
    return ", ".join(f"{name} " + fmt.format(v) for name, v in best)


def run_one(spec, workload, seed, seconds, trace):
    mode = "trace" if trace else "e2e"
    workdir = HERE / ".work" / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        prov = worker("prep", workload, workdir, seed, seconds, deadline)
        res = worker(mode, workload, workdir, seed, seconds, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):    # other runs may still use it
            workdir.parent.rmdir()
    if trace:
        for key in ("numkernel.lu_fill_nnz", "numkernel.lu_bytes"):
            res["metrics"][key] = prov[key]
    metrics, missing = summarize(spec, res, trace)
    problems = res["problems"] + [f"metric {n} not measured" for n in missing]
    rev, src_hash = source_identity()
    prov.update(workload=workload, seed=seed, seconds=seconds,
                trace=int(trace), git_rev=rev, src_sha256=src_hash)
    print("provenance " + json.dumps(prov, sort_keys=True))
    attempted, failed = res["attempted"], res["failed"]
    print(f"{workload} seed {seed}: {attempted} operations, {failed} failed, "
          f"failed_share {failed / attempted:g}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    if trace:
        print("  self time by span, last traced operation: " + top(
            res["span_self_s"], "{:.4g} s"))
        print("  set-up window, self-time shares: " + top(
            res["setup_split"], "{:.3f}"))
    else:
        for name, samples in res["samples"].items():
            print(f"  {name}: {len(samples)} samples "
                  + " ".join(f"{x:.6g}" for x in samples))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed if correct else max(failed, 1),
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"daecure source not found at {SRC}; run the benchmark from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    seconds = args.seconds or spec["run_seconds"]
    todo = names if args.workload == "all" else [args.workload]
    codes = []
    for name in todo:
        try:
            codes.append(run_one(spec, name, args.seed, seconds,
                                 bool(args.trace)))
        except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
            print(f"{name}: benchmark run failed: {exc}", file=sys.stderr)
            codes.append(1)
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
