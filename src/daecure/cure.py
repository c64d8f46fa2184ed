"""Cumulative reduction: repeated shift optimization on the deflated
residual system with accumulation of a growing total reduced model.

After each order-2 step the error factorizes as G - G_r,tot = G_perp *
prod of all-pass factors, which is realized here simply by depleting the
deflated input: B_perp(k) = B_perp(k-1) - E V(k) Er(k)^-1 Br(k).  The
total model is assembled block-wise; its pencil is block lower
triangular, so its poles are exactly the union of the per-step mirror
poles and stability is inherited step by step.
"""

import functools
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import numkernel as nk
from . import spark as sparkmod
from .errors import DimensionMismatch
from .interp import DeflatedSystem
from .pork import RomRealization, check_interpolation, pork_input

#: a step capturing at most this times max(||G_tot||^2, 1) is degenerate
DEGENERATE_TOL = 1e-14


@dataclass
class CureRecord:
    """Everything kept from one cumulative step."""

    rom: RomRealization
    params: sparkmod.SparkParams
    cost: float
    #: worst per-shift relative residual ||G - G_r|| / ||G|| of the step's
    #: ROM against the deflated system it was made from
    interp_residual: float


@dataclass
class CureLedger:
    """Mutable state of a cumulative reduction run."""

    ds: DeflatedSystem
    records: list = field(default_factory=list)
    #: LUs of the full pencil at the start pair, for the next step's SPARK
    #: call to take over
    ctx: object = None

    @property
    def k(self):
        return len(self.records)


def assemble_total(records, poly: RomRealization = None) -> RomRealization:
    """Block assembly of the accumulated reduced model.

    E_tot is block diagonal, A_tot block lower triangular with the
    couplings A_ij = Br(i) R(j) for i > j, B_tot stacks the Br blocks and
    C_tot concatenates the Cr blocks.  A realization ``poly`` of the
    polynomial part goes last, as an uncoupled block with its own Dr.
    """
    if not records:
        raise DimensionMismatch("no records to assemble")
    roms = [rec.rom for rec in records] + ([] if poly is None else [poly])
    orders = [rom.order for rom in roms]
    q = sum(orders)
    m = roms[0].m
    p = roms[0].p
    E = np.zeros((q, q))
    A = np.zeros((q, q))
    B = np.zeros((q, m))
    C = np.zeros((p, q))
    offs = np.concatenate([[0], np.cumsum(orders)])
    for i, rom in enumerate(roms):
        si, ei = offs[i], offs[i + 1]
        E[si:ei, si:ei] = rom.Er
        A[si:ei, si:ei] = rom.Ar
        B[si:ei] = rom.Br
        C[:, si:ei] = rom.Cr
    for i, rec in enumerate(records):
        for j in range(i):
            A[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = \
                rec.rom.Br @ records[j].params.R
    return RomRealization(Er=E, Ar=A, Br=B, Cr=C,
                          Dr=None if poly is None else poly.Dr)


def cure_step(ledger: CureLedger, spark_out) -> CureLedger:
    """Fold one shift-optimization result into the ledger.

    Builds the step's ROM and certifies it, the worst per-shift
    relative residual ||G - G_r|| / ||G|| with G(sigma) from
    ``TOL_SOLVE``-checked solves of the current deflated input with the
    result's own LUs, one per LU, then depletes that input.
    """
    ds = ledger.ds
    rom = pork_input(spark_out.V, spark_out.params, ds.C)

    @functools.cache
    def transfer(fac):
        return -(ds.C @ fac.solve(ds.B_defl))

    def fom_eval(s):
        fac = min(spark_out.ctx.factors, key=lambda f: abs(f.sigma - s))
        if isinstance(fac, nk.ConjugateFactorization):
            # the real system has G(conj(s)) = conj(G(s))
            return np.conj(transfer(fac.base))
        return transfer(fac)

    residual = max(check_interpolation(fom_eval, rom, spark_out.params))
    rec = CureRecord(rom=rom, params=spark_out.params, cost=spark_out.cost,
                     interp_residual=residual)
    ds.B_defl = ds.B_defl - ds.E @ (spark_out.V
                                    @ np.linalg.solve(rom.Er, rom.Br))
    ledger.records.append(rec)
    return ledger


@dataclass
class CureConfig:
    tol_rel: float = 1e-6
    max_steps: int = 20
    #: the start pair of every step's SPARK run
    init: sparkmod.SparkParams = sparkmod.INIT


def cured_spark(ds: DeflatedSystem, cfg: CureConfig = None):
    """Adaptive cumulative reduction driver.

    Runs the shift-pair optimizer on the current deflated system, folds
    each result in, and stops once the relative H2-norm increase of the
    total model drops below ``tol_rel`` (or degenerate/step limits hit).
    The ledger depletes a copy of ``ds``, so the caller's ``B_defl`` is
    left as it is.  One surrogate basis serves every step's SPARK, and
    each folded step queues its returned bases (V, V_a, V_b) for it,
    which needs no LU; they are orthogonalized only if a later search
    reads the basis.  A step that returned at ``init`` hands its LUs to the
    next; any other step after the first starts its search on that
    surrogate, and the full model is first evaluated at the surrogate's
    optimum.

    The first full-model point's LUs, at ``init``, are made on ``ds``'s
    own pencil, and ``nk.cheapest_pencil`` reads off their fill whether
    every later full-model point gets LAPACK LUs: then the ledger's copy
    of ``ds`` holds A and E as dense arrays.  Returns
    (report dict, ledger); ``assemble_total(ledger.records)`` is the
    strictly proper total model.  ``max_steps`` < 1 leaves nothing to
    assemble and raises DimensionMismatch.
    """
    if cfg is None:
        cfg = CureConfig()
    if cfg.max_steps < 1:
        raise DimensionMismatch("no records to assemble")
    t0 = time.perf_counter()
    ledger = CureLedger(ds=replace(ds), ctx=nk.SylvesterContext(
        ds.A, ds.E, cfg.init.S))
    ledger.ds.A, ledger.ds.E = nk.cheapest_pencil(ds.A, ds.E,
                                                  ledger.ctx.factors[0])
    report = {"steps": [], "stop_reason": None, "flagged": False}
    basis = sparkmod.SurrogateBasis(ds.n)
    degenerate_run = 0
    while ledger.k < cfg.max_steps:
        res = sparkmod.spark(ledger.ds, init=cfg.init, reuse=ledger,
                             basis=basis)
        # by the error-norm decomposition each step adds exactly the
        # captured energy -J: ||G_tot(k)||^2 = ||G_tot(k-1)||^2 - J_k, exact
        # even where a dense Lyapunov solve of the assembled pencil would be
        # refused.  Stagnation is decided on this prospective norm, before
        # folding the step in: a nearly exhausted residual drives the
        # optimizer against the b > 0 boundary and would contribute a
        # numerically singular block
        captured = max(-res.cost, 0.0)
        prev = report["steps"][-1]["norm_total"] if report["steps"] else 0.0
        norm = float(np.sqrt(prev ** 2 + captured))
        rel_inc = (norm - prev) / norm if norm > 0 else 0.0
        if ledger.k >= 1 and rel_inc < cfg.tol_rel:
            report["stop_reason"] = "degenerate" if degenerate_run else \
                "tolerance"
            break
        cure_step(ledger, res)
        basis.add(ledger.ds, res)
        ledger.ctx = res.ctx if res.params == cfg.init else None
        res.ctx = None
        report["steps"].append({
            "k": ledger.k, "a": res.params.a, "b": res.params.b,
            "shifts": [complex(s) for s in res.params.shifts()],
            "J": res.cost, "converged": res.converged,
            "reason": res.reason, "norm_total": norm, "rel_increase": rel_inc,
            "iterations": len(res.trace) - 1,
            "rejected": sum(not r["accepted"] for r in res.trace),
            "full_evaluations": len(res.evaluations),
        })
        if captured <= DEGENERATE_TOL * max(norm ** 2, 1.0):
            degenerate_run += 1
            report["flagged"] = True
            if degenerate_run >= 2:
                report["stop_reason"] = "degenerate"
                break
        else:
            degenerate_run = 0
    if report["stop_reason"] is None:
        report["stop_reason"] = "max_steps"
    ledger.ctx = None
    report["k"] = ledger.k
    report["order"] = sum(rec.rom.order for rec in ledger.records)
    report["norm_history"] = [step["norm_total"] for step in report["steps"]]
    report["runtime_s"] = time.perf_counter() - t0
    return report, ledger
