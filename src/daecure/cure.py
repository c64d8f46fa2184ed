"""Cumulative reduction: repeated shift optimization on the deflated
residual system with accumulation of a growing total reduced model.

After each order-2 step the error factorizes as G - G_r,tot = G_perp *
prod of all-pass factors, which is realized here simply by depleting the
deflated input: B_perp(k) = B_perp(k-1) - E V(k) Er(k)^-1 Br(k).  The
total model is assembled block-wise; its pencil is block lower
triangular, so its poles are exactly the union of the per-step mirror
poles and stability is inherited step by step.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import spark as sparkmod
from .errors import DimensionMismatch
from .interp import DeflatedSystem
from .pork import RomRealization, check_interpolation, pork_input

#: a step capturing at most this times max(||G_tot||^2, 1) is degenerate
DEGENERATE_TOL = 1e-14


@dataclass
class CureRecord:
    """Everything kept from one cumulative step."""

    data: object
    rom: RomRealization
    params: object
    cost: float
    #: worst per-shift tangential residual ||(G - G_r) r|| / ||G r|| of
    #: the step's ROM against the deflated system it was made from
    interp_residual: float


@dataclass
class CureLedger:
    """Mutable state of a cumulative reduction run."""

    ds: DeflatedSystem
    records: list = field(default_factory=list)
    norm_history: list = field(default_factory=list)

    @property
    def k(self):
        return len(self.records)


def assemble_total(records) -> RomRealization:
    """Block assembly of the accumulated reduced model.

    E_tot is block diagonal, A_tot block lower triangular with the
    couplings A_ij = Br(i) R(j) for i > j, B_tot stacks the Br blocks and
    C_tot concatenates the Cr blocks.
    """
    if not records:
        raise DimensionMismatch("no records to assemble")
    orders = [rec.rom.order for rec in records]
    q = sum(orders)
    m = records[0].rom.m
    p = records[0].rom.p
    E = np.zeros((q, q))
    A = np.zeros((q, q))
    B = np.zeros((q, m))
    C = np.zeros((p, q))
    offs = np.concatenate([[0], np.cumsum(orders)])
    for i, rec in enumerate(records):
        si, ei = offs[i], offs[i + 1]
        E[si:ei, si:ei] = rec.rom.Er
        A[si:ei, si:ei] = rec.rom.Ar
        B[si:ei] = rec.rom.Br
        C[:, si:ei] = rec.rom.Cr
        for j in range(i):
            sj, ej = offs[j], offs[j + 1]
            A[si:ei, sj:ej] = rec.rom.Br @ records[j].data.R
    return RomRealization(Er=E, Ar=A, Br=B, Cr=C)


def cure_step(ledger: CureLedger, spark_out) -> CureLedger:
    """Fold one shift-optimization result into the ledger.

    Builds the step's ROM and certifies it, the worst per-shift
    tangential residual ||(G - G_r) r|| / ||G r|| with G(sigma) from
    ``TOL_SOLVE``-checked solves of the current deflated input with the
    result's own LUs, then depletes that input.  The total H2 norm is
    tracked incrementally: by the error-norm decomposition each step adds
    exactly the captured energy -J, so
    ||G_tot(k)||^2 = ||G_tot(k-1)||^2 - J_k.  This stays exact and
    well-defined even when a late, nearly exhausted step parks its mirror
    poles arbitrarily close to the imaginary axis (where a dense Lyapunov
    solve on the assembled pencil would be refused).
    """
    ds = ledger.ds
    rom = pork_input(spark_out.V, spark_out.data, ds.C)

    def fom_eval(s):
        fac = min(spark_out.ctx.factors, key=lambda f: abs(f.sigma - s))
        return -(ds.C @ fac.solve(ds.B_defl))

    residual = max(check_interpolation(fom_eval, rom, spark_out.data))
    rec = CureRecord(data=spark_out.data, rom=rom, params=spark_out.params,
                     cost=spark_out.cost, interp_residual=residual)
    ds.B_defl = ds.B_defl - ds.E @ (spark_out.V
                                    @ np.linalg.solve(rom.Er, rom.Br))
    ledger.records.append(rec)
    prev_sq = ledger.norm_history[-1] ** 2 if ledger.norm_history else 0.0
    ledger.norm_history.append(float(np.sqrt(prev_sq + max(-rec.cost, 0.0))))
    return ledger


@dataclass
class CureConfig:
    tol_rel: float = 1e-6
    max_steps: int = 20
    init_a: float = 1e-4
    init_b: float = 1e-4
    #: SPARK's stopping test ||g|| <= gtol * (1 + |J|)
    gtol: float = sparkmod.GTOL


def cured_spark(ds: DeflatedSystem, cfg: CureConfig = None):
    """Adaptive cumulative reduction driver.

    Runs the shift-pair optimizer on the current deflated system, folds
    each result in, and stops once the relative H2-norm increase of the
    total model drops below ``tol_rel`` (or degenerate/step limits hit).
    The ledger depletes a copy of ``ds``, so the caller's ``B_defl`` is
    left as it is.  One surrogate basis serves every step's SPARK, and a
    step that returned at ``init`` hands its LUs to the next.  Returns
    (TotalRom, report dict, ledger).
    """
    if cfg is None:
        cfg = CureConfig()
    t0 = time.perf_counter()
    ledger = CureLedger(ds=replace(ds))
    report = {"steps": [], "stop_reason": None, "flagged": False}
    init = sparkmod.SparkParams(cfg.init_a, cfg.init_b)
    basis = sparkmod.SurrogateBasis(ds.n)
    degenerate_run = 0
    res = None
    while ledger.k < cfg.max_steps:
        res = sparkmod.spark(ledger.ds, init=init, gtol=cfg.gtol, reuse=res,
                             basis=basis)
        # stagnation is decided on the prospective step, before folding it
        # in: a nearly exhausted residual drives the optimizer against the
        # b > 0 boundary and would contribute a numerically singular block
        captured = max(-res.cost, 0.0)
        prev = ledger.norm_history[-1] if ledger.norm_history else 0.0
        prospective = float(np.sqrt(prev ** 2 + captured))
        rel_inc = (prospective - prev) / prospective if prospective > 0 \
            else 0.0
        if ledger.k >= 1 and rel_inc < cfg.tol_rel:
            report["stop_reason"] = "degenerate" if degenerate_run else \
                "tolerance"
            break
        cure_step(ledger, res)
        rec = ledger.records[-1]
        norm = ledger.norm_history[-1]
        report["steps"].append({
            "k": ledger.k, "a": rec.params.a, "b": rec.params.b,
            "shifts": [complex(s) for s in rec.params.shifts()],
            "J": rec.cost, "converged": res.converged,
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
    total = assemble_total(ledger.records) if ledger.records else None
    report["k"] = ledger.k
    report["order"] = total.order if total is not None else 0
    report["norm_history"] = list(ledger.norm_history)
    report["runtime_s"] = time.perf_counter() - t0
    return total, report, ledger
