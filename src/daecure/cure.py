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

    rom: RomRealization
    params: sparkmod.SparkParams
    #: worst per-shift relative residual ||G - G_r|| / ||G|| of the step's
    #: ROM against the deflated system it was made from
    interp_residual: float


@dataclass
class CureLedger:
    """Mutable state of a cumulative reduction run."""

    ds: DeflatedSystem
    records: list = field(default_factory=list)

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


def cure_step(ledger: CureLedger, point: sparkmod.Point) -> CureLedger:
    """Fold one full-model ``spark.Point`` into the ledger.

    Builds the step's ROM and certifies it by the worst per-shift relative
    residual ||G - G_r|| / ||G||, G(sigma) the point's ``TOL_SOLVE``-checked
    solves of the current deflated input on its pair's LUs, then depletes
    that input; it factors and solves nothing.  The LUs, and so the shifts
    checked, are one per shift up to conjugation: the real system and its
    real ROM match at conj(sigma) exactly when they match at sigma.
    """
    ds = ledger.ds
    rom = pork_input(point.V, point.params, ds.C)
    G = dict(zip(point.params.shifts(), point.G))
    residual = max(check_interpolation(G.get, rom, G))
    rec = CureRecord(rom=rom, params=point.params, interp_residual=residual)
    ds.B_defl = ds.B_defl - ds.E @ (point.V
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
    each folded step queues its returned point's bases (V, V_a, V_b) for
    it, which needs no LU; they are orthogonalized only if a later search
    reads the basis.  The ledger's copy of ``ds`` prepares its own pencil,
    picks its LUs' kernel and keeps the LUs of one pair
    (``DeflatedSystem.sylvester``), which SPARK's full-model points
    share: a step after one that returned at ``init`` evaluates the full
    model there on the kept LUs; any other step after the first starts
    its search on that surrogate, and the full model is first evaluated
    at the surrogate's optimum.  The kept LUs are dropped before return.
    Returns (report dict, ledger);
    ``assemble_total(ledger.records)`` is the strictly proper total
    model.  ``max_steps`` < 1 leaves nothing to assemble and raises
    DimensionMismatch.
    """
    if cfg is None:
        cfg = CureConfig()
    if cfg.max_steps < 1:
        raise DimensionMismatch("no records to assemble")
    t0 = time.perf_counter()
    ledger = CureLedger(ds=replace(ds))
    report = {"steps": [], "stop_reason": None, "flagged": False}
    basis = sparkmod.SurrogateBasis(ledger.ds.A, ledger.ds.E)
    degenerate_run = 0
    while ledger.k < cfg.max_steps:
        res = sparkmod.spark(ledger.ds, init=cfg.init, basis=basis)
        point = res.point
        # by the error-norm decomposition each step adds exactly the
        # captured energy -J: ||G_tot(k)||^2 = ||G_tot(k-1)||^2 - J_k, exact
        # even where a dense Lyapunov solve of the assembled pencil would be
        # refused.  Stagnation is decided on this prospective norm, before
        # folding the step in: a nearly exhausted residual drives the
        # optimizer against the b > 0 boundary and would contribute a
        # numerically singular block
        captured = max(-point.J, 0.0)
        prev = report["steps"][-1]["norm_total"] if report["steps"] else 0.0
        norm = float(np.sqrt(prev ** 2 + captured))
        rel_inc = (norm - prev) / norm if norm > 0 else 0.0
        if ledger.k >= 1 and rel_inc < cfg.tol_rel:
            report["stop_reason"] = "degenerate" if degenerate_run else \
                "tolerance"
            break
        cure_step(ledger, point)
        basis.add(point)
        report["steps"].append({
            "k": ledger.k, "a": point.params.a, "b": point.params.b,
            "shifts": [complex(s) for s in point.params.shifts()],
            "J": point.J, "converged": res.converged,
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
    ledger.ds.kept = None
    report["k"] = ledger.k
    report["order"] = sum(rec.rom.order for rec in ledger.records)
    report["norm_history"] = [step["norm_total"] for step in report["steps"]]
    report["runtime_s"] = time.perf_counter() - t0
    return report, ledger
