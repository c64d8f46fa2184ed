"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line (bypassing pytest capture so the lines always appear).

Criterion 11 (external power-grid benchmark) needs a downloaded data set
and is gated behind the DAECURE_BIPS_MANIFEST environment variable.
"""

import os
import sys as _sys
import time

import numpy as np
import pytest
import scipy.linalg as spla

from daecure import bench_io as bio
from daecure import cure
from daecure import daemodel as dm
from daecure import h2analysis as h2
from daecure import spark as sp
from daecure.cli import _step_interpolation_residuals
from daecure.interp import DeflatedSystem, spark_basis
from daecure.pork import RomRealization, check_orthogonality, pork_input

from conftest import make_ode, make_random_stable_ode


_CAP = None


@pytest.fixture(autouse=True)
def _grab_capsys(capsys):
    global _CAP
    _CAP = capsys
    yield
    _CAP = None


def _emit(line):
    if _CAP is not None:
        with _CAP.disabled():
            print(line, flush=True)
    else:
        print(line, file=_sys.__stdout__, flush=True)


def report(num, name, ok, detail=""):
    line = f"CRITERION {num:2d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    _emit(line)
    assert ok, line


def test_criterion_01_interpolation():
    worst = 0.0
    slowest = 0.0
    for sys in (bio.gen_semi_explicit_index1(500, 100, seed=0),
                bio.gen_stokes_index2(12, seed=0)):
        t0 = time.perf_counter()
        kit = dm.build_projectors(sys)
        total, rep, ledger = cure.cured_spark(sys, kit, cure.CureConfig())
        res = _step_interpolation_residuals(sys, kit, ledger)
        slowest = max(slowest, time.perf_counter() - t0)
        worst = max(worst, max(res))
    report(1, "interpolation", worst <= 1e-8 and slowest < 60.0,
           f"max residual {worst:.2e}, slowest run {slowest:.1f}s")


def test_criterion_02_stability_fuzz():
    violations = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n1 = int(rng.integers(10, 30))
        n2 = int(rng.integers(2, 8))
        sys = bio.gen_semi_explicit_index1(n1, n2, seed=seed)
        total, rep, ledger = cure.cured_spark(
            sys, cfg=cure.CureConfig(max_steps=4))
        for k in range(1, ledger.k + 1):
            w = spla.eigvals(*[getattr(cure.assemble_total(
                ledger.records[:k]), a) for a in ("Ar", "Er")])
            if not np.all(np.isfinite(w)) or np.any(w.real >= 0):
                violations += 1
    report(2, "stability", violations == 0,
           f"{violations} violations over 50 seeds")


def test_criterion_03_norm_decomposition():
    worst = 0.0
    for sys in (bio.gen_semi_explicit_index1(150, 30, seed=1),
                make_random_stable_ode(120, seed=2)):
        ds = DeflatedSystem.from_dae(sys)
        total, rep, ledger = cure.cured_spark(
            sys, cfg=cure.CureConfig(max_steps=6))
        ng = h2.h2_norm(ds)
        nr = h2.h2_norm(total)
        ne = h2.h2_error_norm(ds, total)
        worst = max(worst, abs(ng ** 2 - nr ** 2 - ne ** 2) / ng ** 2)
    report(3, "norm decomposition", worst <= 1e-6,
           f"worst relative defect {worst:.2e}")


def test_criterion_04_orthogonality():
    sys = bio.gen_semi_explicit_index1(120, 25, seed=4)
    ds = DeflatedSystem.from_dae(sys)
    basis, data = spark_basis(ds, 0.9, 1.8)
    rom = pork_input(basis, data, ds.C)
    worst = check_orthogonality(ds, rom, data, trials=10, seed=0)
    report(4, "orthogonality", worst <= 1e-8,
           f"max normalized inner product {worst:.2e}")


def test_criterion_05_two_route_inner_product():
    worst_ip = 0.0
    worst_tr = 0.0
    rng = np.random.default_rng(0)
    for pair in range(20):
        nA = int(rng.integers(8, 25))
        qB = int(rng.integers(2, 7))
        sysA = make_random_stable_ode(nA, seed=100 + pair)
        dsA = DeflatedSystem.from_dae(sysA)
        AB = rng.standard_normal((qB, qB))
        AB = AB - (abs(np.linalg.eigvals(AB).real).max() + 0.5) * np.eye(qB)
        romB = RomRealization(
            Er=np.eye(qB), Ar=AB, Br=rng.standard_normal((qB, 1)),
            Cr=rng.standard_normal((1, qB)))
        v1, X, Y = h2.h2_inner_sylvester_dense(dsA, romB)
        pr = h2.rom_to_pole_residue(romB)
        v2 = h2.h2_inner_pole_residue(dsA.eval, pr)
        scale = max(abs(v1), abs(v2), 1e-6)
        worst_ip = max(worst_ip, abs(v1 - v2) / scale)
        tc = np.trace(dsA.C @ X @ romB.Cr.conj().T)
        tb = np.trace(dsA.B_defl.conj().T @ Y @ romB.Br)
        worst_tr = max(worst_tr, abs(tc - tb) / scale)
    ok = worst_ip <= 1e-8 and worst_tr <= 1e-8
    report(5, "two-route inner product", ok,
           f"route gap {worst_ip:.2e}, trace gap {worst_tr:.2e}")


def test_criterion_06_closed_form_objects():
    sys = make_random_stable_ode(20, seed=6)
    ds = DeflatedSystem.from_dae(sys)
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        a, b = rng.uniform(np.nextafter(0, 1), 10.0, 2)
        basis, data = spark_basis(ds, a, b)
        rom = pork_input(basis, data, ds.C)
        Er = np.array([[a * a + b, -a], [-a, 1.0]]) / (4 * a * b)
        Ar = np.array([[-2 * a, 1.0], [-1.0, 0.0]]) / (4 * a)
        br = np.array([[-1.0], [0.0]])
        Gc = sp._gramian_c(a, b)
        worst = max(
            worst,
            np.abs(rom.Er - Er).max() / max(np.abs(Er).max(), 1.0),
            np.abs(rom.Ar - Ar).max() / max(np.abs(Ar).max(), 1.0),
            np.abs(rom.Br - br).max(),
            np.abs(np.linalg.inv(rom.extras["gramian"]) - Er).max()
            / max(np.abs(Er).max(), 1.0),
            np.abs(rom.extras["gramian"] - Gc).max()
            / max(np.abs(Gc).max(), 1.0),
        )
    report(6, "closed-form shift objects", worst <= 1e-12,
           f"worst relative deviation {worst:.2e} over 100 draws")


def test_criterion_07_gradient():
    rng = np.random.default_rng(7)
    worst = 0.0
    for seed in (0, 1, 2):
        sys = make_random_stable_ode(18, seed=40 + seed)
        ds = DeflatedSystem.from_dae(sys)
        for _ in range(25):
            a, b = rng.uniform(0.1, 6.0, 2)
            _, g, _, _, _ = sp.evaluate(ds, a, b)
            fd = np.empty(2)
            for i in range(2):
                hstep = 1e-6 * max(1.0, (a, b)[i])
                da = hstep if i == 0 else 0.0
                db = hstep if i == 1 else 0.0
                Jp = sp.evaluate(ds, a + da, b + db)[0]
                Jm = sp.evaluate(ds, a - da, b - db)[0]
                fd[i] = (Jp - Jm) / (2 * hstep)
            worst = max(worst,
                        np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-10))
    report(7, "gradient", worst <= 1e-5,
           f"worst relative error {worst:.2e} over 75 points")


def test_criterion_08_monotonicity_and_allpass():
    ok = True
    detail = []
    for sys in (bio.gen_semi_explicit_index1(100, 20, seed=8),
                bio.gen_stokes_index2(5, seed=8)):
        ds0 = DeflatedSystem.from_dae(sys)
        total, rep, ledger = cure.cured_spark(
            sys, cfg=cure.CureConfig(max_steps=6))
        hist = rep["norm_history"]
        mono_up = all(h2_ >= h1 - 1e-12 * max(h2_, 1.0)
                      for h1, h2_ in zip(hist, hist[1:]))
        errs = [h2.h2_error_norm(ds0, cure.assemble_total(ledger.records[:k]))
                for k in range(1, ledger.k + 1)]
        mono_down = all(e2 <= e1 + 1e-10 * max(e1, 1.0)
                        for e1, e2 in zip(errs, errs[1:]))
        spread = 0.0
        for rec in ledger.records:
            gtil = cure.allpass_factor(rec)
            mags = np.array([abs(gtil.eval(1j * w)[0, 0])
                             for w in np.logspace(-2, 3, 60)])
            spread = max(spread, (mags.max() - mags.min()) / mags.max())
        ok = ok and mono_up and mono_down and spread <= 1e-8
        detail.append(f"allpass spread {spread:.2e}")
    report(8, "monotonicity/all-pass", ok, "; ".join(detail))


def test_criterion_09_assembly_equivalence():
    rng = np.random.default_rng(9)
    n = 40
    sys = make_ode(-np.logspace(-1, 3, n), np.ones(n),
                   rng.standard_normal(n))
    total, rep, ledger = cure.cured_spark(
        sys, cfg=cure.CureConfig(max_steps=10, tol_rel=1e-30))
    k = ledger.k
    worst = 0.0
    for _ in range(20):
        s = complex(rng.uniform(0.05, 20), rng.uniform(-50, 50))
        direct = total.eval(s)[0, 0]
        acc = 0.0
        prefactor = 1.0
        for rec in ledger.records:
            acc += rec.rom.eval(s)[0, 0] * prefactor
            prefactor *= cure.allpass_factor(rec).eval(s)[0, 0]
        worst = max(worst, abs(direct - acc) / max(abs(direct), 1e-300))
    report(9, "assembly equivalence", worst <= 1e-10 and k == 10,
           f"worst relative gap {worst:.2e} at k = {k}")


def test_criterion_10_exact_recovery():
    # order 2: one step recovers the model
    sys2 = make_ode([-1.0, -2.0], [1.0, 1.0], [0.25, -0.175])
    cfg = cure.CureConfig(max_steps=1, tol_rel=1e-14,
                          spark_cfg=sp.TrustRegionConfig(gtol=1e-11))
    total2, _, _ = cure.cured_spark(sys2, cfg=cfg)
    err2 = h2.h2_error_norm(DeflatedSystem.from_dae(sys2), total2)

    # order 4: the recoverable family requires the residue content the
    # greedy pair optimizer cannot strip to lie below tolerance (a full
    # local shift optimum is a Hermite interpolant, and a degree-4 error
    # cannot have double zeros at two mirror points), so the fixture is an
    # order-4 realization whose trailing modes carry ~1e-10 residues
    rng = np.random.default_rng(7)
    lam = np.array([-1.0, -2.0, -3.5, -5.0])
    phi = np.array([0.25, -0.175, 5e-11, -4e-11])
    T = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    sys4 = make_ode(lam, np.ones(4), phi, T=T)
    cfg4 = cure.CureConfig(max_steps=2, tol_rel=1e-14,
                           spark_cfg=sp.TrustRegionConfig(gtol=1e-11))
    total4, rep4, led4 = cure.cured_spark(sys4, cfg=cfg4)
    err4 = h2.h2_error_norm(DeflatedSystem.from_dae(sys4), total4)
    ok = err2 <= 1e-8 and err4 <= 1e-8 and led4.k <= 2
    report(10, "exact recovery", ok,
           f"order-2 error {err2:.2e} (1 step), order-4 error {err4:.2e} "
           f"({led4.k} step(s))")


def test_criterion_11_external_benchmark():
    manifest = os.environ.get("DAECURE_BIPS_MANIFEST")
    if not manifest:
        _emit("CRITERION 11 (external benchmark): SKIP  [set "
              "DAECURE_BIPS_MANIFEST to a downloaded power-grid manifest "
              "to enable]")
        pytest.skip("external benchmark not available offline")
    sys = bio.read_system(manifest)
    if sys.m > 1 or sys.p > 1:
        sys = bio.select_channel(sys, 42, 42)
    total, rep, ledger = cure.cured_spark(
        sys, cfg=cure.CureConfig(tol_rel=1e-6, max_steps=40))
    q = total.order + 1  # one extra state for the constant part
    norm = rep["norm_history"][-1]
    ok = q == 33 and abs(norm - 0.97897) <= 0.01 * 0.97897
    report(11, "external benchmark", ok, f"q = {q}, norm = {norm:.5f}")
