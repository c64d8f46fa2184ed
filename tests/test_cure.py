import dataclasses
import weakref

import numpy as np
import pytest
import scipy.sparse as sps

from daecure import bench_io as bio
from daecure import cure
from daecure import daemodel as dm
from daecure import numkernel as nk
from daecure import spark as sp
from daecure.errors import DimensionMismatch, SingularShift
from daecure.interp import DeflatedSystem
from daecure.pork import pork_input

from conftest import make_ode, make_random_stable_ode, spark_gtol
from oracles import allpass_factor, h2_error_norm, transfer


def run_cure(sys, max_steps=4, tol=1e-12):
    cfg = cure.CureConfig(max_steps=max_steps, tol_rel=tol)
    return cure.cured_spark(DeflatedSystem.from_dae(sys), cfg)


def spread_pole_system(n=40, seed=0):
    """Poles over four decades: cumulative reduction needs many healthy
    steps before stagnating, which exercises deep assemblies."""
    rng = np.random.default_rng(seed)
    return make_ode(-np.logspace(-1, 3, n), np.ones(n),
                    rng.standard_normal(n))


def test_total_assembly_equals_cascade():
    # evaluating the assembled total model must match the telescoping sum
    # G_r,tot = sum_k G_r(k-th step applied to the depleted input)
    report, ledger = run_cure(spread_pole_system(), max_steps=6,
                              tol=1e-30)
    total = cure.assemble_total(ledger.records)
    rng = np.random.default_rng(0)
    for _ in range(10):
        s = complex(rng.uniform(0.1, 5), rng.uniform(-10, 10))
        direct = total.eval(s)
        cascade = sum(rec.rom.eval(s) for rec in ledger.records)
        # the cascade couplings add the all-pass depletion of earlier steps
        acc = np.zeros_like(direct)
        prefactor = np.eye(total.m)
        for rec in ledger.records:
            acc = acc + rec.rom.eval(s) @ prefactor
            gtil = allpass_factor(rec)
            prefactor = gtil.eval(s) @ prefactor
        assert np.linalg.norm(direct - acc) <= 1e-10 * max(
            np.linalg.norm(direct), 1.0)


def test_error_factorization():
    # G - G_r,tot(k) = G_perp(k) * prod_j allpass_j
    ds0 = DeflatedSystem.from_dae(spread_pole_system())
    report, ledger = cure.cured_spark(
        ds0, cure.CureConfig(max_steps=5, tol_rel=1e-30))
    total = cure.assemble_total(ledger.records)
    rng = np.random.default_rng(1)
    for _ in range(5):
        s = complex(rng.uniform(0.2, 3), rng.uniform(-5, 5))
        err = transfer(ds0)(s) - total.eval(s)
        rhs = transfer(ledger.ds)(s)  # G_perp after all steps
        for rec in ledger.records:
            rhs = rhs @ allpass_factor(rec).eval(s)
        assert np.linalg.norm(err - rhs) <= 1e-8 * max(np.linalg.norm(err), 1e-8)


def test_allpass_magnitude_constant(index1_small):
    report, ledger = run_cure(index1_small, max_steps=2)
    gtil = allpass_factor(ledger.records[0])
    mags = [abs(gtil.eval(1j * w)[0, 0])
            for w in np.logspace(-3, 3, 50)]
    assert max(mags) - min(mags) <= 1e-8 * max(mags)


def test_norm_history_monotone_and_stable(index1_small):
    report, ledger = run_cure(index1_small, max_steps=5, tol=1e-6)
    total = cure.assemble_total(ledger.records)
    hist = report["norm_history"]
    assert all(h2_ >= h1 - 1e-12 * max(h2_, 1.0)
               for h1, h2_ in zip(hist, hist[1:]))
    poles = total.poles()
    assert np.all(poles.real < 0)
    # per-step error norms nonincreasing
    errs = []
    ds0 = DeflatedSystem.from_dae(index1_small)
    for k in range(1, ledger.k + 1):
        part = cure.assemble_total(ledger.records[:k])
        errs.append(h2_error_norm(ds0, part))
    assert all(e2 <= e1 + 1e-10 for e1, e2 in zip(errs, errs[1:]))


def test_stagnation_stop(index1_small):
    report, ledger = run_cure(index1_small, max_steps=20, tol=1e-6)
    assert report["stop_reason"] in ("tolerance", "degenerate")
    assert report["k"] < 20


def test_exact_recovery_order2():
    sys = make_ode([-1.0, -2.0], [1.0, 1.0], [0.25, -0.175])
    ds0 = DeflatedSystem.from_dae(sys)
    cfg = cure.CureConfig(max_steps=1, tol_rel=1e-14)
    with spark_gtol(1e-11):
        report, ledger = cure.cured_spark(ds0, cfg)
        total = cure.assemble_total(ledger.records)
    assert h2_error_norm(ds0, total) <= 1e-8


def test_degenerate_input_flagged():
    # zero input residual: the very first step is degenerate
    sys = make_ode([-1.0, -2.0], [0.0, 0.0], [1.0, 1.0])
    report, ledger = run_cure(sys, max_steps=5)
    assert report["flagged"]
    assert report["stop_reason"] == "degenerate"


def test_report_contents(index1_small):
    report, ledger = run_cure(index1_small, max_steps=3, tol=1e-6)
    assert report["order"] == 2 * report["k"]
    for step in report["steps"]:
        assert step["a"] > 0 and step["b"] > 0
        assert len(step["shifts"]) == 2
        assert all(complex(s).real > 0 for s in step["shifts"])
    assert len(report["norm_history"]) == report["k"]
    assert report["runtime_s"] >= 0


def _result_at(ds, a, b):
    """An unoptimized SparkResult for the shift pair (a, b): SPARK stops
    at its start pair."""
    with spark_gtol(1e30):
        return sp.spark(ds, init=sp.SparkParams(a, b))


@pytest.mark.parametrize("fixture", ["index1_small", "stokes_small"])
def test_cure_step_makes_no_factorization(fixture, request, factor_log):
    # the step certificate comes from the factorizations of the point's
    # own evaluation: one complex LU for a conjugate pair, two real LUs
    # for a real pair, and none in cure_step
    ledger = cure.CureLedger(
        DeflatedSystem.from_dae(request.getfixturevalue(fixture)))
    for a, b in ((0.5, 4.0), (2.0, 3.0)):     # conjugate pair, real pair
        del factor_log[:]
        res = _result_at(ledger.ds, a, b)
        if b > a * a:
            assert len(factor_log) == 1 and factor_log[0].imag != 0.0
        else:
            assert np.allclose(sorted(s.real for s in factor_log), [1.0, 3.0],
                               rtol=1e-12, atol=0)
            assert all(s.imag == 0.0 for s in factor_log)
        del factor_log[:]
        cure.cure_step(ledger, res)
        assert factor_log == []
        assert ledger.records[-1].interp_residual <= 1e-10


@pytest.mark.parametrize("fixture", ["index1_small", "stokes_small"])
def test_step_certificate_can_fail(fixture, request, monkeypatch):
    sys = request.getfixturevalue(fixture)
    report, ledger = run_cure(sys, max_steps=3, tol=1e-6)
    assert all(rec.interp_residual <= 1e-10 for rec in ledger.records)

    def wrong_rom(V, data, C):
        rom = pork_input(V, data, C)
        return dataclasses.replace(rom, Cr=1.01 * rom.Cr)

    monkeypatch.setattr(cure, "pork_input", wrong_rom)
    ledger = cure.CureLedger(DeflatedSystem.from_dae(sys))
    cure.cure_step(ledger, sp.spark(ledger.ds))
    assert ledger.records[-1].interp_residual >= 1e-3


def test_cured_spark_leaves_the_callers_input(index1_small):
    ds = DeflatedSystem.from_dae(index1_small)
    B_defl = ds.B_defl.copy()
    report, ledger = cure.cured_spark(ds, cure.CureConfig(max_steps=2))
    assert ledger.k >= 1 and not np.array_equal(ledger.ds.B_defl, B_defl)
    assert np.array_equal(ds.B_defl, B_defl)


def test_cured_spark_without_steps_has_nothing_to_assemble(index1_small,
                                                           factor_log):
    # the CLI rejects --max-steps < 1; a library caller gets the typed
    # error of the empty assembly before anything is factored
    ds = DeflatedSystem.from_dae(index1_small)
    del factor_log[:]
    with pytest.raises(DimensionMismatch, match="no records to assemble"):
        cure.cured_spark(ds, cure.CureConfig(max_steps=0))
    assert factor_log == []


def test_assembly_places_the_polynomial_block_last(index1_small):
    # the polynomial part is an uncoupled last block: the assembled model
    # is the strictly proper total plus the constant P
    _, ledger = run_cure(index1_small, max_steps=3, tol=1e-6)
    P = DeflatedSystem.from_dae(index1_small).poly.constant
    assert np.any(P)
    poly = dm.realize_constant_poly(P)
    strictly = cure.assemble_total(ledger.records)
    total = cure.assemble_total(ledger.records, poly)
    assert total.order == sum(rec.rom.order for rec in ledger.records) \
        + poly.order
    assert not np.any(total.Ar[strictly.order:, :strictly.order])
    for s in (0.3 + 2j, 1.0, 0.1 + 5j):
        want = strictly.eval(s) + P
        assert np.linalg.norm(total.eval(s) - want) \
            <= 1e-12 * max(np.linalg.norm(want), 1.0)


def test_cured_spark_rejects_multi_input():
    with pytest.raises(DimensionMismatch):
        run_cure(make_random_stable_ode(10, seed=0, m=2))


@pytest.mark.parametrize("gtol", [sp.GTOL, 1e30], ids=["moving", "at-start"])
@pytest.mark.parametrize("fixture", ["index1_small", "stokes_small"])
def test_one_spark_context_alive_at_a_time(fixture, gtol, request,
                                           monkeypatch):
    # every factorization of the full pencil is made for the context
    # under construction while no other full-model context is alive, and
    # none outlives cured_spark; the surrogate's contexts factor its own
    # small pencil.  gtol = 1e30 hands each step's context to the next
    # step
    ds = DeflatedSystem.from_dae(request.getfixturevalue(fixture))
    contexts, alive = [], []
    ctx_init = nk.SylvesterContext.__init__
    fac_init = nk.ShiftedFactorization.__init__

    def tracked_ctx(self, A, E, S):
        if A.shape[0] == ds.n:
            contexts.append(weakref.ref(self))
        ctx_init(self, A, E, S)

    def tracked_fac(self, A, E, sigma):
        if A.shape[0] == ds.n:
            alive.append(sum(ref() is not None for ref in contexts))
        fac_init(self, A, E, sigma)

    monkeypatch.setattr(nk.SylvesterContext, "__init__", tracked_ctx)
    monkeypatch.setattr(nk.ShiftedFactorization, "__init__", tracked_fac)
    with spark_gtol(gtol):
        cure.cured_spark(ds, cure.CureConfig(max_steps=3, tol_rel=1e-6))
    assert alive and alive == [1] * len(alive)
    assert all(ref() is None for ref in contexts)


@pytest.mark.parametrize("fixture", ["index1_small", "stokes_small"])
def test_steps_returned_at_the_start_share_one_factorization(
        fixture, request, factor_log):
    # every SPARK call stops at its start pair (1e-4, 1e-4), a conjugate
    # pair: one complex LU serves every step's evaluation and certificate
    ds = DeflatedSystem.from_dae(request.getfixturevalue(fixture))
    del factor_log[:]
    with spark_gtol(1e30):
        report, ledger = cure.cured_spark(
            ds, cure.CureConfig(max_steps=3, tol_rel=0.0))
    assert report["k"] == 3
    assert [st["iterations"] for st in report["steps"]] == [0, 0, 0]
    assert len(factor_log) == 1 and factor_log[0].imag != 0.0
    assert all(rec.interp_residual <= 1e-10 for rec in ledger.records)


def _count_certificates(monkeypatch):
    """The order of SPARK calls and certificates (cure_step's
    check_interpolation calls) during the test."""
    calls = []
    check, spark = cure.check_interpolation, sp.spark

    def counting_check(*args):
        calls.append("certificate")
        return check(*args)

    def counting_spark(*args, **kwargs):
        calls.append("spark")
        return spark(*args, **kwargs)

    monkeypatch.setattr(cure, "check_interpolation", counting_check)
    monkeypatch.setattr(sp, "spark", counting_spark)
    return calls


@pytest.mark.parametrize("fixture", ["index1_small", "stokes_small"])
def test_one_certificate_per_spark_call(fixture, request, monkeypatch):
    # each folded step is certified once, after its SPARK call; the call
    # whose result the stagnation stop discards is certified never
    calls = _count_certificates(monkeypatch)
    report, _ = run_cure(request.getfixturevalue(fixture), max_steps=3,
                         tol=1e-6)
    assert sum(st["iterations"] for st in report["steps"]) > 0
    assert report["stop_reason"] in ("tolerance", "degenerate")
    assert calls == ["spark", "certificate"] * report["k"] + ["spark"]


def test_certificates_equal_steps_on_index1_250(monkeypatch):
    # the benchmark's index-1 system (n1 = 250, n2 = 50, generator seed 0)
    # folds five steps and discards a sixth SPARK call
    calls = _count_certificates(monkeypatch)
    ds = DeflatedSystem.from_dae(bio.gen_semi_explicit_index1(250, 50, 0))
    report, ledger = cure.cured_spark(ds, cure.CureConfig())
    assert report["k"] == 5 and report["stop_reason"] == "tolerance"
    assert calls.count("certificate") == report["k"]
    assert calls.count("spark") == report["k"] + 1
    assert max(rec.interp_residual for rec in ledger.records) <= 1e-10
    assert report["norm_history"][-1] >= 0.12634574099
    # every step after the first starts on the surrogate, and its optimum
    # is the one full-model point the step needs
    assert [st["full_evaluations"] for st in report["steps"][1:]] \
        == [1] * (report["k"] - 1)


def _log_spark_calls(monkeypatch):
    """(LUs handed over, surrogate basis width, result) of every SPARK
    call cured_spark makes during the test, the width taken at the call."""
    calls = []
    spark = sp.spark

    def logged(d, init, reuse, basis):
        handed, width = reuse.ctx is not None, basis.W.shape[1]
        res = spark(d, init=init, reuse=reuse, basis=basis)
        calls.append((handed, width, res))
        return res

    monkeypatch.setattr(sp, "spark", logged)
    return calls


def _at_start(shifts):
    """The shifts that are the start pair's."""
    start = sp.INIT.shifts()
    return [s for s in shifts
            if np.min(np.abs(start - s)) <= 1e-12 * abs(start[0])]


@pytest.mark.parametrize("fixture", ["index1_small", "stokes_small"])
def test_later_steps_start_on_the_surrogate(fixture, request, monkeypatch,
                                            factor_log):
    # the full pencil is factored at the start pair once, before the
    # first step: a later SPARK call that is handed no LUs runs the
    # surrogate from the start pair first, and its first full-model
    # point is the surrogate's optimum
    calls = _log_spark_calls(monkeypatch)
    report, ledger = run_cure(request.getfixturevalue(fixture),
                              max_steps=3, tol=1e-12)
    assert report["k"] == 3
    assert len(_at_start(factor_log)) == 1
    later = [res for handed, width, res in calls if width and not handed]
    assert later
    for res in later:
        first = res.evaluations[0]
        assert (first["a"], first["b"]) != (sp.INIT.a, sp.INIT.b)
        assert (res.trace[0]["a"], res.trace[0]["b"]) \
            == (sp.INIT.a, sp.INIT.b)
    assert all(rec.interp_residual <= 1e-10 for rec in ledger.records)


def test_surrogate_singular_at_the_start_falls_back_to_the_full_model(
        index1_small, monkeypatch):
    # a surrogate with a pole at the start pair cannot start the search:
    # the full model is evaluated there, as in the first step, and the
    # step still certifies
    calls = _log_spark_calls(monkeypatch)
    armed = []
    spark, kron_init = sp.spark, nk.KroneckerSylvester.__init__

    def arm(*args, **kwargs):
        # the first surrogate point of a call on a kept basis is singular
        armed[:] = [kwargs["basis"].W.shape[1] > 0]
        return spark(*args, **kwargs)

    def singular_at_start(self, A, E, S):
        if armed and armed.pop():
            assert np.array_equal(S, sp.INIT.S)
            raise SingularShift("the start pair is a pole of the surrogate")
        kron_init(self, A, E, S)

    monkeypatch.setattr(sp, "spark", arm)
    monkeypatch.setattr(nk.KroneckerSylvester, "__init__", singular_at_start)
    report, ledger = run_cure(index1_small, max_steps=3, tol=1e-12)
    later = [res for handed, width, res in calls if width and not handed]
    assert report["k"] >= 2 and later
    for res in later:
        first = res.evaluations[0]
        assert (first["a"], first["b"]) == (sp.INIT.a, sp.INIT.b)
        assert res.trace[0]["J"] == first["J"]
    assert all(rec.interp_residual <= 1e-10 for rec in ledger.records)


def test_dense_kernel_only_for_densely_filled_pencils():
    # the kernel is read off the SuperLU LU at the start pair: index-1
    # 250/50 fills 83 % of n^2 and gets LAPACK LUs, Stokes m=12 fills 11 %
    # and stays sparse, and above DENSE_LIMIT nothing is densified, however
    # full its factors
    n = nk.DENSE_LIMIT + 1
    full = sps.csc_matrix(np.random.default_rng(0).standard_normal((n, n))
                          - 70 * np.eye(n))
    index1 = bio.gen_semi_explicit_index1(250, 50, 0)
    stokes = bio.gen_stokes_index2(12, 0)
    for A, E, dense in ((index1.A, index1.E, True),
                        (stokes.A, stokes.E, False),
                        (full, sps.eye(n, format="csc"), False)):
        fac = nk.ShiftedFactorization(A, E, sp.INIT.shifts()[0])
        fill = fac._lu.nnz / fac.n ** 2
        assert (fill >= nk.DENSE_FILL) == (dense or fac.n > nk.DENSE_LIMIT)
        A2, E2 = nk.cheapest_pencil(A, E, fac)
        if dense:
            assert np.array_equal(A2, A.toarray())
            assert np.array_equal(E2, E.toarray())
        else:
            assert A2 is A and E2 is E


def test_cured_spark_densifies_only_its_copy(monkeypatch):
    # on index-1 250/50 the start pair's LU is the one SuperLU LU of the
    # full pencil: the ledger's copy holds A and E dense, every later
    # point gets LAPACK LUs, and the caller's system stays sparse
    ds = DeflatedSystem.from_dae(bio.gen_semi_explicit_index1(250, 50, 0))
    superlu = []
    splu = nk.spsla.splu

    def logged_splu(M, *args, **kwargs):
        superlu.append(M.shape)
        return splu(M, *args, **kwargs)

    monkeypatch.setattr(nk.spsla, "splu", logged_splu)
    report, ledger = cure.cured_spark(ds, cure.CureConfig(max_steps=2))
    assert report["k"] == 2
    assert superlu == [(ds.n, ds.n)]
    assert isinstance(ledger.ds.A, np.ndarray)
    assert isinstance(ledger.ds.E, np.ndarray)
    assert sps.issparse(ds.A) and sps.issparse(ds.E)


def test_one_surrogate_basis_serves_every_step(index1_small, monkeypatch):
    # A and E never change, so the basis of the SPARK surrogate is kept
    # across CURE steps and only grows
    bases, widths = [], []
    spark = sp.spark

    def keep_basis(*args, **kwargs):
        bases.append(kwargs["basis"])
        res = spark(*args, **kwargs)
        widths.append(kwargs["basis"].W.shape[1])
        return res

    monkeypatch.setattr(sp, "spark", keep_basis)
    report, _ = run_cure(index1_small, max_steps=4, tol=1e-30)
    assert report["k"] >= 2
    assert all(b is bases[0] for b in bases)
    assert widths == sorted(widths) and widths[0] > 0


def test_report_counts_iterations_and_rejections(stokes_small, monkeypatch):
    # the SPARK trace behind each step's counters: iteration 0 is the
    # start pair, every later record one trust-region iteration on the
    # surrogate, so `iterations` and `rejected` count those; every
    # full-model point is one of `full_evaluations`
    results = []
    spark = sp.spark

    def keep_result(*args, **kwargs):
        res = spark(*args, **kwargs)
        results.append(res)
        return res

    monkeypatch.setattr(sp, "spark", keep_result)
    report, _ = run_cure(stokes_small, max_steps=3, tol=1e-6)
    steps = report["steps"]
    assert any(st["rejected"] > 0 for st in steps)
    assert any(st["full_evaluations"] > 1 for st in steps)
    for st, res in zip(steps, results):
        trace = res.trace
        assert st["iterations"] == len(trace) - 1 == trace[-1]["iter"]
        assert st["rejected"] == sum(not r["accepted"] for r in trace[1:])
        assert st["full_evaluations"] == len(res.evaluations)
        assert st["iterations"] >= st["full_evaluations"] - 1
