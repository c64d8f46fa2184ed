import dataclasses

import numpy as np
import pytest

from daecure import bench_io as bio
from daecure import interp
from daecure import numkernel as nk
from daecure import spark as sp
from daecure.spark import SparkParams

from conftest import basis_at
from oracles import sylvester_residual, transfer


def test_spark_basis_sylvester_residual(index1_small):
    ds = interp.DeflatedSystem.from_dae(index1_small)
    V, pair = basis_at(ds, 1.3, 0.9)
    assert sylvester_residual(ds, V, pair) <= 1e-12


def test_spark_matrices_encode_shift_pair():
    # [DERIVED] eigenvalues of S are a +- sqrt(a^2 - b)
    a, b = 2.0, 3.0
    pair = SparkParams(a, b)
    w = np.sort_complex(np.linalg.eigvals(pair.S))
    d = np.lib.scimath.sqrt(a * a - b)
    expect = np.sort_complex(np.array([a - d, a + d]))
    assert np.allclose(w, expect, atol=1e-12)
    assert np.allclose(np.sort_complex(pair.shifts()), expect, atol=1e-12)


def test_interpolation_at_distinct_real_shifts(index1_small):
    ds = interp.DeflatedSystem.from_dae(index1_small)
    V, pair = basis_at(ds, 2.0, 3.0)  # a^2 > b: real shifts
    from daecure.pork import check_interpolation, pork_input
    rom = pork_input(V, pair, ds.C)
    assert max(check_interpolation(transfer(ds), rom,
                                   pair.shifts())) <= 1e-10


def test_interpolation_at_complex_pair(stokes_small):
    ds = interp.DeflatedSystem.from_dae(stokes_small)
    V, pair = basis_at(ds, 0.5, 4.0)  # a^2 < b: complex pair
    from daecure.pork import check_interpolation, pork_input
    rom = pork_input(V, pair, ds.C)
    assert max(check_interpolation(transfer(ds), rom,
                                   pair.shifts())) <= 1e-10


def test_basis_smooth_through_confluence(index1_small):
    # a^2 = b merges the shifts; Sylvester route must stay finite/continuous
    ds = interp.DeflatedSystem.from_dae(index1_small)
    a = 1.5
    V0, _ = basis_at(ds, a, a * a)
    Vm, _ = basis_at(ds, a, a * a * (1 - 1e-7))
    assert np.linalg.norm(V0 - Vm) <= 1e-4 * np.linalg.norm(V0)



def test_spark_alone_gets_the_kernel_the_system_picks(monkeypatch):
    # index-1 250/50 fills at least DENSE_FILL n^2 under SuperLU: a fresh
    # system makes its first context's LU on the sparse pencil and every
    # later context's with LAPACK, whoever drives the search
    ds = interp.DeflatedSystem.from_dae(bio.gen_semi_explicit_index1(250, 50,
                                                                     0))
    contexts = []
    ctx_init = nk.SylvesterContext.__init__

    def logged(self, pencil, pair):
        ctx_init(self, pencil, pair)
        contexts.append([isinstance(f._lu, nk.DenseLU) for f in self.factors])

    monkeypatch.setattr(nk.SylvesterContext, "__init__", logged)
    assert ds.pencil is None
    sp.spark(ds)
    assert len(contexts) >= 2
    assert contexts[0] == [False]
    assert all(all(dense) for dense in contexts[1:])
    assert ds.pencil.dense and ds.kept.pencil is ds.pencil


def test_a_copy_prepares_its_own_pencil(index1_small):
    # neither the pencil nor the kept LUs are passed in or copied: a
    # replace copy of a used system prepares and decides its own
    ds = interp.DeflatedSystem.from_dae(index1_small)
    ds.sylvester(SparkParams(1.3, 0.9))
    assert ds.pencil is not None and ds.kept is not None
    copy = dataclasses.replace(ds)
    assert copy.pencil is None and copy.kept is None
    with pytest.raises(TypeError):
        interp.DeflatedSystem(A=ds.A, E=ds.E, B_defl=ds.B_defl, C=ds.C,
                              poly=ds.poly, pencil=ds.pencil)
