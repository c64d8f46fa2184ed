"""The matched velocity-pressure elimination order and its ordered LU."""

import numpy as np
import pytest
import scipy.sparse as sps
from scipy.sparse.csgraph import maximum_bipartite_matching

from daecure import bench_io as bio
from daecure import numkernel as nk
from daecure.errors import SingularShift
from daecure.spark import INIT

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

#: the shifts of the check: the start pair's, 1, and 1e-2i ... 1e4i
SHIFTS = [INIT.shifts()[0], 1.0] + [1j * w for w in np.logspace(-2, 4, 7)]


@pytest.fixture(scope="module", params=[12, 20], ids=["m12", "m20"])
def stokes(request):
    sys = bio.gen_stokes_index2(request.param, 0)
    return sys.A, sys.E, nk.elimination_order(sys.A, sys.E)


@pytest.mark.parametrize("sigma", SHIFTS, ids=lambda s: f"{s:.3g}")
def test_ordered_lu_agrees_with_colamd_and_fills_less(stokes, sigma):
    A, E, order = stokes
    rng = np.random.default_rng(0)
    b = rng.standard_normal((A.shape[0], 2))
    colamd = nk.ShiftedFactorization(A, E, sigma)
    ordered = nk.ShiftedFactorization(A, E, sigma, order)
    x0, x1 = colamd.solve(b), ordered.solve(b)
    # the ordered LU solved it, with no fallback to COLAMD
    assert isinstance(ordered._lu, nk.OrderedLU)
    assert np.linalg.norm(x1 - x0) <= nk.TOL_SOLVE * np.linalg.norm(x0)
    assert ordered._lu.nnz < colamd._lu.nnz


def _saddle(eps):
    """[[eps, 1, 1], [1, eps, 1], [1, 1, 0]]: symmetric pattern, one row
    without a diagonal, and a static pivot eps wherever the order
    starts."""
    M = sps.csc_matrix(np.array([[eps, 1, 1], [1, eps, 1], [1, 1, 0.0]]))
    return M, sps.csc_matrix(M.shape)


@pytest.mark.parametrize("eps, factored", [(1e-13, True), (1e-16, False)],
                         ids=["solve-misses", "lu-fails"])
def test_tiny_static_pivot_solves_through_the_colamd_fallback(eps,
                                                              factored):
    # 1e-13: the ordered LU exists, but its solve misses the residual
    # bound after refinement; 1e-16: the ordered LU itself fails
    M, Z = _saddle(eps)
    order = nk.elimination_order(M, Z)
    assert order is not None and order.size == 3
    fac = nk.ShiftedFactorization(M, Z, 0.0, order)
    assert isinstance(fac._lu, nk.OrderedLU) == factored
    b = np.array([1.0, 2.0, 3.0])
    x = fac.solve(b)
    assert not isinstance(fac._lu, nk.OrderedLU)
    assert np.linalg.norm(M @ x - b) <= nk.TOL_SOLVE * np.linalg.norm(b)


def test_exact_pencil_eigenvalue_raises_singular_shift():
    # v0 = 0 by the constraint, so v1' = -2 v1: sigma = -2 is an
    # eigenvalue, and A + 2E has a zero row
    A = sps.csc_matrix(np.array([[-1.0, 0, 1], [0, -2, 0], [1, 0, 0]]))
    E = sps.csc_matrix(np.diag([1.0, 1, 0]))
    order = nk.elimination_order(A, E)
    assert order is not None and order.size == 3
    with pytest.raises(SingularShift):
        nk.ShiftedFactorization(A, E, -2.0, order)


@st.composite
def symmetric_pencils(draw):
    """(A, E) with a structurally symmetric |A| + |E|: a random symmetric
    pattern for A, some of its diagonal dropped, and E diagonal on a few
    rows."""
    n = draw(st.integers(2, 24))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    P = np.triu(rng.random((n, n)) < draw(st.floats(0.05, 0.6)), 1)
    P = P | P.T
    np.fill_diagonal(P, rng.random(n) < draw(st.floats(0.2, 0.9)))
    A = np.where(P, rng.uniform(0.5, 2.0, (n, n)), 0.0)
    e = np.where(np.diag(P) & (rng.random(n) < 0.3), 1.0, 0.0)
    return sps.csc_matrix(A), sps.diags(e, format="csc")


def _maximum_matching(A, E):
    """Size of a maximum matching of the rows of |A| + |E| without a
    diagonal to distinct neighbours with one."""
    G = (abs(A) + abs(E)).toarray() != 0
    diag = np.diag(G)
    B = sps.csr_matrix(G[~diag][:, diag])
    if not B.shape[0] or not B.shape[1]:
        return 0
    return int(np.sum(maximum_bipartite_matching(B) >= 0))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(symmetric_pencils())
def test_order_is_a_permutation_with_each_matched_row_after_its_partner(
        pencil):
    A, E = pencil
    n = A.shape[0]
    order = nk.elimination_order(A, E)
    G = (abs(A) + abs(E)).toarray() != 0
    diag = np.diag(G)
    if diag.all():
        # nothing to merge: SuperLU orders the matrix itself
        assert order is not None and order.size == 0
        return
    assert np.array_equal(np.sort(order), np.arange(n))
    # a row without a diagonal that directly follows a neighbour with one
    # is matched to it; a maximum matching leaves no free pair adjacent
    after = [k for k in range(1, n) if not diag[order[k]]
             and diag[order[k - 1]] and G[order[k], order[k - 1]]]
    assert len(after) == _maximum_matching(A, E)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(symmetric_pencils(), st.data())
def test_unsymmetric_pattern_gets_no_order(pencil, data):
    A, E = pencil
    n = A.shape[0]
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1).filter(lambda k: k != i))
    A = A.tolil()
    A[i, j] = 0.0
    A[j, i] = 0.0
    A[i, j] = 1.0
    A = sps.csc_matrix(A)
    A.eliminate_zeros()
    assert nk.elimination_order(A, E) is None
    assert nk.elimination_order(A.toarray(), E.toarray()) is None
