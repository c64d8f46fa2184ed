"""The prepared pencil: its matched velocity-pressure elimination order,
its shifted matrices and its ordered LU."""

import numpy as np
import pytest
import scipy.sparse as sps
import scipy.sparse.linalg as spsla
from scipy.sparse.csgraph import maximum_bipartite_matching

from daecure import bench_io as bio
from daecure import numkernel as nk
from daecure.errors import SingularShift
from daecure.spark import INIT

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # only the property tests at the end need it
    hypothesis = None

#: the shifts of the check: the start pair's, 1, and 1e-2i ... 1e4i
SHIFTS = [INIT.shifts()[0], 1.0] + [1j * w for w in np.logspace(-2, 4, 7)]


@pytest.fixture(scope="module", params=[12, 20], ids=["m12", "m20"])
def stokes(request):
    sys = bio.gen_stokes_index2(request.param, 0)
    return sys.A, sys.E, nk.Pencil(sys.A, sys.E)


@pytest.mark.parametrize("sigma", SHIFTS, ids=lambda s: f"{s:.3g}")
def test_ordered_lu_agrees_with_colamd_and_fills_less(stokes, sigma):
    A, E, pencil = stokes
    rng = np.random.default_rng(0)
    b = rng.standard_normal((A.shape[0], 2))
    M = (A - sigma * E).tocsc()
    colamd = spsla.splu(M)
    ordered = nk.ShiftedFactorization(pencil, sigma)
    x0, x1 = colamd.solve(b.astype(M.dtype)), ordered.solve(b)
    # the ordered LU solved it, with no fallback to COLAMD
    assert isinstance(ordered._lu, nk.OrderedLU)
    assert np.linalg.norm(x1 - x0) <= nk.TOL_SOLVE * np.linalg.norm(x0)
    assert ordered._lu.nnz < colamd.nnz


@pytest.mark.parametrize("sigma", SHIFTS, ids=lambda s: f"{s:.3g}")
def test_ordered_lu_setting_fills_no_more_than_superlu_defaults(stokes,
                                                                sigma):
    # ORDERED_RELAX and ORDERED_PANEL against SuperLU's default supernode
    # relaxation and panel width, on the same permuted matrix with the
    # same column order and diagonal pivots
    _, _, pencil = stokes
    M = pencil.at(sigma)
    default = spsla.splu(M, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    lu = nk.OrderedLU(M, pencil.order)
    b = np.random.default_rng(0).standard_normal((pencil.n, 2))
    b = b.astype(M.dtype)
    x0, x1 = default.solve(b), lu.solve(b)
    assert lu.nnz <= default.nnz
    assert np.linalg.norm(x1 - x0) <= nk.TOL_SOLVE * np.linalg.norm(x0)


@pytest.mark.parametrize("sigma", [0.7, 0.3 - 1.1j], ids=["real", "complex"])
def test_pencil_at_is_the_permuted_shifted_matrix(stokes, sigma):
    # the prepared pattern is P (A - sigma E) P^T for the order's
    # permutation P, sorted, real for a real shift; a dense pencil gives
    # the Fortran-ordered A - sigma E itself
    A, E, pencil = stokes
    assert pencil.perm is not None and pencil.perm is pencil.order
    p = pencil.perm
    M = pencil.at(sigma)
    assert M.format == "csc" and M.has_sorted_indices
    assert (M.dtype.kind == "c") == (np.imag(sigma) != 0)
    assert np.array_equal(M.toarray(),
                          (A - sigma * E).toarray()[np.ix_(p, p)])
    D = nk.Pencil(A.toarray(), E.toarray()).at(sigma)
    assert D.flags.f_contiguous
    assert np.array_equal(D, (A - sigma * E).toarray())


def test_cancelled_entry_stays_in_the_prepared_pattern(stokes):
    # at sigma = a_kk / e_kk the diagonal entry (k, k) of A - sigma E is an
    # exact zero (here every velocity diagonal entry is): SciPy's
    # difference drops them, the prepared pattern keeps them, and the
    # solve still meets the residual bound
    A, E, pencil = stokes
    k = 0
    sigma = A[k, k] / E[k, k]
    assert A[k, k] - sigma * E[k, k] == 0.0
    M = pencil.at(sigma)
    zeros = np.count_nonzero(M.data == 0.0)
    assert zeros >= 1
    assert M.nnz == pencil.a.size == (A - sigma * E).nnz + zeros
    i = np.flatnonzero(pencil.perm == k)[0]
    assert M[i, i] == 0.0
    b = np.random.default_rng(1).standard_normal((pencil.n, 2))
    x = nk.ShiftedFactorization(pencil, sigma).solve(b)
    assert np.all(np.linalg.norm((A - sigma * E) @ x - b, axis=0)
                  <= nk.TOL_SOLVE * np.linalg.norm(b, axis=0))


#: the fill of the ordered LU at sigma = 1, by pencil order: Stokes m=12
#: (n = 431) and m=20 (n = 1 199)
ORDERED_FILL = {431: 13_890, 1199: 51_550}


def test_ordered_lu_fill_at_one(stokes):
    # the matching's preference for the partner with the most neighbours
    # sets this fill; a matching that picks other partners fills more
    _, _, pencil = stokes
    fac = nk.ShiftedFactorization(pencil, 1.0)
    assert isinstance(fac._lu, nk.OrderedLU)
    assert fac._lu.nnz <= ORDERED_FILL[pencil.n]


def _pattern(n, edges, diag):
    """The symmetric CSC pattern of ``edges`` plus the diagonal entries
    ``diag``, and the mask of rows with one."""
    G = np.zeros((n, n))
    for i, j in edges:
        G[i, j] = G[j, i] = 1.0
    has = np.isin(np.arange(n), diag)
    G[has, has] = 1.0
    return sps.csc_matrix(G), has


@pytest.mark.parametrize("edges, partner", [
    # candidate 1 has 2 neighbours (0, 3), candidate 2 has 3 (0, 3, 4)
    ([(0, 1), (0, 2), (1, 3), (2, 3), (2, 4)], 2),
    # both have 2 (0, 3): the lower index
    ([(0, 1), (0, 2), (1, 3), (2, 3)], 1),
], ids=["most-neighbours", "lowest-index"])
def test_pressure_row_gets_the_candidate_with_most_neighbours(edges,
                                                              partner):
    G, diag = _pattern(5, edges, [1, 2, 3, 4])
    assert nk._match(G, diag).tolist() == [partner, -1, -1, -1, -1]


def test_pattern_without_diagonal_matches_nothing():
    G, diag = _pattern(4, [(0, 1), (0, 2), (1, 2), (2, 3)], [])
    assert nk._match(G, diag).tolist() == [-1] * 4
    order = nk.Pencil(G, sps.csc_matrix(G.shape)).order
    assert np.array_equal(np.sort(order), np.arange(4))


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
    pencil = nk.Pencil(M, Z)
    assert pencil.order is not None and pencil.order.size == 3
    fac = nk.ShiftedFactorization(pencil, 0.0)
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
    pencil = nk.Pencil(A, E)
    assert pencil.order is not None and pencil.order.size == 3
    with pytest.raises(SingularShift):
        nk.ShiftedFactorization(pencil, -2.0)


if hypothesis is None:
    @pytest.mark.skip(reason="the property tests below need hypothesis")
    def test_properties_need_hypothesis():
        pass
else:
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
        order = nk.Pencil(A, E).order
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
        assert nk.Pencil(A, E).order is None
        assert nk.Pencil(A.toarray(), E.toarray()).order is None


    @hypothesis.settings(max_examples=150, deadline=None,
                         suppress_health_check=[hypothesis.HealthCheck.
                                                filter_too_much])
    @hypothesis.given(symmetric_pencils(),
                      st.sampled_from([-1.5, 0.7, 0.4 + 1.3j]))
    def test_prepared_pencil_solves_agree_with_dense_solves(pencil, sigma):
        # whichever LU the prepared pencil gets (ordered, MMD or the COLAMD
        # fallback), its solves are those of the dense matrix, to the
        # residual bound times the condition number
        A, E = pencil
        M = (A - sigma * E).toarray()
        cond = np.linalg.cond(M)
        hypothesis.assume(cond < 1e10)
        b = np.random.default_rng(0).standard_normal((A.shape[0], 2))
        x = nk.ShiftedFactorization(nk.Pencil(A, E), sigma).solve(b)
        want = np.linalg.solve(M, b)
        assert np.linalg.norm(x - want) \
            <= 2 * cond * (nk.TOL_SOLVE + 1e-14) * np.linalg.norm(want)
