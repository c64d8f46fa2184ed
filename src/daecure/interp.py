"""The deflated system that the reduction works on.

A reduction basis V of a shift pair solves the sparse-dense Sylvester
equation

    A V - E V S = B R

with the pair's closed-form (S, R) (``spark.SparkParams``); B is the
input deflated onto the proper subspace, which ``DeflatedSystem`` carries
along with A, E, C and the polynomial part split off with it.  The
system also owns its pencil and its LUs, and picks their kernel from
its first LU (``nk.cheapest_pencil``).  It keeps one pair's
``nk.SylvesterContext``, so every full-model point at that pair shares
one factorization, and no other pair's LUs are alive.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps

from . import daemodel as dm
from . import numkernel as nk


@dataclass
class DeflatedSystem:
    """Sparse system data with the input deflated onto the proper subspace.

    ``B_defl`` starts as Pi_l^f B and is depleted step by step during
    cumulative reduction; A, E, C never change.  ``poly`` is the
    polynomial part split off with it.  ``pencil`` is the ``nk.Pencil``
    of every full-model LU after the first: ``nk.cheapest_pencil`` of
    that LU, a dense one of the same A and E where LAPACK LUs are
    cheaper.  ``kept`` is the ``nk.SylvesterContext`` that ``sylvester``
    made last, or None.  Neither is passed in; a ``dataclasses.replace``
    copy starts with neither.
    """

    A: sps.csc_matrix
    E: sps.csc_matrix
    B_defl: np.ndarray
    C: np.ndarray
    poly: dm.PolyPart
    pencil: nk.Pencil | None = field(default=None, init=False,
                                     repr=False, compare=False)
    kept: nk.SylvesterContext | None = field(default=None, init=False,
                                             repr=False, compare=False)

    @classmethod
    def from_dae(cls, sys: dm.DaeSystem):
        """Build the projectors and keep the split of the transfer
        function; the saddle-point factorization is released on return."""
        kit = dm.build_projectors(sys)
        return cls(A=sys.A, E=sys.E, B_defl=kit.B_defl, C=sys.C.toarray(),
                   poly=kit.poly)

    def sylvester(self, pair) -> nk.SylvesterContext:
        """The Sylvester context of ``pencil`` at ``pair``: the kept one
        if it is ``pair``'s, else a new one (the first on a sparse
        ``nk.Pencil``), made after the kept one is dropped and kept in
        its place.  Its LUs stay valid while A and E hold the same pencil."""
        if self.kept is None or self.kept.pair != pair:
            self.kept = None
            first = self.pencil is None
            self.kept = nk.SylvesterContext(
                nk.Pencil(self.A, self.E) if first else self.pencil, pair)
            if first:
                self.pencil = nk.cheapest_pencil(self.kept.factors[0])
        return self.kept

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B_defl.shape[1]
