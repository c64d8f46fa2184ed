"""The deflated system that the reduction works on.

A reduction basis V of a shift pair solves the sparse-dense Sylvester
equation

    A V - E V S = B R

with the pair's closed-form (S, R) (``spark.SparkParams``); B is the
input deflated onto the proper subspace, which ``DeflatedSystem`` carries
along with A, E, C and the polynomial part split off with it.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from . import daemodel as dm


@dataclass
class DeflatedSystem:
    """Sparse system data with the input deflated onto the proper subspace.

    ``B_defl`` starts as Pi_l^f B and is depleted step by step during
    cumulative reduction; A, E, C never change.  ``poly`` is the
    polynomial part split off with it.
    """

    A: sps.csc_matrix
    E: sps.csc_matrix
    B_defl: np.ndarray
    C: np.ndarray
    poly: dm.PolyPart

    @classmethod
    def from_dae(cls, sys: dm.DaeSystem):
        """Build the projectors and split the transfer function; the
        saddle-point factorization is released on return."""
        B_defl, poly = dm.split_transfer(sys, dm.build_projectors(sys))
        return cls(A=sys.A, E=sys.E, B_defl=B_defl, C=sys.C.toarray(),
                   poly=poly)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B_defl.shape[1]
