"""Exception types shared across the package."""


class DaecureError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(DaecureError):
    pass


class SingularShift(DaecureError):
    """(A - sigma*E) is singular, i.e. sigma is a generalized eigenvalue."""


class SpectraOverlap(DaecureError):
    """Sylvester operator is singular: the two spectra are not disjoint."""


class StructureViolation(DaecureError):
    """Declared structural zero blocks are not zero, or block sizes disagree."""


class SingularSchurComplement(DaecureError):
    """The saddle-point matrix that defines the structured projectors (M
    for index 1, K for Stokes) is singular: the pencil does not have the
    declared structure.  Raised by the LU of the assembled M or K, which
    also serves where the Schur complement of a diagonal E11 is singular
    or fails the residual check."""


class NonPositiveParams(DaecureError):
    """SPARK parameters (a, b) must be strictly positive, with S and Gamma
    representable as finite nonzero floats."""


class NonFiniteDerivatives(DaecureError):
    """The gradient or Hessian of the shift-pair cost is NaN or infinite."""


class InvariantViolation(DaecureError):
    """A written ROM fails an invariant that its reduction records."""


class UnstableSystem(DaecureError):
    """An operation requiring asymptotic stability got an unstable model."""


class DeskScaleExceeded(DaecureError):
    """A sparse system is too large to densify for a dense analysis."""


class InvalidEntries(DaecureError):
    """A matrix file holds a NaN, an infinite or a complex entry."""


class ParseError(DaecureError):
    """Malformed input file; message carries location information."""
