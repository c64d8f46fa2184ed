"""Exception types shared across the package."""


class DaecureError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(DaecureError):
    pass


class SingularShift(DaecureError):
    """(A - sigma*E) is singular, i.e. sigma is a generalized eigenvalue."""


class SpectraOverlap(DaecureError):
    """Sylvester operator is singular: the two spectra are not disjoint."""


class NotAntistable(DaecureError):
    """A matrix required to have all eigenvalues in the open RHP does not."""


class SingularPencil(DaecureError):
    """det(lambda*E - A) vanishes identically (pencil not regular)."""


class StructureViolation(DaecureError):
    """Declared structural zero blocks are not zero, or block sizes disagree."""


class SingularSchurComplement(DaecureError):
    """The saddle-point matrix that defines the structured projectors (M
    for index 1, K for Stokes) is singular: the pencil does not have the
    declared structure."""


class NonPositiveParams(DaecureError):
    """SPARK parameters (a, b) must be strictly positive."""


class DefectivePencil(DaecureError):
    """Reduced pencil has multiple poles; pole-residue form unavailable."""


class UnstableSystem(DaecureError):
    """An operation requiring asymptotic stability got an unstable model."""


class DeskScaleExceeded(DaecureError):
    """A dense-oracle routine was called beyond its size limit."""


class ParseError(DaecureError):
    """Malformed input file; message carries location information."""
