"""H2-pseudo-optimal model order reduction of sparse descriptor systems
by cumulative rational interpolation with trust-region shift optimization.
"""

from .cure import CureConfig, CureLedger, assemble_total, cured_spark
from .daemodel import (
    DaeSystem,
    ProjectorKit,
    SemiExplicitIndex1,
    StokesIndex2,
    build_projectors,
    eval_transfer,
    realize_constant_poly,
)
from .errors import DaecureError
from .h2analysis import h2_norm
from .interp import DeflatedSystem
from .pork import RomRealization, check_interpolation, pork_input
from . import spark
from .spark import SparkParams

__all__ = [
    "CureConfig",
    "CureLedger",
    "DaeSystem",
    "DaecureError",
    "DeflatedSystem",
    "ProjectorKit",
    "RomRealization",
    "SemiExplicitIndex1",
    "SparkParams",
    "StokesIndex2",
    "assemble_total",
    "build_projectors",
    "check_interpolation",
    "cured_spark",
    "eval_transfer",
    "h2_norm",
    "pork_input",
    "realize_constant_poly",
    "spark",
]

__version__ = "0.1.0"
