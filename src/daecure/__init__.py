"""H2-pseudo-optimal model order reduction of sparse descriptor systems
by cumulative rational interpolation with trust-region shift optimization.
"""

from .cure import CureConfig, CureLedger, assemble_total, cured_spark
from .daemodel import (
    DaeSystem,
    GeneralDense,
    ProjectorKit,
    SemiExplicitIndex1,
    StokesIndex2,
    build_projectors,
    eval_strictly_proper,
    eval_transfer,
    polynomial_part,
    realize_constant_poly,
)
from .errors import DaecureError
from .h2analysis import (
    h2_error_norm,
    h2_inner_pole_residue,
    h2_inner_sylvester_dense,
    h2_norm,
    rom_to_pole_residue,
)
from .interp import BasisV, DeflatedSystem, InterpData, spark_basis, tangential_basis
from .pork import RomRealization, check_interpolation, check_orthogonality, pork_input
from . import spark
from .spark import SparkParams, TrustRegionConfig
from .spark import evaluate as spark_evaluate
from .spark import spark as run_spark

__all__ = [
    "BasisV",
    "CureConfig",
    "CureLedger",
    "DaeSystem",
    "DaecureError",
    "DeflatedSystem",
    "GeneralDense",
    "InterpData",
    "ProjectorKit",
    "RomRealization",
    "SemiExplicitIndex1",
    "SparkParams",
    "StokesIndex2",
    "TrustRegionConfig",
    "assemble_total",
    "build_projectors",
    "check_interpolation",
    "check_orthogonality",
    "cured_spark",
    "eval_strictly_proper",
    "eval_transfer",
    "h2_error_norm",
    "h2_inner_pole_residue",
    "h2_inner_sylvester_dense",
    "h2_norm",
    "pork_input",
    "polynomial_part",
    "realize_constant_poly",
    "rom_to_pole_residue",
    "run_spark",
    "spark",
    "spark_basis",
    "spark_evaluate",
    "tangential_basis",
]

__version__ = "0.1.0"
