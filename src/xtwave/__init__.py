"""Space-time Petrov-Galerkin solver for the 1D wave equation.

Tensor-product B-spline trial spaces, time-derivative test spaces and an
exponentially weighted scalar product give an unconditionally stable square
linear system for the first-order-in-time formulation.
"""

import importlib

from . import analysis, forms, newton, problems, quadrature, splines, system
from .analysis import (
    ErrorReport,
    InfSupEstimate,
    eoc,
    error_report,
    estimate_infsup,
    infsup_lower_bound,
    stability_data_bound,
)
from .errors import (
    AssemblyError,
    ConfigError,
    InvalidProblemError,
    InvalidRegularityError,
    InvalidSpaceError,
    OutOfDomainError,
    SingularSystemError,
    SolutionFileError,
    UnsupportedRuleError,
    XTWaveError,
)
from .problems import by_name, manufactured, singular_case, smooth_case
from .splines import KnotVector, SplineSpace, make_space, make_uniform_space
from .system import (
    BlockSystem,
    DiscreteSolution,
    ExactSolution,
    ProblemSpec,
    assemble,
    dump_solution,
    evaluate,
    evaluate_grid,
    load_solution,
    solve,
)

__version__ = "0.1.0"


def __getattr__(name):
    # cli is imported on first use, so `python -m xtwave.cli` finds it not
    # yet imported and runs it without a RuntimeWarning
    if name == "cli":
        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
