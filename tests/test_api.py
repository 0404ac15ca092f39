"""The public surface of the package: the names it exports and the typed
errors its library paths raise."""

import types
from dataclasses import replace

import numpy as np
import pytest

import xtwave as xw
from xtwave.errors import InvalidProblemError, InvalidSpaceError

# every name `import xtwave` exports, apart from its submodules; a new export
# is added here on purpose
EXPORTS = {
    "AssemblyError",
    "BlockSystem",
    "ConfigError",
    "DiscreteSolution",
    "ErrorReport",
    "ExactSolution",
    "InfSupEstimate",
    "InvalidProblemError",
    "InvalidRegularityError",
    "InvalidSpaceError",
    "KnotVector",
    "OutOfDomainError",
    "ProblemSpec",
    "SingularSystemError",
    "SolutionFileError",
    "SplineSpace",
    "UnsupportedRuleError",
    "XTWaveError",
    "assemble",
    "by_name",
    "dump_solution",
    "eoc",
    "error_report",
    "estimate_infsup",
    "evaluate",
    "evaluate_grid",
    "infsup_lower_bound",
    "load_solution",
    "make_space",
    "make_uniform_space",
    "manufactured",
    "singular_case",
    "smooth_case",
    "solve",
    "stability_data_bound",
}
SUBMODULES = {"analysis", "forms", "newton", "problems", "quadrature", "splines", "system"}


def test_exported_names():
    public = {name for name in vars(xw) if not name.startswith("_")}
    modules = {name for name in public if isinstance(getattr(xw, name), types.ModuleType)}
    assert public - modules == EXPORTS
    assert SUBMODULES <= modules


def _solve(problem):
    sx = xw.make_uniform_space(problem.omega, 2, 1, None, "zero-both")
    st = xw.make_uniform_space((0.0, problem.T), 2, 1, None, "zero-left")
    return xw.solve(xw.assemble(problem, sx, st))


# library refusals: case -> (error type, call on the smooth problem)
TYPED_ERRORS = {
    "error_report without exact solution": (
        InvalidProblemError,
        lambda p: xw.error_report(_solve(p), replace(p, exact=None)),
    ),
    "stability bound without div(c^2 grad U0)": (
        InvalidProblemError,
        lambda p: xw.stability_data_bound(replace(p, div_c2_grad_U0=None)),
    ),
    "gradient of the V shift without dV0": (
        InvalidProblemError,
        lambda p: xw.evaluate(_solve(replace(p, dV0=None)), 0.5, 1.0, d_x=1),
    ),
    "one breakpoint": (InvalidSpaceError, lambda p: xw.KnotVector(np.array([0.0]), 1)),
    "repeated breakpoint": (InvalidSpaceError, lambda p: xw.make_space([0.0, 0.5, 0.5, 1.0], 2)),
    "negative degree": (InvalidSpaceError, lambda p: xw.KnotVector(np.array([0.0, 1.0]), -1)),
    "unknown constraint": (InvalidSpaceError, lambda p: xw.make_space([0.0, 1.0], 1, 1, "bogus")),
    "derivative order above degree": (
        InvalidSpaceError,
        lambda p: xw.make_uniform_space((0.0, 1.0), 2, 1).tabulate([0.5], 2),
    ),
    "no elements": (InvalidSpaceError, lambda p: xw.make_uniform_space((0.0, 1.0), 0, 1)),
    "degree zero uniform space": (
        InvalidSpaceError,
        lambda p: xw.make_uniform_space((0.0, 1.0), 2, 0),
    ),
}


@pytest.mark.parametrize("case", list(TYPED_ERRORS))
def test_library_errors_are_typed(case, smooth_problem):
    # XTWaveError subclasses ValueError, so the CLI maps it to exit code 2
    kind, call = TYPED_ERRORS[case]
    with pytest.raises(xw.XTWaveError) as err:
        call(smooth_problem)
    assert type(err.value) is kind
