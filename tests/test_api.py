"""The public surface of the package: the names it exports and the typed
errors its library paths raise."""

import subprocess
import sys
import tempfile
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import xtwave as xw
from xtwave.errors import (
    AssemblyError,
    InvalidProblemError,
    InvalidRegularityError,
    InvalidSpaceError,
    OutOfDomainError,
    UnsupportedRuleError,
)

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


def _solve(problem, degree=1):
    sx = xw.make_uniform_space(problem.omega, 2, degree, None, "zero-both")
    st = xw.make_uniform_space((0.0, problem.T), 2, degree, None, "zero-left")
    return xw.solve(xw.assemble(problem, sx, st))


def _load_on(problem, other):
    """A solution of problem, written to a file and loaded with other."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "solution.txt"
        xw.dump_solution(_solve(problem), path)
        return xw.load_solution(path, other)


def _constant(value):
    """Problem data f(x) or f(x, t) equal to value at every node."""
    return lambda *args: np.full(np.broadcast(*args).shape, value)


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
    "stability bound without dV0": (
        InvalidProblemError,
        lambda p: xw.stability_data_bound(replace(p, dV0=None)),
    ),
    # non-finite data used to reach the solver, which refused them as a
    # singular system, or to make the stability bound inf or nan
    "assemble with NaN F": (AssemblyError, lambda p: _solve(replace(p, F=_constant(np.nan)))),
    "assemble with infinite dU0": (AssemblyError, lambda p: _solve(replace(p, dU0=_constant(np.inf)))),
    "assemble with NaN V0": (AssemblyError, lambda p: _solve(replace(p, V0=_constant(np.nan)))),
    "stability bound with infinite F": (
        AssemblyError,
        lambda p: xw.stability_data_bound(replace(p, F=_constant(np.inf))),
    ),
    "stability bound with NaN div(c^2 grad U0)": (
        AssemblyError,
        lambda p: xw.stability_data_bound(replace(p, div_c2_grad_U0=_constant(np.nan))),
    ),
    "stability bound with infinite dV0": (
        AssemblyError,
        lambda p: xw.stability_data_bound(replace(p, dV0=_constant(np.inf))),
    ),
    "gradient of the V shift without dV0": (
        InvalidProblemError,
        lambda p: xw.evaluate(_solve(replace(p, dV0=None)), 0.5, 1.0, d_x=1),
    ),
    "second space derivative of the shift": (
        InvalidProblemError,
        lambda p: xw.evaluate(_solve(p, degree=3), 0.3, 0.0, d_x=2),
    ),
    "one breakpoint": (InvalidSpaceError, lambda p: xw.KnotVector(np.array([0.0]), 1)),
    "repeated breakpoint": (InvalidSpaceError, lambda p: xw.make_space([0.0, 0.5, 0.5, 1.0], 2)),
    "negative degree": (InvalidSpaceError, lambda p: xw.KnotVector(np.array([0.0, 1.0]), -1)),
    "unknown constraint": (InvalidSpaceError, lambda p: xw.make_space([0.0, 1.0], 1, 1, "bogus")),
    "NaN breakpoint": (InvalidSpaceError, lambda p: xw.KnotVector(np.array([0.0, np.nan, 1.0]), 2)),
    "infinite breakpoint": (InvalidSpaceError, lambda p: xw.KnotVector(np.array([0.0, np.inf]), 1)),
    "NaN breakpoint of make_space": (InvalidSpaceError, lambda p: xw.make_space([0, np.nan, 1], 2)),
    "constraint removing more functions than the space has": (
        InvalidSpaceError,
        lambda p: xw.make_space([0.0, 1.0], 0, 1, "zero-both"),
    ),
    "assemble on a space_x without unknowns": (
        InvalidSpaceError,
        lambda p: xw.assemble(
            p,
            xw.make_uniform_space(p.omega, 1, 1, 0, "zero-both"),
            xw.make_uniform_space((0.0, p.T), 2, 1, None, "zero-left"),
        ),
    ),
    "inf-sup estimate on a space_t without unknowns": (
        InvalidSpaceError,
        lambda p: xw.estimate_infsup(
            p,
            xw.make_uniform_space(p.omega, 2, 1, None, "zero-both"),
            xw.make_space([0.0, p.T], 0, 1, "zero-left"),
        ),
    ),
    "derivative order above degree": (
        InvalidSpaceError,
        lambda p: xw.make_uniform_space((0.0, 1.0), 2, 1).tabulate([0.5], 2),
    ),
    "negative derivative order": (
        InvalidSpaceError,
        lambda p: xw.make_uniform_space((0.0, 1.0), 2, 1).tabulate([0.5], -1),
    ),
    "negative derivative order of evaluate_grid": (
        InvalidSpaceError,
        lambda p: xw.evaluate_grid(_solve(p), [0.5], [1.0], d_x=-1),
    ),
    "negative order of an element table": (
        InvalidSpaceError,
        lambda p: xw.make_uniform_space((0.0, 1.0), 2, 1).element_table(3, max_order=-1),
    ),
    "no elements": (InvalidSpaceError, lambda p: xw.make_uniform_space((0.0, 1.0), 0, 1)),
    "degree zero uniform space": (
        InvalidSpaceError,
        lambda p: xw.make_uniform_space((0.0, 1.0), 2, 0),
    ),
    # non-integer space parameters: regularity 1.5 used to give the C^2 knots
    # of multiplicity 1 while recording 1.5, and the others failed untyped
    "regularity 1.5": (
        InvalidRegularityError,
        lambda p: xw.make_uniform_space((0.0, 1.0), 4, 3, 1.5),
    ),
    "multiplicity 1.5": (InvalidRegularityError, lambda p: xw.make_space([0.0, 0.5, 1.0], 3, 1.5)),
    "n_elements 2.5": (InvalidSpaceError, lambda p: xw.make_uniform_space((0.0, 1.0), 2.5, 2)),
    "degree 2.0": (InvalidSpaceError, lambda p: xw.make_uniform_space((0.0, 1.0), 4, 2.0)),
    "derivative order 1.5": (
        InvalidSpaceError,
        lambda p: xw.make_uniform_space((0.0, 1.0), 2, 2).tabulate([0.5], 1.5),
    ),
    "derivative order 1.5 of an element table": (
        InvalidSpaceError,
        lambda p: xw.make_uniform_space((0.0, 1.0), 2, 2).element_table(4, max_order=1.5),
    ),
    "derivative order 1.5 of evaluate_grid": (
        InvalidSpaceError,
        lambda p: xw.evaluate_grid(_solve(p, degree=2), [0.5], [1.0], d_x=1.5),
    ),
    "empty sequence of derivative orders": (
        InvalidSpaceError,
        lambda p: xw.make_uniform_space((0.0, 1.0), 2, 2).tabulate([0.5], ()),
    ),
    "regularity given as a string": (
        InvalidRegularityError,
        lambda p: xw.make_uniform_space((0.0, 1.0), 4, 2, "1"),
    ),
    # a 2-d point array failed in NumPy's broadcasting, and string
    # breakpoints in float conversion, both with an untyped ValueError
    "2-d points of tabulate": (
        OutOfDomainError,
        lambda p: xw.make_uniform_space((0.0, 1.0), 2, 2).tabulate([[0.5, 0.2]]),
    ),
    "2-d points of evaluate_grid": (
        OutOfDomainError,
        lambda p: xw.evaluate_grid(_solve(p), [[0.5, 0.2]], [0.1]),
    ),
    "string breakpoints": (InvalidSpaceError, lambda p: xw.make_space(["a", "b"], 1)),
    "solution file loaded with a problem on another omega": (
        InvalidSpaceError,
        lambda p: _load_on(p, xw.by_name("singular").spec),
    ),
    "solution file loaded with a problem of another T": (
        InvalidSpaceError,
        lambda p: _load_on(p, replace(p, T=2 * p.T)),
    ),
    # error_report measured a solution against a problem on another domain,
    # and discrete_veh_norm failed in NumPy's matmul on other spaces
    "error_report with a problem on another domain": (
        InvalidSpaceError,
        lambda p: xw.error_report(_solve(p), xw.by_name("singular").spec),
    ),
    "discrete_veh_norm of a solution on other spaces": (
        InvalidSpaceError,
        lambda p: xw.analysis.discrete_veh_norm(xw.assemble(p, *_cubic_spaces(p)), _solve(p)),
    ),
    # each failed untyped in NumPy or in float()
    "string points of tabulate": (
        OutOfDomainError,
        lambda p: xw.make_uniform_space((0.0, 1.0), 2, 2).tabulate("a"),
    ),
    "2-d derivative orders of tabulate": (
        InvalidSpaceError,
        lambda p: xw.make_uniform_space((0.0, 1.0), 2, 2).tabulate([0.5], [[0, 1]]),
    ),
    "string derivative order of tabulate": (
        InvalidSpaceError,
        lambda p: xw.make_uniform_space((0.0, 1.0), 2, 2).tabulate([0.5], "a"),
    ),
    "string points of evaluate_grid": (
        OutOfDomainError,
        lambda p: xw.evaluate_grid(_solve(p), ["a"], [0.1]),
    ),
    "string interval of make_uniform_space": (
        InvalidSpaceError,
        lambda p: xw.make_uniform_space(("a", 1), 2, 2),
    ),
    # used to give a space on the first two entries
    "three-entry interval of make_uniform_space": (
        InvalidSpaceError,
        lambda p: xw.make_uniform_space((0.0, 0.5, 1.0), 2, 2),
    ),
}


def _cubic_spaces(p):
    return (
        xw.make_uniform_space(p.omega, 8, 3, None, "zero-both"),
        xw.make_uniform_space((0.0, p.T), 8, 3, None, "zero-left"),
    )


# a rule size below degree + 1 (p = 3 here, p = 1 for _solve) would
# under-integrate or fail untyped, and 0 used to mean the default rule
RULE_SIZE_CALLS = {
    "assemble": lambda p, n: xw.assemble(p, *_cubic_spaces(p), n),
    "estimate_infsup": lambda p, n: xw.estimate_infsup(p, *_cubic_spaces(p), n),
    "error_report": lambda p, n: xw.error_report(_solve(p), p, n),
    "project_space": lambda p, n: xw.analysis.project_space(np.cos, _cubic_spaces(p)[0], p.c2, n),
}
TYPED_ERRORS.update(
    {
        f"{name} with n_quad {n}": (UnsupportedRuleError, lambda p, call=call, n=n: call(p, n))
        for name, call in RULE_SIZE_CALLS.items()
        for n in (0, 1)
    }
)


@pytest.mark.parametrize("case", list(TYPED_ERRORS))
def test_library_errors_are_typed(case, smooth_problem):
    # XTWaveError subclasses ValueError, so the CLI maps it to exit code 2
    kind, call = TYPED_ERRORS[case]
    with pytest.raises(xw.XTWaveError) as err:
        call(smooth_problem)
    assert type(err.value) is kind


# applies the warning filters given as arguments, as pytest does, then
# imports the module that hypothesis imports to report a failing example
_FILTERED_IMPORT = """
import sys, warnings
from importlib import import_module
for spec in sys.argv[1:]:
    action, message, category = spec.split(":")
    module, _, name = category.rpartition(".")
    warnings.filterwarnings(action, message, getattr(import_module(module or "builtins"), name))
import hypothesis.extra._patching
"""


def test_hypothesis_failure_report_imports_under_the_suite_filters():
    # with libcst installed, hypothesis imports it to report a falsifying
    # example; its DeprecationWarning, turned into an error by the suite's
    # filters, ended the run in INTERNALERROR without naming the example
    pytest.importorskip("libcst")
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    config = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    filters = config["tool"]["pytest"]["ini_options"]["filterwarnings"]
    run = subprocess.run(
        [sys.executable, "-c", _FILTERED_IMPORT, *filters], capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
