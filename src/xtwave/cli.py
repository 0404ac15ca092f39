"""Batch driver: solve, convergence, stability and inf-sup runs from configs.

Configs are flat `key = value` text files; each key is declared once, as a
field of `RunConfig`, and unknown keys are errors.  Each run writes
`results.csv` (fixed column schema), a plotter-agnostic `curves.dat` with
two-column log-log series, and `config.txt`, the echo of the resolved config;
both result files read their error columns from one table, `ERROR_COLUMNS`.
Levels run one after another; the `threads` key of older configs is accepted
and has no effect.  Exit codes: 0 success, 2 config error, 3 solver failure.
"""

import argparse
import contextlib
import math
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial

from . import quadrature
from .analysis import eoc, error_report, estimate_infsup
from .errors import ConfigError, SingularSystemError
from .problems import by_name, wave_speed_floor
from .splines import make_uniform_space
from .system import ProblemSpec, assemble, dump_solution, solve

CSV_HEADER = (
    "level,h_x,h_t,p,regularity,dofs,err_Veh,eoc_Veh,err_U_L2,eoc_U_L2,"
    "err_V_L2,eoc_V_L2,err_cgradU,eoc_cgradU,gamma_h,lower_bound,solve_seconds"
)

MODES = ("solve", "convergence", "stability", "infsup")


def _mode(raw):
    if raw not in MODES:
        raise ValueError(f"must be one of {MODES}")
    return raw


def _regularity(raw):
    if raw in ("maximal", "c1"):
        return raw
    return str(int(raw))


def _levels(raw):
    pairs = []
    for item in raw.replace(",", " ").split():
        nx, nt = item.lower().split("x")
        pairs.append((int(nx), int(nt)))
    if not pairs:
        raise ValueError("empty list")
    return tuple(pairs)


def _pair(raw):
    a, b = (float(s) for s in raw.split(","))
    return (a, b)


def _key(parse, echo=str, scope="optional"):
    """A RunConfig field declaring one config key: parse reads its text, echo
    writes it back, scope is "required", "optional", "inline" (required with
    problem = inline, refused without) or "inline-optional" (refused without)."""
    default = MISSING if scope == "required" else None
    return field(default=default, metadata={"parse": parse, "echo": echo, "scope": scope})


@dataclass(frozen=True)
class RunConfig:
    """Validated run description of one sweep.  Each field declares one
    config key (see _key); config.txt echoes the set ones in field order."""

    mode: str = _key(_mode, scope="required")
    problem: str = _key(str, scope="required")
    degree: int = _key(int, scope="required")
    regularity: str = _key(_regularity, scope="required")  # "maximal", "c1" or a decimal string
    # levels: (n_elems_x, n_elems_t) pairs
    levels: tuple = _key(_levels, lambda ls: " ".join(f"{a}x{b}" for a, b in ls), scope="required")
    quad_points: int = _key(int)
    out: str = _key(str)
    omega: tuple = _key(_pair, lambda omega: "{:.17g},{:.17g}".format(*omega), scope="inline")
    T: float = _key(float, "{:.17g}".format, scope="inline")
    c0: float = _key(float, "{:.17g}".format, scope="inline-optional")
    F: str = _key(str, scope="inline")  # F, U0, V0 and c2: the expressions of an inline problem
    U0: str = _key(str, scope="inline")
    V0: str = _key(str, scope="inline")
    c2: str = _key(str, scope="inline")

    def regularity_order(self):
        if self.regularity == "maximal":
            return self.degree - 1
        if self.regularity == "c1":
            return 1
        return int(self.regularity)


def parse_config(text, mode=None):
    """Parse flat `key = value` text into a RunConfig; strict schema."""
    parsers = {f.name: f.metadata["parse"] for f in fields(RunConfig)}
    parsers["threads"] = int  # parsed and dropped: older configs set it
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in parsers:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = parsers[key](raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc

    if mode is not None:
        if "mode" in values and values["mode"] != mode:
            raise ConfigError(f"config mode {values['mode']!r} conflicts with subcommand {mode!r}")
        values["mode"] = mode
    if "mode" not in values:
        raise ConfigError("mode is not set (use a subcommand or a `mode =` line)")

    # required keys precede inline ones: a missing problem is refused first
    inline = values.get("problem") == "inline"
    for f in fields(RunConfig):
        scope = f.metadata["scope"]
        if f.name in values:
            if scope in ("inline", "inline-optional") and not inline:
                raise ConfigError(f"key {f.name!r} is only valid for problem = inline")
        elif scope == "required":
            raise ConfigError(f"missing required key {f.name!r}")
        elif scope == "inline" and inline:
            raise ConfigError(f"inline problems require key {f.name!r}")

    values.pop("threads", None)
    config = RunConfig(**values)
    validate_config(config)
    return config


def serialize_config(config):
    """Inverse of parse_config up to formatting: one line per set key."""
    lines = [
        f"{f.name} = {f.metadata['echo'](getattr(config, f.name))}"
        for f in fields(config)
        if getattr(config, f.name) is not None
    ]
    return "\n".join(lines) + "\n"


def validate_config(config):
    if not config.levels:
        raise ConfigError("levels must be non-empty")
    if config.degree < 1:
        raise ConfigError("degree must be at least 1")
    r = config.regularity_order()
    if not 0 <= r <= config.degree - 1:
        raise ConfigError(
            f"regularity {r} incompatible with degree {config.degree}"
        )
    if any(nx < 1 or nt < 1 for nx, nt in config.levels):
        raise ConfigError("element counts must be positive")
    # degree + 1 Gauss points integrate the mass matrices exactly
    lo, hi = config.degree + 1, quadrature.MAX_POINTS
    if config.quad_points is not None and not lo <= config.quad_points <= hi:
        raise ConfigError(f"quad_points must be in [{lo}, {hi}] for degree {config.degree}")
    if config.mode == "convergence":
        for (nx0, nt0), (nx1, nt1) in zip(config.levels, config.levels[1:]):
            if nx1 != 2 * nx0 or nt1 != 2 * nt0:
                raise ConfigError("convergence mode requires halving h in both directions")
    if config.mode == "stability":
        nts = {nt for _, nt in config.levels}
        if len(nts) > 1:
            raise ConfigError("stability mode requires a fixed temporal mesh")
    # config.txt echoes out on one line, and parse_config strips the values
    out = config.out
    if out is not None and (out != out.strip() or len(out.splitlines()) > 1):
        raise ConfigError(f"out must be one line without leading or trailing blanks, got {out!r}")
    # comparisons with NaN are false, so these refuse it too
    if config.problem == "inline" and not 0 < config.T < math.inf:
        raise ConfigError(f"T must be finite and positive, got {config.T}")
    if config.problem == "inline" and not -math.inf < config.omega[0] < config.omega[1] < math.inf:
        raise ConfigError(f"omega must be a finite interval a < b, got {config.omega}")


def _inline_problem(config):
    # sympy is imported only by configs that define their problem inline
    from . import expressions

    c2e = expressions.parse_expression(config.c2, ("x",))
    Fe = expressions.parse_expression(config.F, ("x", "t"))
    U0e = expressions.parse_expression(config.U0, ("x",))
    V0e = expressions.parse_expression(config.V0, ("x",))
    c2 = expressions.lambdify(c2e, ("x",))
    div_flux = expressions.diff(c2e * expressions.diff(U0e, "x"), "x")
    return ProblemSpec(
        omega=config.omega,
        T=config.T,
        c2=c2,
        c0=wave_speed_floor(c2, config.omega, config.c0),
        F=expressions.lambdify(Fe, ("x", "t")),
        U0=expressions.lambdify(U0e, ("x",)),
        dU0=expressions.lambdify(expressions.diff(U0e, "x"), ("x",)),
        V0=expressions.lambdify(V0e, ("x",)),
        dV0=expressions.lambdify(expressions.diff(V0e, "x"), ("x",)),
        div_c2_grad_U0=expressions.lambdify(div_flux, ("x",)),
        name="inline",
    )


def build_problem(config):
    if config.problem == "inline":
        return _inline_problem(config)
    try:
        return by_name(config.problem).spec
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc


def _spaces(config, problem, nx, nt):
    r = config.regularity_order()
    space_x = make_uniform_space(problem.omega, nx, config.degree, r, "zero-both")
    space_t = make_uniform_space((0.0, problem.T), nt, config.degree, r, "zero-left")
    return space_x, space_t


@dataclass
class LevelResult:
    level: int
    h_x: float
    h_t: float
    dofs: int
    report: object = None
    gamma_h: float = None
    lower_bound: float = None
    solve_seconds: float = None
    solution: object = None


def _run_level(config, problem, level, nx, nt):
    space_x, space_t = _spaces(config, problem, nx, nt)
    result = LevelResult(
        level=level,
        h_x=problem.length / nx,
        h_t=problem.T / nt,
        dofs=2 * space_x.dim * space_t.dim,
    )
    if config.mode == "infsup":
        est = estimate_infsup(problem, space_x, space_t, config.quad_points)
        result.gamma_h = est.gamma_h
        result.lower_bound = est.lower_bound
        return result
    system = assemble(problem, space_x, space_t, config.quad_points)
    solution = solve(system)
    result.solve_seconds = solution.solve_seconds
    if config.mode == "solve":
        # kept only to be written out: it holds the level's spatial operator
        result.solution = solution
    if problem.exact is not None:
        result.report = error_report(solution, problem, config.quad_points)
    return result


def _fmt(value):
    return "" if value is None else f"{value:.12e}"


# error columns of results.csv and curve names of curves.dat -> ErrorReport field
ERROR_COLUMNS = (
    ("err_Veh", "err_Veh"),
    ("err_U_L2", "err_U_L2"),
    ("err_V_L2", "err_V_L2"),
    ("err_cgradU", "err_cgradU_L2e"),
)


def _errors(res):
    """The level's errors in ERROR_COLUMNS order; None without an exact solution."""
    if res.report is None:
        return (None,) * len(ERROR_COLUMNS)
    return tuple(getattr(res.report, field) for _, field in ERROR_COLUMNS)


def _csv_rows(config, results):
    p, r = str(config.degree), str(config.regularity_order())
    with_eoc = config.mode == "convergence"
    rows = []
    previous = (None,) * len(ERROR_COLUMNS)
    for res in results:
        cells = [str(res.level), _fmt(res.h_x), _fmt(res.h_t), p, r, str(res.dofs)]
        errors = _errors(res)
        for before, err in zip(previous, errors):
            rate = None
            if with_eoc and before is not None and err is not None:
                rate = float(eoc([before, err])[0])
            cells += [_fmt(err), _fmt(rate)]
        previous = errors
        cells.append(_fmt(res.gamma_h))
        cells.append(_fmt(res.lower_bound))
        cells.append(_fmt(res.solve_seconds))
        rows.append(",".join(cells))
    return rows


def _curve(name, config, points):
    lines = [f"# curve {name} vs h_x ({config.problem}, p={config.degree})"]
    lines.extend(f"{h:.12e} {v:.12e}" for h, v in points)
    return "\n".join(lines)


def _curves(config, results):
    """Two-column (h, value) series per plotted quantity."""
    if config.mode == "infsup":
        return _curve("gamma_h", config, [(res.h_x, res.gamma_h) for res in results]) + "\n"
    solved = [res for res in results if res.report is not None]
    h = [res.h_x for res in solved]
    columns = zip(*map(_errors, solved))
    blocks = [_curve(name, config, zip(h, col)) for (name, _), col in zip(ERROR_COLUMNS, columns)]
    return "\n\n".join(blocks) + "\n" if blocks else ""


def _text(text):
    def write(path):
        with open(path, "w") as f:
            f.write(text)

    return write


def _write_all(out, files):
    """Write every file of files (name -> write(path)) into out, or none: each
    goes to a temporary name and is renamed once all are written.  On an
    OSError the temporaries and the files already renamed are removed."""
    temps = {name: os.path.join(out, f".{name}.{os.getpid()}.tmp") for name in files}
    renamed = []
    try:
        for name, write in files.items():
            write(temps[name])
        for name, temp in temps.items():
            os.replace(temp, os.path.join(out, name))
            renamed.append(os.path.join(out, name))
    except OSError:
        for path in [*temps.values(), *renamed]:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise


def run(config):
    """Execute a run; returns the exit code and writes artifacts to out,
    which is created only once every level has run."""
    try:
        problem = build_problem(config)
        results = [
            _run_level(config, problem, i, nx, nt) for i, (nx, nt) in enumerate(config.levels)
        ]
    except SingularSystemError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = config.out or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 2
    files = {"results.csv": _text("\n".join([CSV_HEADER, *_csv_rows(config, results)]) + "\n")}
    curves = _curves(config, results)
    if curves:
        files["curves.dat"] = _text(curves)
    files["config.txt"] = _text(serialize_config(config))
    for res in results:  # only solve mode keeps its solutions
        if res.solution is not None:
            files[f"solution_L{res.level}.npy"] = partial(dump_solution, res.solution)
    try:
        _write_all(out, files)
    except OSError as exc:
        print(f"error: cannot write the output in {out}: {exc}", file=sys.stderr)
        return 2
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(prog="xtwave", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        with open(args.config) as f:
            text = f.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text, mode=args.mode)
        if args.out is not None:
            config = replace(config, out=args.out)
            validate_config(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
