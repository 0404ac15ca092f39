"""The benchmark's four workloads.

Each workload builds its inputs once (its constructor), runs one round of
operations through xtwave's public API or the `xtwave convergence` entry
point (`run_round`), and checks that round's outputs afterwards, outside the
timed region (`check`).  `check_reference` compares outputs of the first round with
computations made apart from xtwave (see reference.py); it is slower and runs
once per run.  The seed only picks the points where values are compared: the
program receives the same configs and meshes on every seed.

reference.py imports scipy.interpolate, which takes about 0.25 s; it is
imported inside the checks so that it does not count in the set-up time.
"""

import csv
import os
import time

import numpy as np

# fixed grid on which round trips re-evaluate, as a fraction of each interval
_GRID_X = np.linspace(0.0, 1.0, 41)
_GRID_T = np.linspace(0.0, 1.0, 21)
N_CHECK_POINTS = 25


class Round:
    """Operations of one round: (name, wall seconds, failure message or None)."""

    def __init__(self):
        self.ops = []

    def run(self, name, fn, *args):
        """Time fn(*args) as one operation; a ValueError (XTWaveError included) fails it."""
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except ValueError as exc:
            self.record(name, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}")
            return None
        self.record(name, time.perf_counter() - t0)
        return result

    def record(self, name, seconds, error=None):
        self.ops.append([name, seconds, error])

    def fail(self, name, message):
        for op in self.ops:
            if op[0] == name:
                op[2] = message
                return
        raise KeyError(name)

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(op[2] is not None for op in self.ops)


def _spaces(xw, problem, n_x, n_t, p, breakpoints_x=None):
    if breakpoints_x is None:
        space_x = xw.make_uniform_space(problem.omega, n_x, p, p - 1, "zero-both")
    else:
        space_x = xw.make_space(breakpoints_x, p, 1, "zero-both")
    space_t = xw.make_uniform_space((0.0, problem.T), n_t, p, p - 1, "zero-left")
    return space_x, space_t


def _check_points(rng, problem):
    """Seeded points inside the space-time cylinder."""
    (a, b), T = problem.omega, problem.T
    return np.sort(rng.uniform(a, b, N_CHECK_POINTS)), np.sort(rng.uniform(0.0, T, N_CHECK_POINTS))


def _reference_solution_checks(xw, problem, system, solution, rng, label):
    """Factors, Galerkin residual and BSpline values of one solved level."""
    from . import reference as ref

    factors = ref.Factors(problem, solution.space_x, solution.space_t, system.n_quad)
    fails = ref.check_factors(factors, system) + ref.check_residual(factors, solution)
    xs, ts = _check_points(rng, problem)
    u, v = xw.evaluate_grid(solution, xs, ts)
    fails += ref.check_values(u, v, *ref.reference_values(solution, problem, xs, ts), "evaluate_grid")
    return [f"{label}: {msg}" for msg in fails]


def _solve_level(xw, problem, space_x, space_t):
    system = xw.assemble(problem, space_x, space_t)
    solution = xw.solve(system)
    return system, solution, xw.error_report(solution, problem)


class SmoothConvergence:
    """`xtwave convergence` on generated configs, problem `smooth`, maximal regularity."""

    name = "smooth-convergence"
    full = {"degrees": (2, 3), "levels": ((4, 12), (8, 24), (16, 48), (32, 96))}

    def __init__(self, xw, workdir, degrees, levels):
        self.xw, self.workdir, self.degrees, self.levels = xw, workdir, degrees, levels
        self.problem = xw.by_name("smooth").spec
        self.configs = {}
        for p in degrees:
            path = os.path.join(workdir, f"smooth_p{p}.cfg")
            with open(path, "w") as f:
                f.write(
                    "mode = convergence\nproblem = smooth\n"
                    f"degree = {p}\nregularity = maximal\n"
                    "levels = " + " ".join(f"{nx}x{nt}" for nx, nt in levels) + "\nthreads = 1\n"
                )
            self.configs[p] = path

    def run_round(self, rnd):
        # the CLI runs its levels internally; time each one at the level boundary
        original = self.xw.cli._run_level

        def timed_level(config, problem, level, nx, nt):
            name = f"p{config.degree} {nx}x{nt}"
            t0 = time.perf_counter()
            try:
                result = original(config, problem, level, nx, nt)
            except ValueError as exc:
                rnd.record(name, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}")
                raise
            rnd.record(name, time.perf_counter() - t0)
            return result

        self.xw.cli._run_level = timed_level
        try:
            codes = {}
            for p in self.degrees:
                out = os.path.join(self.workdir, f"smooth_p{p}")
                codes[p] = self.xw.cli.main(["convergence", "--config", self.configs[p], "--out", out])
        finally:
            self.xw.cli._run_level = original
        return codes

    def _rows(self, p):
        with open(os.path.join(self.workdir, f"smooth_p{p}", "results.csv")) as f:
            return list(csv.DictReader(f))

    def check(self, rnd, codes):
        fails = []
        for p in self.degrees:
            if codes[p] != 0:
                fails.append(f"p={p}: xtwave convergence exited with {codes[p]}")
                continue
            rows = self._rows(p)
            if len(rows) != len(self.levels):
                fails.append(f"p={p}: {len(rows)} rows in results.csv, expected {len(self.levels)}")
                continue
            for row, (nx, nt) in zip(rows, self.levels):
                dofs = 2 * (nx + p - 2) * (nt + p - 1)
                if int(row["dofs"]) != dofs:
                    fails.append(f"p={p} {nx}x{nt}: dofs {row['dofs']}, expected {dofs}")
            last = rows[-1]
            for col, target in (("eoc_Veh", p), ("eoc_U_L2", p + 1), ("eoc_V_L2", p + 1)):
                rate = float(last[col])
                if not abs(rate - target) <= 0.2:
                    fails.append(f"p={p}: finest-step {col} {rate:.3f}, expected {target} +- 0.2")
        return fails

    def check_reference(self, codes, rng):
        fails = []
        nx, nt = self.levels[0]
        for p in self.degrees:
            if codes[p] != 0:
                continue
            space_x, space_t = _spaces(self.xw, self.problem, nx, nt, p)
            system, solution, report = _solve_level(self.xw, self.problem, space_x, space_t)
            label = f"p={p} {nx}x{nt}"
            fails += _reference_solution_checks(self.xw, self.problem, system, solution, rng, label)
            csv_err = float(self._rows(p)[0]["err_Veh"])
            if not abs(csv_err - report.err_Veh) <= 1e-9 * report.err_Veh:
                fails.append(f"{label}: results.csv err_Veh {csv_err:.12e}, API {report.err_Veh:.12e}")
        return fails


class HighdegStability:
    """Fixed time mesh, maximal regularity, degrees up to 5, spatial refinement."""

    name = "highdeg-stability"
    full = {"degrees": (3, 4, 5), "n_t": 8, "n_x": (16, 32, 64, 128)}

    def __init__(self, xw, workdir, degrees, n_t, n_x):
        self.xw, self.degrees, self.n_t, self.n_x = xw, degrees, n_t, n_x
        self.problem = xw.by_name("smooth").spec

    def _level(self, p, nx):
        xw = self.xw
        space_x, space_t = _spaces(xw, self.problem, nx, self.n_t, p)
        system, solution, report = _solve_level(xw, self.problem, space_x, space_t)
        norm = xw.analysis.discrete_veh_norm(system, solution)
        keep = (system, solution) if nx == self.n_x[0] else None
        return report.err_Veh, norm, keep

    def run_round(self, rnd):
        out = {"bound": rnd.run("stability_data_bound", self.xw.stability_data_bound, self.problem)}
        for p in self.degrees:
            out[p] = [rnd.run(f"p{p} {nx}x{self.n_t}", self._level, p, nx) for nx in self.n_x]
        return out

    def check(self, rnd, out):
        fails = []
        bound = out["bound"]
        for p in self.degrees:
            if any(r is None for r in out[p]) or bound is None:
                fails.append(f"p={p}: an operation failed")
                continue
            errs = [r[0] for r in out[p]]
            ratio = max(errs) / errs[0]
            if not ratio <= 1.5:
                fails.append(f"p={p}: error ratio {ratio:.3f} > 1.5")
            worst = max(r[1] for r in out[p])
            if not worst <= bound:
                fails.append(f"p={p}: discrete_veh_norm {worst:.4f} > stability_data_bound {bound:.4f}")
        return fails

    def check_reference(self, out, rng):
        fails = []
        for p in self.degrees:
            if out[p][0] is not None:
                system, solution = out[p][0][2]
                label = f"p={p} {self.n_x[0]}x{self.n_t}"
                fails += _reference_solution_checks(self.xw, self.problem, system, solution, rng, label)
        return fails


class InfsupDense:
    """Dense inf-sup estimates on `smooth` over degrees and meshes."""

    name = "infsup-dense"
    full = {"degrees": (1, 2, 3), "meshes": ((8, 8), (16, 16), (24, 24), (32, 16), (16, 32))}

    def __init__(self, xw, workdir, degrees, meshes):
        self.xw = xw
        self.problem = xw.by_name("smooth").spec
        self.cases = [(p, nx, nt) for p in degrees for nx, nt in meshes]

    def _estimate(self, p, nx, nt):
        space_x, space_t = _spaces(self.xw, self.problem, nx, nt, p)
        return self.xw.estimate_infsup(self.problem, space_x, space_t)

    def run_round(self, rnd):
        return {case: rnd.run("p{} {}x{}".format(*case), self._estimate, *case) for case in self.cases}

    def check(self, rnd, out):
        from . import reference as ref

        fails = []
        bound = ref.infsup_lower_bound(self.problem)
        for (p, nx, nt), est in out.items():
            label = f"p={p} {nx}x{nt}"
            if est is None:
                fails.append(f"{label}: estimate failed")
                continue
            if est.dims != (nx + p - 2, nt + p - 1):
                fails.append(f"{label}: dims {est.dims}")
            if not abs(est.lower_bound - bound) <= 1e-14 * bound:
                fails.append(f"{label}: lower bound {est.lower_bound!r}, closed form {bound!r}")
            if not est.gamma_h >= bound - 1e-10:
                fails.append(f"{label}: gamma_h {est.gamma_h:.6f} below the bound {bound:.6f}")
        return fails

    def check_reference(self, out, rng):
        from . import reference as ref

        fails = []
        smallest = min(nx * nt for _, nx, nt in self.cases)
        for (p, nx, nt), est in out.items():
            if est is None or nx * nt != smallest:
                continue
            space_x, space_t = _spaces(self.xw, self.problem, nx, nt, p)
            factors = ref.Factors(self.problem, space_x, space_t, p + 2)
            fails += ref.check_gamma(est.gamma_h, ref.reference_gamma(factors), f"p={p} {nx}x{nt}")
        return fails


def graded_breakpoints(n_left, n_right, omega=(-1.5, 1.5), kink=-1.0):
    """Breakpoints on omega graded quadratically toward the initial kink."""
    s_left = np.linspace(0.0, 1.0, n_left + 1)
    s_right = np.linspace(0.0, 1.0, n_right + 1)
    left = kink - (kink - omega[0]) * (1.0 - s_left) ** 2
    right = kink + (omega[1] - kink) * s_right**2
    return np.concatenate([left, right[1:]])


class SingularFront:
    """Problem `singular`: rate sweep, solution files written and read back, a graded level."""

    name = "singular-front"
    full = {"degrees": (2, 3), "ks": (2, 3, 4, 5), "graded": (2, 8, 40, 16)}

    def __init__(self, xw, workdir, degrees, ks, graded):
        self.xw, self.workdir, self.degrees, self.ks, self.graded = xw, workdir, degrees, ks, graded
        self.problem = xw.by_name("singular").spec
        p, n_left, n_right, n_t = graded
        self.graded_bp = graded_breakpoints(n_left, n_right, self.problem.omega)
        a, b = self.problem.omega
        self.grid_x = a + (b - a) * _GRID_X
        self.grid_t = self.problem.T * _GRID_T

    def _level(self, p, n_x, n_t, breakpoints_x=None):
        space_x, space_t = _spaces(self.xw, self.problem, n_x, n_t, p, breakpoints_x)
        return _solve_level(self.xw, self.problem, space_x, space_t)

    def _round_trip(self, solution, tag):
        path = os.path.join(self.workdir, f"solution_{tag}.txt")
        self.xw.dump_solution(solution, path)
        loaded = self.xw.load_solution(path, self.problem)
        return loaded, self.xw.evaluate_grid(loaded, self.grid_x, self.grid_t)

    def run_round(self, rnd):
        out = {}
        levels = [(p, 3 * 2**k, 2**k, None) for p in self.degrees for k in self.ks]
        p, n_left, n_right, n_t = self.graded
        levels.append((p, n_left + n_right, n_t, self.graded_bp))
        for p, n_x, n_t, bp in levels:
            graded = bp is not None
            tag = f"p{p}_{n_x}x{n_t}" + ("_graded" if graded else "")
            level = rnd.run(tag, self._level, p, n_x, n_t, bp)
            trip = rnd.run(f"{tag} round trip", self._round_trip, level[1], tag) if level else None
            entry = {"p": p, "graded": graded, "trip": trip, "system": None, "solution": None}
            if level:
                # only the smallest level per degree and the graded one keep their system
                if graded or n_t == 2 ** self.ks[0]:
                    entry["system"] = level[0]
                entry["solution"], entry["report"] = level[1], level[2]
            out[tag] = entry
        return out

    def _trip_diff(self, original, loaded_values, xs, ts):
        """Largest change of (U, V) on xs x ts, relative to max(1, max |U|, max |V|)."""
        u0, v0 = self.xw.evaluate_grid(original, xs, ts)
        u1, v1 = loaded_values
        scale = max(1.0, float(np.max(np.abs(u0))), float(np.max(np.abs(v0))))
        return max(float(np.max(np.abs(u1 - u0))), float(np.max(np.abs(v1 - v0)))) / scale

    def check(self, rnd, out):
        from . import reference as ref

        fails = []
        for tag, e in out.items():
            if e["solution"] is None or e["trip"] is None:
                fails.append(f"{tag}: operation failed")
                continue
            diff = self._trip_diff(e["solution"], e["trip"][1], self.grid_x, self.grid_t)
            if diff > ref.EVAL_RTOL:
                msg = f"round trip changes values by {diff:.3e}"
                rnd.fail(f"{tag} round trip", msg)
                if not e["graded"]:
                    fails.append(f"{tag}: {msg}")
        for p in self.degrees:
            reports = [e["report"] for e in out.values() if e["p"] == p and not e["graded"] and e["solution"]]
            if len(reports) != len(self.ks):
                continue
            for field, target in (("err_U_L2", 1.5), ("err_V_L2", 0.5)):
                slope = float(np.mean(self.xw.eoc([getattr(r, field) for r in reports])))
                if not abs(slope - target) <= 0.15:
                    fails.append(f"p={p}: mean slope of {field} {slope:.3f}, expected {target} +- 0.15")
        return fails

    def check_reference(self, out, rng):
        from . import reference as ref

        fails = []
        for tag, e in out.items():
            if e["system"] is None:
                continue
            fails += _reference_solution_checks(self.xw, self.problem, e["system"], e["solution"], rng, tag)
            if e["trip"] is not None and not e["graded"]:
                xs, ts = _check_points(rng, self.problem)
                loaded = self.xw.evaluate_grid(e["trip"][0], xs, ts)
                diff = self._trip_diff(e["solution"], loaded, xs, ts)
                if diff > ref.EVAL_RTOL:
                    fails.append(f"{tag}: round trip changes values at seeded points by {diff:.3e}")
        return fails


WORKLOADS = {w.name: w for w in (SmoothConvergence, HighdegStability, InfsupDense, SingularFront)}
