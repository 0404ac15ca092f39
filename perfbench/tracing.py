"""Span recorder that times xtwave's layers from outside the package.

For the length of one round, `Tracer.round` replaces each traced public
function by a wrapper that records one span (name, start, end, parent) per
call, and puts the originals back afterwards.  Several modules import these
functions by name (`system` imports `assemble_space_matrix`, `analysis`
imports `evaluate_grid`, `cli` imports `assemble`, `solve` and
`error_report`), so every module attribute that refers to the original is
replaced, not only the defining one.  Spans stay in memory; `per_layer` and
`report` read them when the round ends.
"""

import functools
import os
import resource
import sys
import time
from collections import defaultdict

PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _rss_mb():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * PAGE_MB


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# per-layer metric -> unit, in the order of BENCHMARK.json
PER_LAYER_UNITS = {
    "package.import_s": "s",
    "splines.tabulate_s": "s",
    "splines.tabulate_calls": "count",
    "splines.tabulate_points": "count",
    "quadrature.panel_points_calls": "count",
    "forms.assemble_s": "s",
    "forms.assemble_calls": "count",
    "system.assemble_s": "s",
    "system.matrix_nnz_max": "count",
    "system.factor_s": "s",
    "system.guard_s": "s",
    "system.solve_rss_growth_mb": "MB",
    "system.residual_max": "1",
    "system.evaluate_grid_s": "s",
    "system.io_s": "s",
    "system.io_bytes": "bytes",
    "newton.make_newton_solver_s": "s",
    "newton.make_newton_solver_calls": "count",
    "analysis.error_report_s": "s",
    "analysis.estimate_infsup_s": "s",
    "analysis.discrete_veh_norm_s": "s",
    "cli.run_s": "s",
}

# span name -> per-layer metric that receives the span's self time
SELF_TIME_METRIC = {
    "splines.tabulate": "splines.tabulate_s",
    "forms.assemble": "forms.assemble_s",
    "system.assemble": "system.assemble_s",
    "system.evaluate_grid": "system.evaluate_grid_s",
    "system.io": "system.io_s",
    "newton.make_newton_solver": "newton.make_newton_solver_s",
    "analysis.error_report": "analysis.error_report_s",
    "analysis.estimate_infsup": "analysis.estimate_infsup_s",
    "analysis.discrete_veh_norm": "analysis.discrete_veh_norm_s",
    "cli.run": "cli.run_s",
}
ROOT = "sweep"


class Tracer:
    """In-memory spans and counters of the last traced round."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, extra dict]
        self.stack = []
        self.counts = defaultdict(float)
        self._undo = []

    # -- recording -----------------------------------------------------
    def _open(self, name):
        rec = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    def round(self, xw, fn, *args):
        """Run fn(*args) traced under a fresh root span; returns (result, root duration)."""
        self.spans.clear()
        self.counts.clear()
        self._install(xw)
        try:
            rec = self._open(ROOT)
            try:
                result = fn(*args)
            finally:
                self._close(rec)
        finally:
            self._uninstall()
        return result, rec[2] - rec[1]

    def _span_wrapper(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if after:
                rec[4] = after(state, args, result)
            return result

        return wrapper

    def _count_wrapper(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------
    def _replace_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "xtwave" or mod_name.startswith("xtwave.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _install(self, xw):
        """Wrap the traced public functions of the imported package `xw`."""
        counts = self.counts

        def tabulate_after(state, args, result):
            counts["splines.tabulate_calls"] += 1
            counts["splines.tabulate_points"] += result.shape[0]

        def forms_after(state, args, result):
            counts["forms.assemble_calls"] += 1

        def assemble_after(state, args, result):
            counts["system.matrix_nnz_max"] = max(counts["system.matrix_nnz_max"], result.matrix.nnz)

        def solve_before(args):
            return _rss_mb(), _peak_rss_mb()

        def solve_after(state, args, result):
            rss_before, peak_before = state
            peak_after = _peak_rss_mb()
            if peak_after > peak_before:  # this solve set the process peak
                growth = peak_after - rss_before
                counts["system.solve_rss_growth_mb"] = max(counts["system.solve_rss_growth_mb"], growth)
            counts["system.residual_max"] = max(counts["system.residual_max"], result.residual)
            return {"solve_seconds": result.solve_seconds}

        def io_after(path_arg):
            def after(state, args, result):
                counts["system.io_bytes"] += os.path.getsize(args[path_arg])

            return after

        def newton_after(state, args, result):
            counts["newton.make_newton_solver_calls"] += 1

        spline_cls = xw.splines.SplineSpace
        original = spline_cls.tabulate
        spline_cls.tabulate = self._span_wrapper("splines.tabulate", original, after=tabulate_after)
        self._undo.append((spline_cls, "tabulate", original))

        targets = [
            (xw.forms.assemble_space_matrix, "forms.assemble", None, forms_after),
            (xw.forms.assemble_time_matrix, "forms.assemble", None, forms_after),
            (xw.system.assemble, "system.assemble", None, assemble_after),
            (xw.system.solve, "system.solve", solve_before, solve_after),
            (xw.system.evaluate_grid, "system.evaluate_grid", None, None),
            (xw.system.dump_solution, "system.io", None, io_after(1)),
            (xw.system.load_solution, "system.io", None, io_after(0)),
            (xw.newton.make_newton_solver, "newton.make_newton_solver", None, newton_after),
            (xw.analysis.error_report, "analysis.error_report", None, None),
            (xw.analysis.estimate_infsup, "analysis.estimate_infsup", None, None),
            (xw.analysis.discrete_veh_norm, "analysis.discrete_veh_norm", None, None),
            (xw.cli.run, "cli.run", None, None),
        ]
        for fn, name, before, after in targets:
            self._replace_everywhere(fn, self._span_wrapper(name, fn, before, after))
        panel = xw.quadrature.panel_points
        self._replace_everywhere(panel, self._count_wrapper("quadrature.panel_points_calls", panel))

    def _uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis ------------------------------------------------------
    def self_times(self):
        """Self time of every span: its duration minus its direct children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def per_layer(self, import_s):
        """Per-layer metrics of the last round (all times are self times)."""
        values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        values["package.import_s"] = import_s
        for (name, start, end, _, extra), own in zip(self.spans, self.self_times()):
            if name in SELF_TIME_METRIC:
                values[SELF_TIME_METRIC[name]] += own
            elif name == "system.solve":
                factor = extra["solve_seconds"] if extra else own  # a failed solve has no split
                values["system.factor_s"] += factor
                values["system.guard_s"] += own - factor
        for key, value in self.counts.items():
            values[key] = value
        return values

    def report(self):
        """Lines of the span tree (calls, total, self by call path) and the self-time sum."""
        selfs = self.self_times()
        paths, tree = [], defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            path = (paths[parent] if parent >= 0 else ()) + (name,)
            paths.append(path)
            node = tree[path]
            node[0] += 1
            node[1] += end - start
            node[2] += selfs[i]
        lines = [f"{'span':<58}{'calls':>8}{'total_s':>11}{'self_s':>11}"]
        for path in sorted(tree):
            calls, total, own = tree[path]
            label = "  " * (len(path) - 1) + path[-1]
            lines.append(f"{label:<58}{calls:>8d}{total:>11.4f}{own:>11.4f}")
        root = self.spans[0]
        lines.append(
            f"self times sum to {sum(selfs):.6f} s; traced round {root[2] - root[1]:.6f} s; "
            f"'{ROOT}' self time (benchmark code and untraced calls) {selfs[0]:.4f} s"
        )
        lines.append("counts: " + ", ".join(f"{k}={v:g}" for k, v in sorted(self.counts.items())))
        return lines
