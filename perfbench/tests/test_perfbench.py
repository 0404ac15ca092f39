"""Tests of the benchmark itself: tiny workloads run to their end, every
check rejects a deliberately corrupted result, and run.py prints the result
line with its times scaled as calibrate.py describes.

    python3 -m pytest perfbench/tests -q      (from the root of the checkout)
"""

import copy
import csv
import json
import os
import statistics
import subprocess
import sys

import numpy as np
import pytest

import xtwave as xw
from perfbench import reference as ref
from perfbench import tracing
from perfbench.workloads import WORKLOADS, Round

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TINY = {
    "smooth-convergence": {"degrees": (2, 3), "levels": ((4, 12), (8, 24), (16, 48))},
    "highdeg-stability": {"degrees": (3,), "n_t": 8, "n_x": (16, 32, 64)},
    "infsup-dense": {"degrees": (1, 2), "meshes": ((4, 4), (8, 8), (4, 8))},
    "singular-front": {"degrees": (2,), "ks": (2, 3, 4), "graded": (2, 4, 12, 8)},
}
# operations per round at the sizes above, and how many fail (the graded round trip)
EXPECTED_OPS = {
    "smooth-convergence": (6, 0),
    "highdeg-stability": (4, 0),
    "infsup-dense": (6, 0),
    "singular-front": (8, 1),
}
# rates are asymptotic: at tiny sizes only these checks may fail
RATE_MESSAGES = ("finest-step", "mean slope")


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """One checked tiny round of every workload: (workload, round, outputs, failures)."""
    done = {}
    for name, cls in WORKLOADS.items():
        workload = cls(xw, str(tmp_path_factory.mktemp(name)), **TINY[name])
        rnd = Round()
        out = workload.run_round(rnd)
        done[name] = (workload, rnd, out, workload.check(rnd, out))
    return done


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_runs_to_its_end(rounds, name):
    workload, rnd, out, fails = rounds[name]
    assert [f for f in fails if not any(m in f for m in RATE_MESSAGES)] == []
    assert (rnd.attempted, rnd.failed) == EXPECTED_OPS[name]
    assert min(op[1] for op in rnd.ops) > 0
    assert workload.check_reference(out, np.random.default_rng(0)) == []


# -- reference checks reject corrupted results -------------------------------


@pytest.fixture(scope="module")
def solved():
    problem = xw.smooth_case().spec
    space_x = xw.make_uniform_space(problem.omega, 6, 3, None, "zero-both")
    space_t = xw.make_uniform_space((0.0, problem.T), 5, 3, None, "zero-left")
    system = xw.assemble(problem, space_x, space_t)
    solution = xw.solve(system)
    return problem, system, solution, ref.Factors(problem, space_x, space_t, system.n_quad)


def test_factor_check_rejects_perturbed_matrix(solved):
    problem, system, solution, factors = solved
    assert ref.check_factors(factors, system) == []
    for name in ("M_x", "K_x", "M_e"):
        bad = copy.copy(system)
        setattr(bad, name, getattr(system, name).copy())
        getattr(bad, name)[1, 2] *= 1 + 1e-9
        assert ref.check_factors(factors, bad), name


def test_residual_check_rejects_perturbed_coefficient(solved):
    problem, system, solution, factors = solved
    assert ref.check_residual(factors, solution) == []
    bad = copy.copy(solution)
    bad.u_coeffs = solution.u_coeffs.copy()
    bad.u_coeffs[2, 1] += 1e-7
    assert ref.check_residual(factors, bad)


def test_value_check_rejects_perturbed_coefficient(solved):
    problem, system, solution, factors = solved
    xs, ts = np.linspace(0.05, 0.95, 7), np.linspace(0.1, 2.9, 5)
    u, v = xw.evaluate_grid(solution, xs, ts)
    assert ref.check_values(u, v, *ref.reference_values(solution, problem, xs, ts), "ok") == []
    bad = copy.copy(solution)
    bad.v_coeffs = solution.v_coeffs.copy()
    bad.v_coeffs[3, 3] += 1e-6
    assert ref.check_values(u, v, *ref.reference_values(bad, problem, xs, ts), "bad")


def test_gamma_check_rejects_wrong_value(solved):
    problem, system, solution, factors = solved
    est = xw.estimate_infsup(problem, solution.space_x, solution.space_t)
    gamma = ref.reference_gamma(factors)
    assert ref.check_gamma(est.gamma_h, gamma, "ok") == []
    assert ref.check_gamma(est.gamma_h * (1 + 1e-6), gamma, "bad")


# -- workload checks reject wrong outputs -------------------------------------


def test_smooth_check_rejects_wrong_rate(rounds):
    workload, rnd, codes, _ = rounds["smooth-convergence"]
    path = os.path.join(workload.workdir, "smooth_p2", "results.csv")
    with open(path) as f:
        saved = f.read()
    rows = list(csv.DictReader(saved.splitlines()))
    rows[-1]["eoc_U_L2"] = rows[-1]["eoc_V_L2"] = "3.0e+00"  # p = 2: on target
    try:
        for eoc_veh, ok in (("2.1e+00", True), ("2.3e+00", False)):
            rows[-1]["eoc_Veh"] = eoc_veh
            with open(path, "w", newline="") as f:
                writer = csv.DictWriter(f, list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
            fails = [f for f in workload.check(rnd, codes) if f.startswith("p=2")]
            assert (fails == []) == ok, fails
        assert workload.check(rnd, {**codes, 2: 3})  # a failed CLI run is a failure
    finally:
        with open(path, "w") as f:
            f.write(saved)


def test_highdeg_check_rejects_growth_and_bound(rounds):
    workload, rnd, out, fails = rounds["highdeg-stability"]
    assert fails == []
    levels = list(out[3])
    _, norm, keep = levels[1]
    levels[1] = (1.6 * levels[0][0], norm, keep)  # error grows by 1.6 under refinement
    grown = {**out, 3: levels}
    assert any("error ratio" in f for f in workload.check(rnd, grown))
    low = dict(out, bound=0.5 * max(r[1] for r in out[3]))
    assert any("stability_data_bound" in f for f in workload.check(rnd, low))


def test_infsup_check_rejects_gamma_below_bound(rounds):
    workload, rnd, out, fails = rounds["infsup-dense"]
    assert fails == []
    case = next(iter(out))
    bad = dict(out)
    est = out[case]
    bad[case] = xw.InfSupEstimate(est.lower_bound - 1e-6, est.lower_bound, est.dims)
    assert any("below the bound" in f for f in workload.check(rnd, bad))
    bad[case] = xw.InfSupEstimate(est.gamma_h, est.lower_bound * (1 + 1e-9), est.dims)
    assert any("closed form" in f for f in workload.check(rnd, bad))


def test_singular_checks_reject_round_trip_and_slope(rounds):
    workload, rnd, out, _ = rounds["singular-front"]
    tag = "p2_12x4"
    loaded, (u, v) = out[tag]["trip"]
    bad = dict(out)
    bad[tag] = dict(out[tag], trip=(loaded, (u + 1e-9, v)))
    fresh = Round()
    fresh.ops = [list(op) for op in rnd.ops]
    for op in fresh.ops:
        op[2] = None
    assert any("round trip changes values" in f for f in workload.check(fresh, bad))
    assert fresh.failed == 2  # the corrupted uniform trip and the graded one

    class Report:
        def __init__(self, e_u, e_v):
            self.err_U_L2, self.err_V_L2 = e_u, e_v

    slopes = dict(out)
    uniform = [t for t, e in out.items() if not e["graded"]]
    for i, t in enumerate(uniform):  # exact slopes 3/2 and 1/2, then 2 and 1/2
        slopes[t] = dict(out[t], report=Report(2.0 ** (-1.5 * i), 2.0 ** (-0.5 * i)))
    assert not any("mean slope" in f for f in workload.check(fresh, slopes))
    for i, t in enumerate(uniform):
        slopes[t] = dict(out[t], report=Report(2.0 ** (-2.0 * i), 2.0 ** (-0.5 * i)))
    assert any("mean slope of err_U_L2" in f for f in workload.check(fresh, slopes))


def test_graded_round_trip_is_the_known_failure(rounds):
    workload, rnd, out, _ = rounds["singular-front"]
    failed = [op[0] for op in rnd.ops if op[2] is not None]
    assert failed == ["p2_16x8_graded round trip"]


# -- tracing ------------------------------------------------------------------


def test_tracer_self_times_add_up_and_wrappers_come_off(tmp_path):
    names = ("assemble", "solve", "error_report")
    before = {n: getattr(xw.cli, n) for n in names}
    tabulate = xw.splines.SplineSpace.tabulate
    tracer = tracing.Tracer()
    workload = WORKLOADS["smooth-convergence"](xw, str(tmp_path), degrees=(2,), levels=((4, 12), (8, 24)))
    seen = {}

    def run_round(rnd):
        seen.update({n: getattr(xw.cli, n) is not before[n] for n in names})
        return workload.run_round(rnd)

    codes, sweep_s = tracer.round(xw, run_round, Round())
    assert codes == {2: 0} and all(seen.values())
    assert all(getattr(xw.cli, n) is before[n] for n in names)
    assert xw.splines.SplineSpace.tabulate is tabulate
    assert sum(tracer.self_times()) == pytest.approx(sweep_s, rel=1e-9)
    layer = tracer.per_layer(0.5)
    assert set(layer) == set(tracing.PER_LAYER_UNITS)
    assert layer["cli.run_s"] > 0 and layer["system.factor_s"] > 0
    assert layer["forms.assemble_calls"] > 0 and layer["quadrature.panel_points_calls"] > 0
    assert 0 < layer["system.residual_max"] <= 1e-10


def test_benchmark_json_names_match_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", "infsup-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_run_prints_scaled_times_consistent_with_its_wall_times():
    from perfbench.calibrate import REFERENCE_S

    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "infsup-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and (result["attempted"], result["failed"]) == (15, 0)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {"setup_s": "s", "sweep_s": "s", "peak_rss_mb": "MB"}

    def numbers(prefix):
        line = next(line for line in lines if line.startswith(prefix))
        return [float(x) for x in line[len(prefix):].replace(" s", "").split(", ")]

    # one round, so sweep_s is that round's time scaled by the reference work around it
    before, after = numbers("# reference work (s): ")
    wall = next(line for line in lines if line.startswith("# untraced round 0:")).split()[5]
    expected = float(wall) * REFERENCE_S * 2 / (before + after)
    assert result["metrics"]["sweep_s"]["value"] == pytest.approx(expected, rel=2e-3)
    setups = numbers("# set-up samples, wall time (s): ")
    (scale,) = numbers("# set-up scale (reference work): ")
    assert len(setups) == 4 and scale == pytest.approx(REFERENCE_S / statistics.median([before, after]), rel=2e-3)
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(statistics.median(setups) * scale, rel=2e-3)
