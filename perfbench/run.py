"""Run one workload of the xtwave benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an xtwave checkout; xtwave is imported from `src`.
With `--trace 0` the last line of stdout is a JSON object with the end-to-end
metrics (setup_s, sweep_s, peak_rss_mb; the times scaled by the reference work
of calibrate.py, the wall times printed before it); with `--trace 1` it
holds the per-layer metrics of the traced rounds, and the lines before it give
the span tree, the self-time sum and the tracing overhead.  See README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("smooth-convergence", "highdeg-stability", "infsup-dense", "singular-front")
# set-up-only processes before and after the measured worker; spreading the set-up
# samples over the run keeps one slow stretch of the machine from setting them all
SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER = 1, 2
TIME_LIMIT_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread: with one per core, OpenBLAS's waiting threads keep every core busy
# (highdeg-stability: 27 s of CPU for 15 s of wall time on 2 cores), so any other
# process on the machine made rounds up to twice as slow; with one, CPU time = wall time
BLAS_THREADS = 1
END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "peak_rss_mb": "MB"}


def pinned_env():
    """This process's environment with BLAS_THREADS BLAS threads."""
    env = dict(os.environ)
    env.update((var, str(BLAS_THREADS)) for var in BLAS_VARS)
    env.pop("PYTHONPATH", None)  # xtwave must come from this checkout's src
    return env


class Runner:
    """Starts worker processes one at a time and waits for each to end."""

    def __init__(self, args, root, env, workdir):
        self.args, self.root, self.env, self.workdir = args, root, env, workdir
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def worker(self, trace=0, setup_only=False):
        a = self.args
        cmd = [sys.executable, "-m", "perfbench.worker", "--workload", a.workload, "--seed", str(a.seed)]
        cmd += ["--seconds", str(a.seconds), "--trace", str(trace), "--workdir", self.workdir]
        cmd += ["--setup-only"] if setup_only else []
        cmd += ["--t-spawn", repr(time.monotonic())]
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        for line in lines[:-1]:
            print(line)
        return json.loads(lines[-1])


def _result(correct, attempted, failed, metrics):
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run(args, runner):
    if not args.trace:
        setups = [runner.worker(setup_only=True) for _ in range(SETUP_PROBES_BEFORE)]
        res = runner.worker()
        setups.append(res)
        setups += [runner.worker(setup_only=True) for _ in range(SETUP_PROBES_AFTER)]
        wall_setups = [s["wall_setup_s"] for s in setups]
        print(f"# set-up samples, wall time (s): {', '.join(f'{s:.4f}' for s in wall_setups)}")
        print(f"# set-up scale (reference work): {res['setup_scale']:.4f}")
        print(f"# wall_sweep_s (median round wall time, not scaled): {res['wall_sweep_s']:.4f} s")
        print(f"# level_max_s (wall time, printed, not a bounded metric): {res['level_max_s']:.4f} s")
        values = dict(res, setup_s=statistics.median(wall_setups) * res["setup_scale"])
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        return _result(res["correct"], res["attempted"], res["failed"], metrics)

    res = runner.worker(trace=1)
    overhead = res["traced_sweep_s"] - res["wall_sweep_s"]
    print(
        f"# tracing overhead: traced round {res['traced_sweep_s']:.4f} s - untraced round "
        f"{res['wall_sweep_s']:.4f} s = {overhead:.4f} s ({100 * overhead / res['wall_sweep_s']:.1f} %)"
    )
    print("# per-layer metrics (self times; medians over the traced rounds, solve RSS growth the largest):")
    for key, m in res["per_layer"].items():
        print(f"#   {key:<34}{m['value']:>16.6g} {m['unit']}")
    return _result(res["correct"], res["attempted"], res["failed"], res["per_layer"])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "xtwave", "__init__.py")):
        print(f"error: {root} is not the root of an xtwave checkout (no src/xtwave)", file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir)
    # on SIGTERM, unwind: subprocess.run kills and reaps the worker, finally removes workdir
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args, Runner(args, root, pinned_env(), workdir))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
