"""The measured process of one benchmark run: `python3 -m perfbench.worker ...`.

Started by run.py from the root of an xtwave checkout.  It imports xtwave
from that checkout's `src`, builds the workload's inputs (set-up), runs whole
rounds of the workload while another round still fits in `--seconds`
(with `--trace 1`, traced and untraced rounds alternate), checks every round's
outputs and, once, compares the first round with the reference computations.
With `--trace 0` it runs calibrate.reference_work() after its set-up and after
every round, scales each round's time by it and reports the factor that
scales set-up times (see calibrate.py).
Human-readable lines go to stdout first; the last line is one JSON object for
run.py.
"""

import argparse
import ctypes
import json
import os
import re
import resource
import statistics
import sys
import time


def _blas_threads():
    """Thread count of every OpenBLAS library loaded into this process."""
    with open("/proc/self/maps") as f:
        libs = sorted(set(re.findall(r"\S*openblas\S*\.so\S*", f.read())))
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype, fn.argtypes = ctypes.c_int, []
                found[os.path.basename(path)] = fn()
                break
    return found


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas['name']} {blas['version']}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
    }


def level_max_s(rounds):
    """Median time of the operation whose median time is largest."""
    times = {}
    for r in rounds:
        for name, seconds, _ in r["ops"]:
            times.setdefault(name, []).append(seconds)
    return max(statistics.median(t) for t in times.values())


def _args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, required=True, help="time.monotonic() when started")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def main(argv=None):
    args = _args(argv)
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import xtwave

    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.realpath(xtwave.__file__))) != os.path.realpath(src):
        print(f"error: xtwave was imported from {xtwave.__file__}, not from {src}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS, Round

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    workload = cls(xtwave, args.workdir, **cls.full)
    setup_s = time.monotonic() - args.t_spawn
    if args.setup_only:
        print(json.dumps({"wall_setup_s": setup_s}))
        return 0
    if not args.trace:
        from perfbench.calibrate import REFERENCE_S, reference_s

        reference = [reference_s()]

    import numpy as np

    tracer = None
    if args.trace:
        from perfbench.tracing import PER_LAYER_UNITS, Tracer

        tracer = Tracer()
    rounds, traced_rounds, failures, first = [], [], [], None
    start = time.monotonic()
    while True:
        # with --trace 1, traced and untraced rounds alternate, so that both see the same
        # machine; a traced round comes first, so that its solves can raise the process peak
        traced = tracer is not None and len(traced_rounds) <= len(rounds)
        rnd = Round()
        if traced:
            out, sweep_s = tracer.round(xtwave, workload.run_round, rnd)
        else:
            t = time.perf_counter()
            out = workload.run_round(rnd)
            sweep_s = time.perf_counter() - t
        label = f"{'traced' if traced else 'untraced'} round {len(traced_rounds if traced else rounds)}"
        failures += [f"{label}: {msg}" for msg in workload.check(rnd, out)]
        record = {"sweep_s": sweep_s, "attempted": rnd.attempted, "failed": rnd.failed, "ops": rnd.ops}
        if tracer is None:
            # the machine's speed during the round: the mean of the reference work before and after
            reference.append(reference_s())
            record["scaled_sweep_s"] = sweep_s * REFERENCE_S * 2 / (reference[-2] + reference[-1])
        if traced:
            record["per_layer"] = tracer.per_layer(import_s)
            report = tracer.report()
        (traced_rounds if traced else rounds).append(record)
        first = out if first is None else first
        fits = time.monotonic() - start + sweep_s <= args.seconds
        if not fits and (tracer is None or rounds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures += workload.check_reference(first, np.random.default_rng(args.seed))

    print(f"# env {json.dumps(environment())}")
    print(f"# set-up {setup_s:.4f} s, of which import xtwave {import_s:.4f} s")
    if tracer is None:
        print(f"# reference work (s): {', '.join(f'{c:.4f}' for c in reference)}")
    for kind, records in (("untraced", rounds), ("traced", traced_rounds)):
        for i, r in enumerate(records):
            slowest = max(r["ops"], key=lambda op: op[1])
            scaled = f" (scaled {r['scaled_sweep_s']:.4f} s)" if "scaled_sweep_s" in r else ""
            print(
                f"# {kind} round {i}: sweep {r['sweep_s']:.4f} s{scaled}, {r['attempted']} operations, "
                f"{r['failed']} failed, slowest {slowest[0]} {slowest[1]:.4f} s"
            )
            for name, seconds, error in r["ops"]:
                if error:
                    print(f"#   failed: {name}: {error}")
    if tracer:
        print("# span tree of the last traced round")
        for line in report:
            print(f"#   {line}")
    for msg in failures:
        print(f"# CHECK FAILED: {msg}")
    result = {
        "wall_setup_s": setup_s,
        "wall_sweep_s": statistics.median(r["sweep_s"] for r in rounds),
        "level_max_s": level_max_s(rounds),
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(r["attempted"] for r in rounds + traced_rounds),
        "failed": sum(r["failed"] for r in rounds + traced_rounds),
        "correct": not failures,
    }
    if tracer is None:
        # set-up workers run no reference work: the run's median speed scales their times
        result["setup_scale"] = REFERENCE_S / statistics.median(reference)
        result["sweep_s"] = statistics.median(r["scaled_sweep_s"] for r in rounds)
    else:
        result["traced_sweep_s"] = statistics.median(r["sweep_s"] for r in traced_rounds)
        result["per_layer"] = {}
        for k, unit in PER_LAYER_UNITS.items():
            values = [r["per_layer"][k] for r in traced_rounds]
            # later rounds reuse memory the first one faulted in: their solves raise no peak
            value = max(values) if k == "system.solve_rss_growth_mb" else statistics.median(values)
            result["per_layer"][k] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
