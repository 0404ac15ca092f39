"""Steadiness of the benchmark: repeat workloads, summarise, compare two sets.

    python3 perfbench/steady.py --workload NAME|all [--runs 10] [--first-seed 1] [--save SET.json]
    python3 perfbench/steady.py --compare FIRST.json SECOND.json

The first form runs `run.py --trace 0` once per seed, one run at a time, and
prints for every end-to-end metric its median, quartiles (as
statistics.quantiles(values, n=4) gives them) and spread: (q3 - q1) / median.
The bounds in BENCHMARK.json were set from this output.  The second form
compares two saved sets of the same workloads: each second median must not be
worse than the first by more than the metric's bound, and the share of failed
operations must be identical.  Run from the root of an xtwave checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def _spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_set(spec, workloads, runs, first_seed):
    out = {}
    for name in workloads:
        results = []
        for seed in range(first_seed, first_seed + runs):
            cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed)]
            cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            res = json.loads(proc.stdout.splitlines()[-1])
            results.append(res)
            vals = ", ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
            print(f"{name} seed {seed}: correct={res['correct']} {res['failed']}/{res['attempted']} failed; {vals}", flush=True)
        out[name] = results
    return out


def summarise(spec, results):
    """Lines of per-metric statistics; returns (lines, every spread below its bound)."""
    lines, ok = [], True
    for name, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        ok &= correct and len(shares) == 1
        lines.append(f"{name}: {len(runs)} runs, correct={correct}, failed shares {sorted(shares)}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "steady" if spread < m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "TOO WIDE")
            if m["name"] != "setup_s":
                ok &= spread <= m["bound"]
            lines.append(
                f"  {m['name']:<12} median {med:10.4f} {m['unit']:<3} q1 {q1:10.4f} q3 {q3:10.4f} "
                f"spread {100 * spread:6.2f} % (bound {100 * m['bound']:.0f} %) {verdict}"
            )
    return lines, ok


def compare(spec, first, second):
    """Lines comparing two sets; returns (lines, the second set is acceptable)."""
    lines, ok = [], True
    for name in first:
        a, b = first[name], second[name]
        shares = {r["failed"] / r["attempted"] for r in a + b}
        ok &= len(shares) == 1
        lines.append(f"{name}: failed shares {sorted(shares)}")
        for m in spec["end_to_end"]:
            ma = statistics.median(r["metrics"][m["name"]]["value"] for r in a)
            mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            ok &= worse <= m["bound"]
            lines.append(
                f"  {m['name']:<12} first {ma:10.4f} second {mb:10.4f} worse by {100 * worse:6.2f} % "
                f"(bound {100 * m['bound']:.0f} %)"
            )
    return lines, ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args(argv)
    spec = _spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        lines, ok = compare(spec, *sets)
    else:
        if not args.workload:
            ap.error("--workload or --compare is required")
        names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
        results = run_set(spec, names, args.runs, args.first_seed)
        if args.save:
            with open(args.save, "w") as f:
                json.dump(results, f, indent=1)
        lines, ok = summarise(spec, results)
    print("\n".join(lines))
    print("OK" if ok else "NOT OK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
