"""Run the benchmark across workloads and seeds.

    python3 perfbench/suite.py check
        Every workload on the committed seed and on the held-out seed, with
        --trace 0 and --trace 1; prints every metric with its unit and fails
        unless every op on both seeds is correct.

    python3 perfbench/suite.py spread
        Two sets of ten untraced runs per workload, seeds 1..10 in each set,
        the second set started after the first has covered every workload;
        prints each end-to-end metric's median, its quartile spread
        (q3 - q1) / median, and how much worse the second set's median is
        than the first's, against the bounds in BENCHMARK.json.  Then
        records one traced run per workload on the committed seed, and
        stores everything as the baseline, perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402
import workloads  # noqa: E402

COMMITTED_SEED = 1
HELD_OUT_SEED = 1000  # not used while the benchmark was tuned
RUNS = 10  # untraced runs per workload in one set, seeds 1..RUNS
SETS = 2   # sets of runs whose medians must agree within the bounds


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace):
    """One benchmark invocation; returns (result, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check(spec):
    ok = True
    for seed in (COMMITTED_SEED, HELD_OUT_SEED):
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                result, lines = run_once(workload, seed, spec["run_seconds"],
                                         trace)
                print("\n".join(lines))
                print(f"result correct={result['correct']} "
                      f"attempted={result['attempted']} "
                      f"failed={result['failed']}\n", flush=True)
                ok = ok and result["correct"] and result["failed"] == 0
    print("check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def quartile_spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def collect(workload, seconds, metrics):
    values = {m["name"]: [] for m in metrics}
    for seed in range(1, RUNS + 1):
        result, _ = run_once(workload, seed, seconds, 0)
        if not result["correct"]:
            raise SystemExit(f"{workload} seed {seed} failed its checks")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"{workload} seed {seed}: " + " ".join(
            f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)
    return {name: quartile_spread(v) for name, v in values.items()}


def spread(spec):
    """Quartile spread of each end-to-end metric over RUNS seeds, and how far
    the second set's median is worse than the first's; both against the
    bounds in BENCHMARK.json."""
    report = {"environment": run.environment(),
              "run_seconds": spec["run_seconds"], "runs": RUNS,
              "seeds": list(range(1, RUNS + 1)), "workloads": {}}
    # each set covers every workload before the next set starts, so the
    # sets are as far apart in time as the workloads' runs allow
    all_sets = [{workload: collect(workload, spec["run_seconds"],
                                   spec["end_to_end"])
                 for workload in workloads.WORKLOADS} for _ in range(SETS)]
    worst_spread = worst_shift = 0.0
    for workload in workloads.WORKLOADS:
        sets = [s[workload] for s in all_sets]
        print(workload)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = sets[0][name]["median"]
            for k, rows in enumerate(sets):
                row = rows[name]
                change = (row["median"] - first) / first
                worse = change if metric["better"] == "lower" else -change
                print(f"  set {k + 1} {name:<18} median {row['median']:<12.6g}"
                      f" spread {row['spread']:7.2%} worse-than-set-1 "
                      f"{worse:7.2%} bound {bound:.0%}")
                worst_spread = max(worst_spread, row["spread"] / bound)
                worst_shift = max(worst_shift, worse / bound)
        result, _ = run_once(workload, COMMITTED_SEED, spec["run_seconds"],
                             1)
        report["workloads"][workload] = {
            "end_to_end_sets": sets,
            "per_layer_seed1": {name: [m["value"], m["unit"]]
                                for name, m in result["metrics"].items()}}
    print(f"largest spread / bound: {worst_spread:.2f}")
    print(f"largest median worsening / bound: {worst_shift:.2f}")
    path = os.path.join(HERE, "baseline.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("check", "spread"))
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.mode == "check":
        return check(spec)
    return spread(spec)


if __name__ == "__main__":
    sys.exit(main())
