"""zplkit benchmark: one workload per invocation, driven only through
zplkit.cli.main in fresh single-threaded worker processes.

    python3 perfbench/run.py --workload series_flow --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with no instrumentation: a few
fresh workers in turn each pay set-up once (import + one op) and then run
ops back to back (closed loop, one client), for --seconds in total.
--trace 1 runs a fixed number of ops twice under the tracer and twice
without it; it fails if the two traced passes disagree on any count, and
reports per-layer metrics plus the tracing overhead.  Every op's outputs
are checked.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

# The timed phase is split over this many fresh workers, each paying
# import + one untimed op first: one set-up sample each, spread over the
# run, since host speed changes within seconds.  Fewer where an op is slow.
SEGMENTS = {"series_flow": 5, "simulate_flow": 3, "compare_sweep": 9}
# Every set-up sample runs the same op: series_flow ops differ by up to 2x
# with their inputs, and a median over mixed inputs jumps between them.
SETUP_OP = "setup-0"
HUGEPAGE_ADVICE = "0"
RUN_LIMIT_S = 170.0   # the whole invocation must end well within 180 s
P90_MIN_OPS = 100     # below this a 90th percentile is not reported
COUNT_UNITS = ("count", "bytes")


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def environment():
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    src_lines = 0
    package = os.path.join(SRC, "zplkit")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    thp = "unknown"
    thp_file = "/sys/kernel/mm/transparent_hugepage/enabled"
    if os.path.isfile(thp_file):
        with open(thp_file, encoding="utf-8") as fh:
            thp = fh.read().strip().replace(" ", ",")
    return {"python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "nproc": os.cpu_count(), "blas_threads": 1, "commit": commit,
            "src_lines": src_lines,
            "NUMPY_MADVISE_HUGEPAGE": HUGEPAGE_ADVICE,
            "transparent_hugepage": thp}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    # Whether the kernel honours numpy's huge-page advice depends on host
    # memory fragmentation; it swung the README simulate op between 1.4 and
    # 2.0 s on one seed.  Plain pages make runs comparable.  This is not
    # numpy's default, so environment() reports it with every result.
    env["NUMPY_MADVISE_HUGEPAGE"] = HUGEPAGE_ADVICE
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, workload, seed, work):
        self.workload, self.seed, self.work = workload, seed, work
        self.inputs = os.path.join(work, "inputs")
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = child_env()
        self.n_workers = 0

    def worker(self, setup_op, seconds=0.0, ops=0, trace="", first_op=0):
        """Run one fresh worker process to completion; returns its result."""
        self.n_workers += 1
        tag = f"w{self.n_workers}"
        settings = {"workload": self.workload, "seed": self.seed,
                    "inputs": self.inputs,
                    "scratch": os.path.join(self.work, tag),
                    "out": os.path.join(self.work, tag + ".json"),
                    "setup_op": setup_op, "seconds": seconds, "ops": ops,
                    "first_op": first_op, "trace": trace}
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached before a worker could start")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"),
                 json.dumps(settings)],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("a worker overran the time limit and was killed")
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n"
                             f"{proc.stderr.strip()}")
        with open(settings["out"], encoding="utf-8") as fh:
            result = json.load(fh)
        expected = os.path.join(SRC, "zplkit")
        if os.path.dirname(result["zplkit_file"]) != expected:
            raise BenchError(f"worker imported zplkit from "
                             f"{result['zplkit_file']}, not {expected}")
        return result


def _failures(results):
    return [f for r in results for f in r["failures"]]


def measure(runner, seconds):
    """End-to-end metrics, no instrumentation."""
    n_segments = SEGMENTS[runner.workload]
    pool = list(range(int(workloads.COMPARE_TABLES_PER_SECOND * seconds) + 1))
    workloads.prepare(runner.workload, runner.seed, [SETUP_OP] + pool,
                      runner.inputs)
    results = []
    first_op = 0
    for _ in range(n_segments):
        results.append(runner.worker(SETUP_OP, seconds=seconds / n_segments,
                                     first_op=first_op))
        first_op += len(results[-1]["latencies_s"])

    latencies = [t for r in results for t in r["latencies_s"]]
    if not latencies:
        raise BenchError("no op completed in the timed phase")
    attempted = len(latencies) + len(results)
    failures = _failures(results)
    metrics = {
        "throughput_ops_s": (sum(sum(r["ok"]) for r in results)
                             / sum(latencies), "1/s"),
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        # taken right after the set-up op, so it does not grow with the ops
        # run after it (compare_sweep's quadrature cache would)
        "peak_rss_mb": (statistics.median(r["setup_rss_mb"]
                                          for r in results), "MB"),
    }
    # Not bounded: host speed flips between two states within seconds, and
    # a median of a two-mode sample jumps between the modes from run to run.
    printed = {"latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
               "error_rate": (len(failures) / attempted, "ratio")}
    if len(latencies) >= P90_MIN_OPS:
        printed["latency_p90_ms"] = (
            statistics.quantiles(latencies, n=10)[8] * 1e3, "ms")
    notes = {"timed_ops": len(latencies), "timed_s": sum(latencies),
             "setup_samples_s": [r["setup_s"] for r in results]}
    if runner.workload == "compare_sweep":
        notes["table_pool_used_up"] = len(latencies) == len(pool)
    return metrics, printed, attempted, failures, notes


def trace(runner):
    """Per-layer metrics from two traced passes, checked against each other,
    and the tracing overhead against two untraced passes of the same ops."""
    n_ops = workloads.TRACED_OPS[runner.workload]
    workloads.prepare(runner.workload, runner.seed,
                      [SETUP_OP] + list(range(n_ops)), runner.inputs)
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"trace-{runner.workload}.jsonl")
    # untraced, traced, traced, untraced: a host speed drift that is
    # linear over the run shifts both means alike
    plain = [runner.worker(SETUP_OP, ops=n_ops)]
    passes = [runner.worker(SETUP_OP, ops=n_ops, trace=span_file),
              runner.worker(SETUP_OP, ops=n_ops,
                            trace=os.path.join(runner.work, "spans-b.jsonl"))]
    plain.append(runner.worker(SETUP_OP, ops=n_ops))
    results = passes + plain

    first, second = (p["layers"] for p in passes)
    differ = [name for name, (value, unit) in first.items()
              if unit in COUNT_UNITS and second[name][0] != value]
    if differ:
        raise BenchError("work-count self-check failed: two traced runs of "
                         f"seed {runner.seed} disagree on {', '.join(differ)}")
    warm = [op for p in passes for op in p.get("warm_ops", [])]
    if warm:
        raise BenchError("quadratures per op differ from the distinct "
                         f"(theta_D, T) keys, so some ops hit a warm cache: "
                         f"{', '.join(warm[:5])}")
    metrics = {name: (value if unit in COUNT_UNITS
                      else 0.5 * (value + second[name][0]), unit)
               for name, (value, unit) in first.items()}
    traced_s = statistics.mean(sum(p["latencies_s"]) for p in passes)
    traced_tp = n_ops / traced_s
    plain_tp = n_ops / statistics.mean(sum(p["latencies_s"]) for p in plain)
    metrics["trace.traced_throughput_ops_s"] = (traced_tp, "1/s")
    metrics["trace.untraced_throughput_ops_s"] = (plain_tp, "1/s")
    metrics["trace.overhead_pct"] = ((plain_tp / traced_tp - 1.0) * 100, "%")
    attempted = sum(len(r["latencies_s"]) + 1 for r in results)
    failures = _failures(results)
    printed = {"error_rate": (len(failures) / attempted, "ratio")}
    notes = {"traced_ops": n_ops, "spans": span_file}
    return metrics, printed, attempted, failures, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "zplkit", "cli.py")):
        print(f"error: no zplkit source under {SRC}", file=sys.stderr)
        return 2
    # the "build": byte-compile the sources so no worker pays for it
    if not compileall.compile_dir(os.path.join(SRC, "zplkit"), quiet=1):
        print("error: zplkit sources do not compile", file=sys.stderr)
        return 2

    work = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                                 f"{os.getpid()}")
    os.makedirs(work)
    runner = Runner(args.workload, args.seed, work)
    try:
        if args.trace:
            metrics, printed, attempted, failures, notes = trace(runner)
        else:
            metrics, printed, attempted, failures, notes = measure(
                runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    for key, value in notes.items():
        print(f"note {key} {value}")
    for failure in failures:
        print(f"failed {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, (value, unit) in printed.items():
        print(f"{name} {value:.6g} {unit} (printed only, not in the result)")
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
