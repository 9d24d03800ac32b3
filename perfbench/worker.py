"""One benchmark process: import zplkit, run one untimed set-up op, then the
measured ops, all in-process through zplkit.cli.main.

Started by run.py with PYTHONPATH pointing at the checkout's src/, and one
JSON argument holding its settings.  Writes its result as JSON to the
settings' "out" path.  Nothing beyond the interpreter's start-up modules is
imported before zplkit, so set-up time is what a fresh CLI invocation pays.
"""

import os
import sys
import time


def _dir_bytes(path):
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def main():
    t_import = time.perf_counter()
    import zplkit.cli
    import_s = time.perf_counter() - t_import

    import contextlib
    import io
    import json
    import resource
    import shutil

    settings = json.loads(sys.argv[1])
    workload, seed = settings["workload"], settings["seed"]
    inputs, scratch = settings["inputs"], settings["scratch"]
    import workloads  # found beside this script
    tracer = None
    if settings.get("trace"):
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    cli_main = zplkit.cli.main
    failures = []
    bytes_written = {}
    distinct_keys = {}

    def run_op(op):
        """Run one op in a fresh directory; returns (seconds, error)."""
        op_dir = os.path.join(scratch, workloads.op_name(op))
        os.makedirs(op_dir)
        truth = workloads.load_truth(workload, inputs, op)
        argvs = workloads.steps(workload, seed, op, inputs, truth)
        outputs = []
        error = None
        here = os.getcwd()
        os.chdir(op_dir)
        if tracer is not None:
            tracer.op = op
        t0 = time.perf_counter()
        try:
            for argv in argvs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli_main(argv)
                outputs.append(out.getvalue())
                if code != 0:
                    error = f"{argv[0]} exited {code}: {err.getvalue().strip()}"
                    break
        except (Exception, SystemExit) as exc:  # escaping main fails the op
            error = f"{argv[0]} raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        os.chdir(here)
        if tracer is not None:
            tracer.op = None
        if error is None:
            try:
                workloads.check(workload, op_dir, op, outputs, truth)
            except (workloads.CheckFailed, OSError, KeyError, ValueError) as exc:
                error = f"check: {exc}"
        if tracer is not None:
            bytes_written[op] = _dir_bytes(op_dir)
            if workload == "compare_sweep":
                distinct_keys[op] = workloads.compare_distinct_keys(
                    inputs, op, truth)
        shutil.rmtree(op_dir)
        if error is not None:
            failures.append(f"{workloads.op_name(op)}: {error}")
        return elapsed, error

    setup_op = settings["setup_op"]
    setup_op_s, _ = run_op(setup_op)  # a failure is in `failures`
    # import plus one op: what a single CLI invocation holds at its peak
    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    latencies, ok = [], []
    n_ops = settings.get("ops", 0)
    deadline = time.perf_counter() + settings.get("seconds", 0.0)
    first_op = op = settings.get("first_op", 0)
    while op < n_ops if n_ops else time.perf_counter() < deadline:
        if not workloads.has_input(workload, inputs, op):
            break  # compare_sweep's table pool is used up
        elapsed, error = run_op(op)
        latencies.append(elapsed)
        ok.append(error is None)
        op += 1

    result = {
        "setup_s": import_s + setup_op_s,
        "latencies_s": latencies,
        "ok": ok,
        "failures": failures,
        "setup_rss_mb": setup_rss_mb,
        "zplkit_file": os.path.abspath(zplkit.cli.__file__),
    }
    if tracer is not None:
        ops = list(range(first_op, op))
        result["layers"] = tracing.layer_metrics(tracer, ops, bytes_written,
                                                 setup_op)
        if workload == "compare_sweep":
            quadratures = {}
            for span in tracer.spans:
                if span[0] == "numerics.adaptive_gauss_kronrod":
                    quadratures[span[4]] = quadratures.get(span[4], 0) + 1
            result["warm_ops"] = [
                workloads.op_name(o) for o in ops
                if quadratures.get(o, 0) != distinct_keys[o]]
        tracer.write(settings["trace"])
    with open(settings["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
