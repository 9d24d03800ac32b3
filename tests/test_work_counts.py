"""Work counts of one benchmark op per workload, against committed counts.

Runs the unchanged `perfbench/tracer.py` on op 0 of each workload at
workload seed 1, in a fresh process, through `zplkit.cli.main` (as
`test_trace_contract.py` does), and compares what the op did with
`golden/work_counts.json`: Faddeeva calls and points, least-squares
solves, iterations and residual and Jacobian evaluations, band-integral
quadratures and integrand evaluations, `debye_integral` calls, bytes read
and written, and Monte-Carlo blocks.  The workloads run in one process in
a fixed order, so each count is the same on every run; wall time is not,
and is not recorded.  A change that does more or less work on purpose
records the counts again, with `PYTHONPATH=src python
tests/test_work_counts.py`, and says why; the counts are never recorded
again to make an unintended change pass.
"""

import json
import os
import subprocess
import sys

from test_golden import environment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNTS = os.path.join(ROOT, "tests", "golden", "work_counts.json")

_SCRIPT = r"""
import contextlib, io, json, os, sys
import zplkit.cli, zplkit.simulate
import tracer as tracing
import workloads

tracer = tracing.Tracer()
tracer.install()
blocks = []  # the op of each block; list.append is atomic across threads
block_sums = zplkit.simulate._block_sums


def counted_block_sums(*args, **kwargs):
    blocks.append(tracer.op)  # on a pool thread, within the op
    return block_sums(*args, **kwargs)


zplkit.simulate._block_sums = counted_block_sums
inputs = os.path.abspath("inputs")
written = {}
for workload in workloads.WORKLOADS:
    workloads.prepare(workload, 1, [0], inputs)
    truth = workloads.load_truth(workload, inputs, 0)
    os.makedirs(workload)
    os.chdir(workload)
    tracer.op = workload
    outputs = []
    for argv in workloads.steps(workload, 1, 0, inputs, truth):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = zplkit.cli.main(argv)
        if code != 0:
            sys.exit(f"{workload}: {argv[0]} exited {code}")
        outputs.append(out.getvalue())
    tracer.op = None
    workloads.check(workload, ".", 0, outputs, truth)
    written[workload] = sum(os.path.getsize(os.path.join(folder, name))
                            for folder, _, names in os.walk(".")
                            for name in names)
    os.chdir("..")

# count: (span name, None for the number of spans or the info key summed)
COUNTED = {
    "faddeeva_calls": ("numerics.faddeeva", None),
    "faddeeva_points": ("numerics.faddeeva", "points"),
    "least_squares_solves": ("optimize.least_squares", None),
    "least_squares_iterations": ("optimize.least_squares", "iterations"),
    "residual_evals": ("optimize.residual", None),
    "jacobian_evals": ("optimize.jacobian", None),
    "quadratures": ("numerics.adaptive_gauss_kronrod", None),
    "integrand_evals": ("numerics.adaptive_gauss_kronrod", "integrand_evals"),
    "debye_integral_calls": ("physics.debye_integral", None),
}
report = {}
for workload in workloads.WORKLOADS:
    counts = dict.fromkeys(COUNTED, 0)
    for name, _, _, _, op, info in tracer.spans:
        if op != workload:
            continue
        for count, (span, key) in COUNTED.items():
            if name == span:
                counts[count] += 1 if key is None else info[key]
    counts["bytes_read"] = tracer.bytes_read.get(workload, 0)
    counts["bytes_written"] = written[workload]
    counts["mc_blocks"] = blocks.count(workload)
    report[workload] = counts
print(json.dumps(report))
"""


def measure(tmp_dir):
    """{workload: {count: value}} of op 0 at workload seed 1."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")])
    result = subprocess.run([sys.executable, "-c", _SCRIPT], cwd=tmp_dir,
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_work_counts_match_recorded_counts(tmp_path):
    with open(COUNTS, encoding="utf-8") as fh:
        expected = json.load(fh)
    got, want = measure(tmp_path), expected["workloads"]
    lines = [f"{workload} {count}: {value}, recorded "
             f"{want.get(workload, {}).get(count)}"
             for workload, counts in sorted(got.items())
             for count, value in sorted(counts.items())
             if want.get(workload, {}).get(count) != value]
    assert got == want, "\n".join(
        lines + ["environment at recording: "
                 + json.dumps(expected["environment"], sort_keys=True),
                 "environment now: "
                 + json.dumps(environment(), sort_keys=True)])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {"environment": environment(), "workloads": measure(tmp)}
    with open(COUNTS, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {COUNTS}\n")
