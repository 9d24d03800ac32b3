"""The benchmark's tracer contract, checked on every test run.

`perfbench/tracer.py` wraps zplkit functions by module and name and counts
band-integral quadratures per compare op; `perfbench/suite.py check` fails
a traced compare_sweep unless each op runs one quadrature per distinct
theta_D/T.  This runs the unchanged tracer on one op of compare_sweep and
one of series_flow, through `zplkit.cli.main`, in a fresh process.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = r"""
import contextlib, io, json, os, sys
import zplkit.cli
import tracer as tracing
import workloads

tracer = tracing.Tracer()
tracer.install()
inputs = os.path.abspath("inputs")
workloads.prepare("compare_sweep", 1, [0], inputs)
keys = None
for workload in ("compare_sweep", "series_flow"):
    truth = workloads.load_truth(workload, inputs, 0)
    if workload == "compare_sweep":
        keys = workloads.compare_distinct_keys(inputs, 0, truth)
    os.makedirs(workload)
    os.chdir(workload)
    tracer.op = workload
    outputs = []
    for argv in workloads.steps(workload, 1, 0, inputs, truth):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = zplkit.cli.main(argv)
        if code != 0:
            sys.exit(f"{argv[0]} exited {code}")
        outputs.append(out.getvalue())
    tracer.op = None
    workloads.check(workload, ".", 0, outputs, truth)
    os.chdir("..")
quadratures = {}
for name, _, _, _, op, _ in tracer.spans:
    if name == "numerics.adaptive_gauss_kronrod":
        quadratures[op] = quadratures.get(op, 0) + 1
print(json.dumps({"keys": keys, "quadratures": quadratures,
                  "names": sorted({span[0] for span in tracer.spans})}))
"""


def test_tracer_installs_and_sees_one_quadrature_per_key(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")])
    result = subprocess.run([sys.executable, "-c", _SCRIPT], cwd=tmp_path,
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["quadratures"]["compare_sweep"] == report["keys"] > 0
    # the parser is built after the tracer installed its wrappers, so it
    # dispatches to the wrapped commands
    assert {"cli.compare", "cli.series", "cli.synth", "cli.fit"} <= set(
        report["names"])
