"""Byte identity of the CLI's outputs, against committed digests.

Runs a fixed list of CLI commands in one fresh directory, in order, and
compares the sha256 of every file each run writes, of its stdout and
stderr (the run directory replaced by a placeholder) and its exit code
with `golden/digests.json`.  The digests hold the environment they were
recorded in: `simulate`'s bytes depend on the OpenBLAS kernel and numpy's
SIMD sine.  An intended output change records the digests again, with
`PYTHONPATH=src python tests/test_golden.py`, in the same change as the
README note that versions it; a digest is never refreshed to make an
unintended change pass.

`golden/v1/` holds the two `series` records of these runs as the
version-1 record format wrote them; `compare` must rank each as it ranks
the current record of the same run.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy as np
import pytest

from zplkit.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
DIGESTS = os.path.join(GOLDEN, "digests.json")
PLACEHOLDER = "<run>"

# inputs the runs read besides what earlier runs write
INPUTS = {
    "widths.csv": "# temperature_K,linewidth_meV\n"
                  "10,0.7206\n30,0.7391\n50,0.8534\n70,1.0972\n90,1.4825\n"
                  "110,1.9923\n130,2.6019\n150,3.2841\n",
    "three_fields.csv": "# temperature_K,linewidth_meV\n"
                        "10,0.72\n30,0.74,1.0\n50,0.85\n",
    "not_json.json": '{"emitter_id": "x", "entries": [\n',
}

SIMULATE = ["simulate", "--sigma", "0.46", "--gamma", "5.2",
            "--correlation-rate", "0.005", "--t-max", "3.6", "--dt", "0.002",
            "--n-traj", "10000", "--seed", "3"]

# (name, argv), run in this order in one directory
RUNS = [
    ("synth", ["synth", "--out-dir", "demo", "--seed", "7", "--snr", "30"]),
    ("series_total", ["series", "demo/series.json", "--output", "record.json",
                      "--curves-dir", "curves"]),
    ("series_lorentzian", ["series", "demo/series.json", "--quantity",
                           "lorentzian", "--output", "record_lorentzian.json",
                           "--curves-dir", "curves_lorentzian"]),
    ("fit", ["fit", "demo/spectrum_00_10K.csv", "--output", "fit.json"]),
    ("compare_record", ["compare", "record.json", "--models", "acoustic_debye",
                        "cubic_law", "--output", "compare_record.json"]),
    ("compare_table", ["compare", "widths.csv", "--output",
                       "compare_table.json"]),
    ("series_fix_fg", ["series", "demo/series.json", "--fix-fg", "0.5",
                       "--output", "record_fix_fg.json"]),
    ("simulate", SIMULATE),
    ("fit_simulated", ["fit", "simulated_spectrum.csv", "--unweighted",
                       "--output", "fit_simulated.json"]),
    ("table_three_fields", ["compare", "three_fields.csv"]),
    ("manifest_not_json", ["series", "not_json.json"]),
    ("compare_shape", ["compare", "widths.csv", "--theta-d", "437.5",
                       "--phonon-energy", "23.1", "--fix-fg", "0.72",
                       "--output", "compare_shape.json"]),
    ("series_shape_record", ["series", "demo/series.json", "--theta-d", "350",
                             "--phonon-energy", "25", "--quantity",
                             "lorentzian", "--output", "record_shape.json"]),
    ("compare_shape_record", ["compare", "record_shape.json", "--output",
                              "compare_shape_record.json"]),
]


def environment():
    config = np.show_config(mode="dicts")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": config["Build Dependencies"]["blas"].get(
            "openblas configuration"),
        "simd": config["SIMD Extensions"],
    }


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _file_digests(root):
    out = {}
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root).replace(os.sep, "/")] = \
                    _sha256(fh.read())
    return out


def run_all(root):
    """{run name: {"exit_code", "stdout", "stderr", "files"}} for RUNS,
    executed in the directory `root`."""
    for name, text in INPUTS.items():
        with open(os.path.join(root, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    results = {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for name, argv in RUNS:
            before = _file_digests(root)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = main(list(argv))
            after = _file_digests(root)
            results[name] = {
                "exit_code": code,
                "stdout": _sha256(stdout.getvalue().replace(
                    root, PLACEHOLDER).encode()),
                "stderr": _sha256(stderr.getvalue().replace(
                    root, PLACEHOLDER).encode()),
                "files": {path: digest for path, digest in sorted(after.items())
                          if before.get(path) != digest},
            }
    finally:
        os.chdir(cwd)
    return results


def _run(argv):
    """main(argv)'s exit code and stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(list(argv))
    return code, stdout.getvalue()


def _mismatches(expected, got):
    lines = [f"run {name}: recorded digests, but no such run"
             for name in sorted(set(expected["runs"]) - set(got))]
    for name, _ in RUNS:
        want, have = expected["runs"].get(name), got[name]
        if want is None:
            lines.append(f"run {name}: no recorded digests")
            continue
        for key in ("exit_code", "stdout", "stderr"):
            if want[key] != have[key]:
                lines.append(f"run {name}: {key} {have[key]!r}, "
                             f"recorded {want[key]!r}")
        for path in sorted(set(want["files"]) | set(have["files"])):
            if want["files"].get(path) != have["files"].get(path):
                lines.append(f"run {name}: file {path} "
                             f"{have['files'].get(path)}, recorded "
                             f"{want['files'].get(path)}")
    return lines


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    """The run directory and the result of `run_all` in it."""
    root = str(tmp_path_factory.mktemp("golden"))
    return root, run_all(root)


def test_cli_outputs_match_recorded_digests(golden_runs):
    with open(DIGESTS, encoding="utf-8") as fh:
        expected = json.load(fh)
    lines = _mismatches(expected, golden_runs[1])
    assert not lines, "\n".join(
        lines + ["environment at recording: "
                 + json.dumps(expected["environment"], sort_keys=True),
                 "environment now: "
                 + json.dumps(environment(), sort_keys=True)])


@pytest.mark.parametrize("record", ["record.json", "record_shape.json"])
def test_compare_ranks_a_version_1_record_as_its_current_record(
        golden_runs, record):
    # the version-1 record holds its shape values in each model's params;
    # the current record holds them once, under `shape`
    root, _ = golden_runs
    with open(os.path.join(GOLDEN, "v1", record), encoding="utf-8") as fh:
        assert json.load(fh)["schema_version"] == 1
    with open(os.path.join(root, record), encoding="utf-8") as fh:
        assert json.load(fh)["schema_version"] == 2
    for flags in ([], ["--quantity", "total"], ["--theta-d", "500"]):
        ranked = []
        for path in (os.path.join(GOLDEN, "v1", record),
                     os.path.join(root, record)):
            out = os.path.join(root, "v1_check.json")
            code, stdout = _run(["compare", path, *flags, "--output", out])
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
            del doc["provenance"]  # the digest of a different input file
            ranked.append((code, stdout, doc))
        assert ranked[0] == ranked[1] and ranked[0][0] == 0, flags


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        runs = run_all(os.path.realpath(tmp))
    doc = {"environment": environment(), "runs": runs}
    os.makedirs(os.path.dirname(DIGESTS), exist_ok=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {DIGESTS}\n")
