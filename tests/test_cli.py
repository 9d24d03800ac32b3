import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import zplkit
from oracles import synthetic_voigt_spectrum
from zplkit import cli, fitting, io_formats, simulate
from zplkit.cli import main
from zplkit.errors import FitError, InsufficientDecayError, ZplkitError
from zplkit.io_formats import (generate_synthetic_series, load_manifest,
                               save_spectrum)
from zplkit.fitting import Spectrum
from zplkit.physics import MODEL_KINDS, make_model

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "zplkit", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    result = run_cli("synth", "--out-dir", str(root / "series"),
                     "--seed", "7", "--snr", "30")
    assert result.returncode == 0, result.stderr
    return root


def test_synth_writes_grid_and_manifest(synth_dir):
    files = sorted(os.listdir(synth_dir / "series"))
    assert "series.json" in files
    assert sum(f.endswith(".csv") for f in files) == 14


def test_fit_command_classifies_cold_spectrum(synth_dir):
    path = synth_dir / "series" / "spectrum_00_10K.csv"
    out = synth_dir / "fit10.json"
    result = run_cli("fit", str(path), "--output", str(out))
    assert result.returncode == 0, result.stderr
    assert "gaussian" in result.stdout
    record = json.loads(out.read_text())
    assert record["classification"]["label"] == "gaussian"
    assert abs(record["fit"]["total_fwhm_meV"] - 0.72) < 0.1


def test_fit_command_classifies_hot_spectrum(synth_dir):
    path = synth_dir / "series" / "spectrum_13_270K.csv"
    result = run_cli("fit", str(path))
    assert result.returncode == 0
    assert "lorentzian" in result.stdout


@pytest.fixture(scope="module")
def series_record(synth_dir):
    """The record and curves `series` writes for the synthetic series."""
    result = run_cli("series", str(synth_dir / "series" / "series.json"),
                     "--output", str(synth_dir / "record.json"),
                     "--curves-dir", str(synth_dir / "curves"))
    assert result.returncode == 0, result.stderr
    return synth_dir / "record.json"


def test_series_command_full_pipeline(synth_dir, series_record):
    manifest = synth_dir / "series" / "series.json"
    out = series_record
    curves = synth_dir / "curves"
    record = json.loads(out.read_text())
    assert record["best_model"] == "acoustic_debye"
    assert abs(record["gaussian_floor_meV"] - 0.72) / 0.72 < 0.05
    assert len(record["per_temperature"]) == 14
    assert {m["kind"] for m in record["models"]} == {
        "acoustic_debye", "cubic_law", "optical_mode"}
    for kind in ("acoustic_debye", "cubic_law", "optical_mode"):
        curve = curves / f"curve_{kind}.csv"
        lines = curve.read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 1 + 261  # 1 K steps across the 10-270 K data

    # records and artifacts are reproducible byte-for-byte
    out2 = synth_dir / "record2.json"
    result = run_cli("series", str(manifest), "--output", str(out2))
    assert result.returncode == 0
    assert out.read_bytes() == out2.read_bytes()


def test_series_bare_component_quantity_and_fixed_floor(synth_dir):
    manifest = synth_dir / "series" / "series.json"
    result = run_cli("series", str(manifest), "--quantity", "lorentzian",
                     "--fix-fg", "0.72")
    assert result.returncode == 0, result.stderr
    assert "gaussian_floor  0.720000" in result.stdout
    assert "best_model      acoustic_debye" in result.stdout


def test_series_low_range_models_indistinguishable(tmp_path):
    # fits over the low-temperature range cannot separate the finite-band
    # model from the cubic law (pinned protocol: <= 90 K, peak SNR 20)
    result = run_cli("synth", "--out-dir", str(tmp_path / "low"),
                     "--seed", "1", "--snr", "20", "--t-stop", "90")
    assert result.returncode == 0, result.stderr
    out = tmp_path / "low.json"
    result = run_cli("series", str(tmp_path / "low" / "series.json"),
                     "--output", str(out), "--quiet")
    assert result.returncode == 0, result.stderr
    record = json.loads(out.read_text())
    models = {m["kind"]: m for m in record["models"]}
    assert models["cubic_law"]["delta_aic"] < 2.0
    assert models["acoustic_debye"]["delta_aic"] < 2.0


def test_compare_command_on_record_and_table(series_record, tmp_path):
    record_path = series_record
    result = run_cli("compare", str(record_path))
    assert result.returncode == 0
    assert result.stdout.splitlines()[1].startswith("acoustic_debye")

    table = tmp_path / "points.csv"
    record = json.loads(record_path.read_text())
    lines = ["# temperature_K,linewidth_meV"]
    lines += [f"{b['temperature_K']},{b['total_fwhm_meV']}"
              for b in record["per_temperature"]]
    table.write_text("\n".join(lines) + "\n")
    result = run_cli("compare", str(table), "--fix-fg", "0.72",
                     "--models", "acoustic_debye", "cubic_law")
    assert result.returncode == 0
    assert result.stdout.splitlines()[1].startswith("acoustic_debye")

    result = run_cli("compare", str(table), "--fix-fg", "0.72",
                     "--models", "cubic_law")
    assert result.returncode == 0
    assert len(result.stdout.splitlines()) == 2  # header + one row

    # the 10 K fit ends on the f_L >= 0 bound: a zero Lorentzian component
    # is a valid point for the bare-component comparison
    assert record["per_temperature"][0]["lorentzian_fwhm_meV"] == 0.0
    result = run_cli("compare", str(record_path), "--quantity", "lorentzian")
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("fix_fg", [[], ["--fix-fg", "0.5"]])
def test_compare_on_a_record_ranks_what_series_ranked(synth_dir, tmp_path,
                                                      fix_fg):
    # compare splits the record's totals under the floor series split them
    # under, so it ranks the same Lorentzian parts, to the record's digits
    ranked, reranked = tmp_path / "series.json", tmp_path / "compare.json"
    for argv in (["series", str(synth_dir / "series" / "series.json")],
                 ["compare", str(ranked)]):
        code, _, err = _run_in_process(argv + [
            "--quantity", "lorentzian", "--quiet", *fix_fg,
            "--output", str(reranked if argv[0] == "compare" else ranked)])
        assert code == 0, err
    expected = json.loads(ranked.read_text())["models"]
    models = json.loads(reranked.read_text())["models"]
    assert [m["kind"] for m in models] == [m["kind"] for m in expected]
    for model, want in zip(models, expected):
        params, want_params = model["params"], want["params"]
        assert params["gaussian_floor_meV"] == want_params["gaussian_floor_meV"]
        assert params["amplitude"] == pytest.approx(want_params["amplitude"],
                                                    rel=1e-9)
        assert model["rss"] == pytest.approx(want["rss"], rel=1e-9)


def test_readme_names_resolve_on_the_package():
    # every `z.<name>` and `zplkit.<name>` the README shows exists
    with open(os.path.join(os.path.dirname(SRC), "README.md"),
              encoding="utf-8") as fh:
        names = set(re.findall(r"\b(?:z|zplkit)((?:\.[A-Za-z_]\w*)+)",
                               fh.read()))
    assert names
    for dotted in sorted(names):
        obj = zplkit
        for name in dotted[1:].split("."):
            assert hasattr(obj, name), f"README names zplkit{dotted}"
            obj = getattr(obj, name)


def test_cli_import_does_not_load_the_thread_pool():
    # mc_coherence imports concurrent.futures itself: at module level the
    # import would add several ms to every command's start-up
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, zplkit.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_simulate_command_deterministic(tmp_path):
    args = ("simulate", "--sigma", "0", "--gamma", "1.0", "--t-max", "20",
            "--dt", "0.1", "--n-traj", "50", "--seed", "11",
            "--center", "1810")
    r1 = run_cli(*args, cwd=tmp_path)
    assert r1.returncode == 0, r1.stderr
    assert "seed            11" in r1.stdout
    spec1 = (tmp_path / "simulated_spectrum.csv").read_bytes()
    coh1 = (tmp_path / "simulated_coherence.csv").read_bytes()
    r2 = run_cli(*args, cwd=tmp_path)
    assert r2.returncode == 0
    assert (tmp_path / "simulated_spectrum.csv").read_bytes() == spec1
    assert (tmp_path / "simulated_coherence.csv").read_bytes() == coh1


def test_simulate_output_feeds_fit(tmp_path):
    result = run_cli("simulate", "--sigma", "0", "--gamma", "2.0",
                     "--t-max", "15", "--dt", "0.05", "--n-traj", "20",
                     "--seed", "4", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    fit = run_cli("fit", str(tmp_path / "simulated_spectrum.csv"),
                  "--unweighted")
    assert fit.returncode == 0, fit.stderr
    assert "lorentzian" in fit.stdout


def test_simulate_single_trajectory(tmp_path):
    # one trajectory has no spread: its stderr column is 0, with no 0/0
    # under the CLI's floating-point error boundary
    result = run_cli("simulate", "--sigma", "0.5", "--gamma", "1.0",
                     "--correlation-rate", "1.0", "--t-max", "20",
                     "--dt", "0.1", "--n-traj", "1", "--seed", "2",
                     cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    table = np.loadtxt(tmp_path / "simulated_coherence.csv", delimiter=",")
    assert table.shape == (201, 4)
    assert np.all(table[:, 3] == 0.0)
    assert np.all(table[:, 2] == 0.0)
    assert np.any(table[:, 1] < np.exp(-table[:, 0]))  # the phase moved


def test_simulate_worker_overflow_is_one_parse_line(tmp_path, monkeypatch):
    # a worker thread keeps main's floating-point error state: its overflow
    # is the one parse line, and nothing is written
    def block_sums(config, block, stop):
        assert threading.current_thread() is not threading.main_thread()
        return np.float64(1e300) * np.float64(1e300)

    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(simulate, "_block_sums", block_sums)
    monkeypatch.chdir(tmp_path)
    code, _, err = _run_in_process([
        "simulate", "--sigma", "0.46", "--gamma", "5.2", "--t-max", "4.0",
        "--dt", "0.01", "--n-traj", "1100", "--quiet"])
    assert code == 1
    assert err.startswith("error: parse: value too large for float "
                          "arithmetic (overflow")
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_exit_codes(tmp_path, monkeypatch):
    # io error: missing file
    result = run_cli("fit", str(tmp_path / "missing.csv"))
    assert result.returncode == 3
    assert result.stderr.startswith("error: io:")
    # parse error: malformed content
    bad = tmp_path / "bad.csv"
    bad.write_text("# energy_meV,intensity\n1.0,a\n")
    result = run_cli("fit", str(bad))
    assert result.returncode == 1
    assert result.stderr.startswith("error: parse:")
    # fit error: flat spectrum
    flat = tmp_path / "flat.csv"
    save_spectrum(Spectrum(np.linspace(0, 10, 64), np.full(64, 5.0)), flat)
    result = run_cli("fit", str(flat))
    assert result.returncode == 2
    assert result.stderr.startswith("error: fit:")
    # config error
    result = run_cli("simulate", "--sigma", "0", "--gamma", "0",
                     "--t-max", "1", "--dt", "0.01", cwd=tmp_path)
    assert result.returncode == 1
    # parse errors in compare input: a record block without the linewidth,
    # a table with a non-finite linewidth, and tables with negative or
    # zero linewidths
    record = tmp_path / "record.json"
    record.write_text(json.dumps({"per_temperature": [
        {"temperature_K": 10.0, "total_fwhm_meV": 0.8},
        {"temperature_K": 30.0}]}))
    table = tmp_path / "table.csv"
    table.write_text("10,0.8\n30,nan\n50,1.2\n70,1.9\n")
    negative = tmp_path / "negative.csv"
    negative.write_text("10,-0.8\n30,-1\n50,-2\n70,-3\n")
    zero = tmp_path / "zero.csv"
    zero.write_text("10,0\n30,0\n50,0\n70,0\n")
    for path in (record, table, negative, zero):
        result = run_cli("compare", str(path))
        assert result.returncode == 1
        assert result.stderr.startswith("error: parse:")
        assert len(result.stderr.splitlines()) == 1
    # usage error
    result = run_cli("frobnicate")
    assert result.returncode == 1
    # numeric flags must be finite, the synth temperature step positive,
    # and a finite value too large for float arithmetic is a parse error
    four = tmp_path / "four.csv"
    four.write_text("10,0.8\n30,1.0\n50,1.4\n70,2.0\n")
    out = str(tmp_path / "synth")
    for args in (("synth", "--out-dir", out, "--t-step", "0"),
                 ("synth", "--out-dir", out, "--t-stop", "inf"),
                 ("synth", "--out-dir", out, "--snr", "nan"),
                 ("synth", "--out-dir", out, "--amplitude", "nan"),
                 ("synth", "--out-dir", out, "--fg", "nan"),
                 ("compare", str(four), "--fix-fg", "nan"),
                 ("compare", str(four), "--fix-fg", "1e300")):
        result = run_cli(*args)
        assert result.returncode == 1, args
        assert "Traceback" not in result.stderr
        assert sum(line.startswith("error:")
                   for line in result.stderr.splitlines()) == 1
    assert not os.path.exists(out)
    # synth writes no spectrum when it cannot finish: a zero temperature,
    # steps that ask for more temperatures than one run may write (0.26
    # gives 1,001 from 10 K to 270 K), an amplitude whose widths overflow,
    # a peak count beyond numpy's Poisson limit and a negative seed; and
    # simulate writes nothing for a time grid beyond its 10^6-step bound
    # (2e10 steps here, ~300 GB of coherence buffers)
    synth = ("synth", "--out-dir", out)
    for args in (synth + ("--t-start", "0"), synth + ("--t-step", "1e-300"),
                 synth + ("--t-step", "0.26"),
                 synth + ("--amplitude", "1e300"), synth + ("--snr", "1e10"),
                 synth + ("--seed", "-1"),
                 ("simulate", "--sigma", "0", "--gamma", "1e-6",
                  "--t-max", "2e7", "--dt", "0.001")):
        result = run_cli(*args, cwd=tmp_path)
        assert result.returncode == 1, args
        assert result.stderr.startswith("error: parse:")
        assert len(result.stderr.splitlines()) == 1
        assert not os.path.exists(out)
        assert not list(tmp_path.glob("simulated_*"))
    # a manifest whose metadata is not an object, and files that are not
    # UTF-8 text, are parse errors
    spectrum = tmp_path / "s.csv"
    save_spectrum(synthetic_voigt_spectrum(1820.0, 0.7, 0.1)[0], spectrum)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"entries": [
        {"temperature_K": 10.0, "path": "s.csv"}], "metadata": []}))
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00")
    for args in (("series", str(manifest)), ("series", str(binary)),
                 ("fit", str(binary)), ("compare", str(binary))):
        result = run_cli(*args)
        assert result.returncode == 1, args
        assert result.stderr.startswith("error: parse:")
        assert len(result.stderr.splitlines()) == 1
    # a manifest shape parameter beyond float range: json writes inf as
    # Infinity, and reads 1e400 as inf
    generate_synthetic_series(tmp_path / "wide",
                              make_model("acoustic_debye", 6.82),
                              temperatures=(10.0, 90.0, 170.0), n_points=201)
    series = tmp_path / "wide" / "series.json"
    doc = json.loads(series.read_text())
    for theta in (float("inf"), "1e400"):
        doc["metadata"]["theta_D_K"] = theta
        series.write_text(json.dumps(doc).replace('"1e400"', "1e400"))
        result = run_cli("series", str(series), "--output",
                         str(tmp_path / "rec.json"), "--curves-dir",
                         str(tmp_path / "curves"))
        assert result.returncode == 1, theta
        assert result.stderr.startswith("error: parse:")
        assert len(result.stderr.splitlines()) == 1
        assert not os.path.exists(tmp_path / "rec.json")
        assert not os.path.exists(tmp_path / "curves")
    # nor does it run one Voigt fit before rejecting that manifest
    calls = []
    monkeypatch.setattr(fitting, "fit_voigt",
                        lambda *a, **k: calls.append(a))
    code, _, err = _run_in_process(["series", str(series)])
    assert (code, calls) == (1, [])
    assert err.startswith(f"error: parse: manifest {series}: "
                          "metadata.theta_D_K must be a finite number")
    # every shape flag is checked, also where the model does not take it
    doc["metadata"]["theta_D_K"] = 600.0
    series.write_text(json.dumps(doc))
    for args in (("synth", "--out-dir", out, "--model", "optical_mode",
                  "--theta-d", "-5"),
                 ("synth", "--out-dir", out, "--model", "acoustic_debye",
                  "--phonon-energy", "0"),
                 ("compare", str(four), "--models", "cubic_law",
                  "--theta-d", "-5"),
                 ("series", str(series), "--phonon-energy", "-1")):
        result = run_cli(*args)
        assert result.returncode == 1, args
        assert result.stderr.startswith("error: parse:"), args
        assert len(result.stderr.splitlines()) == 1
        assert not os.path.exists(out)
    # a successful run prints nothing on stderr, not even a numpy warning
    # (a subnormal temperature overflows E/kT and theta_D/T)
    subnormal = tmp_path / "subnormal.csv"
    subnormal.write_text("1e-310,1\n20,2\n40,3\n60,4\n")
    result = run_cli("compare", str(subnormal))
    assert result.returncode == 0
    assert result.stderr == ""


_NUMBER_TEXT = st.one_of(st.floats(min_value=0.0, max_value=600.0),
                         st.floats()).map(repr)
_JSON_VALUE = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                        st.integers(-1000, 1000), st.floats())
_BLOCK = st.one_of(
    _JSON_VALUE,
    st.dictionaries(st.sampled_from(["temperature_K", "total_fwhm_meV",
                                     "lorentzian_fwhm_meV", "other"]),
                    st.one_of(st.floats(min_value=0.0, max_value=600.0),
                              _JSON_VALUE)))
_RECORD = st.fixed_dictionaries(
    {"per_temperature": st.one_of(_JSON_VALUE, st.lists(_BLOCK, max_size=8))},
    optional={"gaussian_floor_meV": _JSON_VALUE})
_TABLE = st.lists(st.one_of(st.tuples(_NUMBER_TEXT, _NUMBER_TEXT).map(",".join),
                            st.text(max_size=8)),
                  max_size=8).map("\n".join)
# well-formed points, so that fits run and some comparisons succeed
_POINTS = st.lists(st.tuples(st.floats(min_value=0.0, max_value=600.0),
                             st.floats(min_value=0.0, max_value=50.0)),
                   min_size=3, max_size=8)
_CONTENT = st.one_of(
    _RECORD.map(json.dumps), _TABLE,
    _POINTS.map(lambda pts: "\n".join(f"{t!r},{y!r}" for t, y in pts)),
    _POINTS.map(lambda pts: json.dumps({"per_temperature": [
        {"temperature_K": t, "total_fwhm_meV": y, "lorentzian_fwhm_meV": y}
        for t, y in pts]})))


def _exit_code(argv):
    """main(argv)'s exit code, after checking that a failure printed
    exactly one error line and a success nothing at all on stderr."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # how argparse ends on a usage error
            code = exc.code
    errors = [line for line in stderr.getvalue().splitlines()
              if line.startswith("error:")]
    assert len(errors) == (0 if code == 0 else 1)
    if code == 0:
        assert stderr.getvalue() == ""
    return code


@settings(max_examples=100, deadline=None)
@given(content=_CONTENT,
       quantity=st.sampled_from(["total", "lorentzian"]),
       fix_fg=st.one_of(st.none(), _NUMBER_TEXT))
# temperatures that overflow the fit's float arithmetic
@example(content="0,0\n0,0\n2.4e51,0", quantity="lorentzian", fix_fg=None)
@example(content="0,0\n0,0\n4.3e103,0", quantity="lorentzian", fix_fg=None)
def test_compare_any_input_exits_cleanly(content, quantity, fix_fg):
    # whatever the input, compare exits 0, 1 or 2 without a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        argv = ["compare", path, "--quiet", "--quantity", quantity]
        if fix_fg is not None:
            argv += ["--fix-fg", fix_fg]
        assert _exit_code(argv) in (0, 1, 2)


def test_json_integer_too_long_is_one_parse_line(tmp_path):
    # json.loads refuses integers past int()'s digit limit with a plain
    # ValueError: compare reads such a file as a table, series as a
    # malformed manifest
    digits = "1" * 5000
    table = tmp_path / "widths.txt"
    table.write_text(digits)
    manifest = tmp_path / "series.json"
    manifest.write_text('{"entries": [], "metadata": {"theta_D_K": '
                        + digits + '}}')
    code, _, err = _run_in_process(["compare", str(table), "--quiet"])
    assert (code, err) == (1, "error: parse: line 1: expected 2 "
                              "comma-separated fields, got 1\n")
    code, _, err = _run_in_process(["series", str(manifest), "--quiet"])
    assert code == 1
    assert err.startswith(f"error: parse: invalid JSON in {manifest}: ")
    assert len(err.splitlines()) == 1


# the wrong JSON types for a number and for a string; a numeric string is
# a valid string
_WRONG_TYPE = {
    float: st.one_of(st.booleans(), st.floats(0.0, 1e3).map(repr), st.none(),
                     st.lists(st.floats(0.0, 1e3), max_size=2)),
    str: st.one_of(st.booleans(), st.floats(0.0, 1e3), st.none(),
                   st.lists(st.text(max_size=3), max_size=2)),
}
# (file, container, key, type) of every JSON value series and compare read
_JSON_VALUES = [
    ("manifest", None, "emitter_id", str),
    ("manifest", "metadata", "theta_D_K", float),
    ("manifest", "metadata", "phonon_energy_meV", float),
    ("manifest", "entries", "temperature_K", float),
    ("manifest", "entries", "path", str),
    ("record", None, "gaussian_floor_meV", float),
    ("record", "per_temperature", "temperature_K", float),
    ("record", "per_temperature", "total_fwhm_meV", float),
]


@pytest.fixture(scope="module")
def json_inputs(tmp_path_factory):
    """A directory with a valid 4-temperature manifest and a valid record,
    and their documents; series and compare read both without error."""
    root = tmp_path_factory.mktemp("json")
    manifest, _ = generate_synthetic_series(
        root, make_model("acoustic_debye", 6.82),
        temperatures=(10.0, 90.0, 170.0, 250.0), n_points=101, seed=5)
    record = {"gaussian_floor_meV": 0.72, "per_temperature": [
        {"temperature_K": t, "total_fwhm_meV": w}
        for t, w in ((10.0, 0.72), (90.0, 1.1), (170.0, 2.6), (250.0, 5.3))]}
    (root / "record.json").write_text(json.dumps(record))
    for command, name in (("series", "series.json"), ("compare", "record.json")):
        assert _run_in_process([command, str(root / name), "--quiet"]) \
            == (0, "", "")
    with open(manifest, encoding="utf-8") as fh:
        return root, {"manifest": json.load(fh), "record": record}


def _run_with(root, file, doc):
    path = root / f"edited_{file}.json"
    path.write_text(json.dumps(doc))
    command = "series" if file == "manifest" else "compare"
    return _run_in_process([command, str(path), "--quiet"])


@pytest.mark.parametrize("file,container,key,kind", _JSON_VALUES)
@settings(max_examples=12, deadline=None)
@given(index=st.integers(0, 3), data=st.data())
def test_json_value_of_the_wrong_type_is_one_parse_line(
        json_inputs, file, container, key, kind, index, data):
    # a bool is an int in Python and "30" converts with float(): neither
    # may stand in for a number, nor a number for a string
    root, docs = json_inputs
    doc = json.loads(json.dumps(docs[file]))
    target, where = doc, key
    if container is not None:
        target, where = doc[container], f"{container}.{key}"
        if isinstance(target, list):
            target, where = target[index], f"{container}[{index}].{key}"
    target[key] = data.draw(_WRONG_TYPE[kind])
    code, out, err = _run_with(root, file, doc)
    assert (code, out) == (1, "")
    assert err.startswith("error: parse: ") and err.count("\n") == 1
    assert where in err


def test_manifest_and_record_shapes_are_parse_errors(json_inputs):
    root, docs = json_inputs
    manifest = docs["manifest"]
    for entries, message in (({}, "entries must be a list of objects"),
                             (None, "entries must be a list of objects"),
                             ([1], "entries[0] must be an object")):
        code, _, err = _run_with(root, "manifest",
                                 {**manifest, "entries": entries})
        assert (code, err.count("\n")) == (1, 1)
        assert message in err
    code, _, err = _run_with(root, "record", {"per_temperature": [1, 2, 3]})
    assert code == 1 and "per_temperature[0] must be an object" in err
    # a number written as a JSON integer is still a number, and a shape key
    # left out still takes its default
    ints = {"emitter_id": "x", "metadata": {"theta_D_K": 600},
            "entries": [{**e, "temperature_K": int(e["temperature_K"])}
                        for e in manifest["entries"]]}
    (root / "ints.json").write_text(json.dumps(ints))
    loaded = load_manifest(root / "ints.json")
    assert [e.temperature for e in loaded.entries] == [
        e["temperature_K"] for e in manifest["entries"]]
    assert loaded.shape == {"debye_temperature": 600.0, "phonon_energy": 18.0}


# any finite flag value, huge ones included, and often a plausible one;
# "--flag=value" keeps a negative value from reading as an option
_FLAG = st.one_of(st.floats(min_value=0.0, max_value=1e3),
                  st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=40, deadline=None)
@given(model=st.sampled_from(list(MODEL_KINDS)), amplitude=_FLAG, fg=_FLAG,
       snr=_FLAG, theta_d=st.none() | _FLAG, phonon_energy=st.none() | _FLAG,
       t_start=_FLAG, t_step=_FLAG, n_steps=st.integers(-1, 19),
       n_points=st.integers(15, 64), seed=st.integers(-2, 2 ** 70))
# a nearly Gaussian line, whose far tails the Faddeeva series puts below 0
@example(model="acoustic_debye", amplitude=1e-9, fg=0.72, snr=30.0,
         theta_d=None, phonon_energy=None, t_start=1.0, t_step=1.0,
         n_steps=0, n_points=21, seed=0)
def test_synth_any_flags_exit_cleanly(model, amplitude, fg, snr, theta_d,
                                      phonon_energy, t_start, t_step, n_steps,
                                      n_points, seed):
    # at most 20 temperatures (plus the 1e-9 K the stop gains), or a range
    # that synth rejects before it computes a spectrum
    t_stop = t_start + n_steps * t_step
    count = (t_stop + 1e-9 - t_start) / t_step if t_step > 0 else 0.0
    assume(not 21 < count <= 1000)
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["synth", "--quiet", "--out-dir", os.path.join(tmp, "out"),
                f"--model={model}", f"--amplitude={amplitude!r}",
                f"--fg={fg!r}", f"--snr={snr!r}", f"--t-start={t_start!r}",
                f"--t-stop={t_stop!r}", f"--t-step={t_step!r}",
                f"--n-points={n_points}", f"--seed={seed}"]
        if theta_d is not None:
            argv.append(f"--theta-d={theta_d!r}")
        if phonon_energy is not None:
            argv.append(f"--phonon-energy={phonon_energy!r}")
        code = _exit_code(argv)
        assert code in (0, 1, 2, 3)
        assert code == 0 or not os.path.exists(os.path.join(tmp, "out"))


@settings(max_examples=40, deadline=None)
@given(center=_FLAG, step=_FLAG, peak=_FLAG, floor=_FLAG,
       temperature=st.none() | _FLAG, unweighted=st.booleans())
def test_fit_any_flags_exit_cleanly(center, step, peak, floor, temperature,
                                    unweighted):
    # a 41-point Lorentzian line of half width 4 steps, scaled by the drawn
    # values (a sum that overflows writes `inf`, which fails to parse)
    rows = [f"{center + step * (i - 20)!r},"
            f"{floor + peak / (1.0 + ((i - 20) / 4.0) ** 2)!r}"
            for i in range(41)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spectrum.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        argv = ["fit", path, "--quiet", "--output",
                os.path.join(tmp, "fit.json")]
        if temperature is not None:
            argv.append(f"--temperature={temperature!r}")
        if unweighted:
            argv.append("--unweighted")
        assert _exit_code(argv) in (0, 1, 2, 3)


def test_series_single_temperature_manifest_fails_cleanly(tmp_path):
    spec, _ = synthetic_voigt_spectrum(1820.0, 0.7, 0.1, temperature=10.0,
                                       n_points=64)
    save_spectrum(spec, tmp_path / "one.csv")
    manifest = {"emitter_id": "x", "entries": [
        {"temperature_K": 10.0, "path": "one.csv"}]}
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    result = run_cli("series", str(tmp_path / "m.json"))
    assert result.returncode == 2
    assert result.stderr.startswith("error: fit:")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_package_error_is_one_line(tmp_path, monkeypatch, capsys):
    # the exit category follows the class hierarchy alone
    errors = set(_subclasses(ZplkitError))
    assert InsufficientDecayError in errors
    for error in errors:
        def fail(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(cli, "load_spectrum", fail)
        code = main(["fit", str(tmp_path / "never_read.csv")])
        err = capsys.readouterr().err
        if issubclass(error, FitError):
            assert (code, err) == (2, "error: fit: boom\n"), error
        else:
            assert (code, err) == (1, "error: parse: boom\n"), error


def _shape_params(path):
    record = json.loads(path.read_text())
    return {key: value for block in record["models"]
            for key, value in block["params"].items()
            if key in ("debye_temperature_K", "phonon_energy_meV")}


def test_shape_flags_override_manifest_and_defaults(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run_in_process([
        "synth", "--out-dir", "demo", "--model", "optical_mode",
        "--theta-d", "800", "--phonon-energy", "22", "--t-start", "90",
        "--n-points", "201", "--quiet"])[0] == 0
    # synth writes every shape flag given, also one its model does not take
    doc = json.loads((tmp_path / "demo" / "series.json").read_text())
    assert doc["metadata"] == {"theta_D_K": 800.0, "phonon_energy_meV": 22.0}
    # a shape flag left out takes the manifest's value
    for flags, expected in (((), (800.0, 22.0)),
                            (("--theta-d", "450"), (450.0, 22.0))):
        code, _, err = _run_in_process(["series", "demo/series.json",
                                        "--output", "rec.json", *flags])
        assert code == 0, err
        assert _shape_params(tmp_path / "rec.json") == {
            "debye_temperature_K": expected[0],
            "phonon_energy_meV": expected[1]}
    # compare has no manifest: a flag left out takes the model default
    (tmp_path / "table.csv").write_text("10,0.75\n50,0.9\n100,1.6\n"
                                        "180,3.4\n270,6.9\n")
    code, _, err = _run_in_process(["compare", "table.csv", "--phonon-energy",
                                    "15", "--output", "cmp.json"])
    assert code == 0, err
    assert _shape_params(tmp_path / "cmp.json") == {
        "debye_temperature_K": 600.0, "phonon_energy_meV": 15.0}


def test_quiet_suppresses_summary(synth_dir):
    path = synth_dir / "series" / "spectrum_00_10K.csv"
    result = run_cli("fit", str(path), "--quiet")
    assert result.returncode == 0
    assert result.stdout == ""


# The README quick start and a small simulation, with one usage error, all
# in one directory; paths are relative so the printed lines match too.
_SESSION = [
    ["synth", "--out-dir", "demo", "--seed", "5"],
    ["series", "demo/series.json", "--output", "record.json",
     "--curves-dir", "curves"],
    ["fit", "demo/spectrum_00_10K.csv", "--output", "fit.json"],
    ["compare", "record.json", "--output", "compare.json"],
    ["compare", "record.json", "--models", "no_such_model"],
    ["simulate", "--sigma", "0.46", "--gamma", "5.2", "--t-max", "1.0",
     "--dt", "0.01", "--n-traj", "50", "--seed", "1"],
]


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # how argparse ends on a usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _tree(root):
    return {os.path.relpath(os.path.join(d, f), root):
            open(os.path.join(d, f), "rb").read()
            for d, _, files in os.walk(root) for f in files}


def test_one_parser_serves_every_command(tmp_path, monkeypatch):
    from zplkit.cli import _build_parser
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    fresh.mkdir()
    reused.mkdir()
    expected = []
    for argv in _SESSION:
        result = run_cli(*argv, cwd=fresh)
        expected.append((result.returncode, result.stdout, result.stderr))
    _build_parser.cache_clear()
    monkeypatch.chdir(reused)
    assert [_run_in_process(argv) for argv in _SESSION] == expected
    assert _build_parser.cache_info().misses == 1
    assert _tree(reused) == _tree(fresh)


@pytest.mark.parametrize("n_points", ["21", "400", "1001"])
def test_synth_reports_the_points_it_wrote(tmp_path, n_points):
    code, out, _ = _run_in_process(["synth", "--out-dir", str(tmp_path),
                                    "--seed", "5", "--n-points", n_points])
    assert code == 0
    rows = []
    for name in os.listdir(tmp_path):
        if name.endswith(".csv"):
            lines = (tmp_path / name).read_text().splitlines()
            rows.append(sum(not line.startswith("#") for line in lines))
    assert max(rows) <= int(n_points)
    counts = (f"{min(rows)}" if min(rows) == max(rows)
              else f"{min(rows)}-{max(rows)}")
    assert out.splitlines()[0] == (f"wrote 14 spectra ({counts} points) "
                                   f"under {tmp_path}")


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_each_command_opens_each_input_once(synth_dir, tmp_path,
                                            monkeypatch):
    # `open` is counted where the package reads files, as the perfbench
    # tracer counts it
    reads = {}

    def counting_open(file, mode="r", *args, **kwargs):
        if "r" in mode and "+" not in mode:
            path = os.path.realpath(file)
            reads[path] = reads.get(path, 0) + 1
        return open(file, mode, *args, **kwargs)

    for module in (cli, io_formats):
        monkeypatch.setattr(module, "open", counting_open, raising=False)
    series = synth_dir / "series"
    record, spectrum = tmp_path / "record.json", series / "spectrum_00_10K.csv"
    runs = [(["series", str(series / "series.json"), "--output", str(record),
              "--curves-dir", str(tmp_path / "curves")],
             [series / "series.json", *series.glob("*.csv")]),
            (["fit", str(spectrum), "--output", str(tmp_path / "fit.json")],
             [spectrum]),
            (["compare", str(record), "--output", str(tmp_path / "c.json")],
             [record])]
    for argv, inputs in runs:
        reads.clear()
        code, _, err = _run_in_process(argv + ["--quiet"])
        assert code == 0, err
        assert reads == {os.path.realpath(p): 1 for p in inputs}, argv[0]
    assert len(runs[0][1]) == 15


def test_provenance_hashes_the_bytes_that_were_parsed(synth_dir, tmp_path,
                                                      monkeypatch):
    # each input grows by a blank line right after it is read; a record
    # still names the digests of the bytes the command analysed
    series = tmp_path / "series"
    shutil.copytree(synth_dir / "series", series)
    decode = io_formats._decode

    def decode_then_rewrite(data, path):
        text = decode(data, path)
        with open(path, "ab") as fh:
            fh.write(b"\n")
        return text

    monkeypatch.setattr(io_formats, "_decode", decode_then_rewrite)
    record = series / "record.json"  # written by series, read by compare
    spectra = sorted(p.name for p in series.glob("*.csv"))
    runs = [(["series", str(series / "series.json"), "--output", str(record)],
             ["series.json", *spectra]),
            (["fit", str(series / spectra[0]), "--output",
              str(tmp_path / "fit.json")], [spectra[0]]),
            (["compare", str(record), "--output", str(tmp_path / "c.json")],
             ["record.json"])]
    for argv, names in runs:
        parsed = {name: _sha256(series / name) for name in names}
        code, _, err = _run_in_process(argv + ["--quiet"])
        assert code == 0, err
        assert all(_sha256(series / name) != parsed[name] for name in names)
        output = argv[argv.index("--output") + 1]
        with open(output, encoding="utf-8") as fh:
            inputs = json.load(fh)["provenance"]["inputs"]
        assert inputs == {name: f"sha256:{digest}"
                          for name, digest in parsed.items()}, argv[0]
