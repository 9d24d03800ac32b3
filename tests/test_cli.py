import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import synthetic_voigt_spectrum
from zplkit.cli import main
from zplkit.io_formats import save_spectrum
from zplkit.fitting import Spectrum

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


def test_series_command_full_pipeline(synth_dir):
    manifest = synth_dir / "series" / "series.json"
    out = synth_dir / "record.json"
    curves = synth_dir / "curves"
    result = run_cli("series", str(manifest), "--output", str(out),
                     "--curves-dir", str(curves))
    assert result.returncode == 0, result.stderr
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


def test_compare_command_on_record_and_table(synth_dir, tmp_path):
    record_path = synth_dir / "record.json"
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


def test_exit_codes(tmp_path):
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
                 ("synth", "--out-dir", out + "_big", "--amplitude", "1e300"),
                 ("compare", str(four), "--fix-fg", "nan"),
                 ("compare", str(four), "--fix-fg", "1e300")):
        result = run_cli(*args)
        assert result.returncode == 1, args
        assert "Traceback" not in result.stderr
        assert sum(line.startswith("error:")
                   for line in result.stderr.splitlines()) == 1
    assert not os.path.exists(out)
    # synth writes no spectrum when it cannot finish: a zero temperature,
    # and steps that ask for more temperatures than one run may write
    # (0.26 gives 1,001 from 10 K to 270 K)
    for args in (("--t-start", "0"), ("--t-step", "1e-300"),
                 ("--t-step", "0.26")):
        result = run_cli("synth", "--out-dir", out, *args)
        assert result.returncode == 1, args
        assert result.stderr.startswith("error: parse:")
        assert len(result.stderr.splitlines()) == 1
        assert not os.path.exists(out)
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


@settings(max_examples=100, deadline=None)
@given(content=_CONTENT,
       quantity=st.sampled_from(["total", "lorentzian"]),
       fix_fg=st.one_of(st.none(), _NUMBER_TEXT))
def test_compare_any_input_exits_cleanly(content, quantity, fix_fg):
    # whatever the input, compare exits 0, 1 or 2 without a traceback, and
    # a failure prints exactly one error line
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        argv = ["compare", path, "--quiet", "--quantity", quantity]
        if fix_fg is not None:
            argv += ["--fix-fg", fix_fg]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # how argparse ends on a usage error
                code = exc.code
    assert code in (0, 1, 2)
    errors = [line for line in stderr.getvalue().splitlines()
              if line.startswith("error:")]
    assert len(errors) == (0 if code == 0 else 1)
    if code == 0:
        assert stderr.getvalue() == ""


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


def test_quiet_suppresses_summary(synth_dir):
    path = synth_dir / "series" / "spectrum_00_10K.csv"
    result = run_cli("fit", str(path), "--quiet")
    assert result.returncode == 0
    assert result.stdout == ""
