import hashlib
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import synthetic_voigt_spectrum
from zplkit import io_formats
from zplkit.errors import DomainError, FormatError, ParseError
from zplkit.fitting import (ModelComparison, Spectrum, analyze_series,
                            extract_components, fit_voigt)
from zplkit.io_formats import (ManifestEntry, SeriesManifest,
                               generate_synthetic_series, load_linewidths,
                               load_manifest, load_series, load_spectrum,
                               model_comparison_record, save_manifest,
                               save_spectrum, series_fit_record,
                               write_result_record)
from zplkit.physics import MODEL_KINDS, AcousticDebye, make_model


def test_spectrum_round_trip_is_byte_stable(tmp_path):
    spec, _ = synthetic_voigt_spectrum(1820.2, 0.72, 0.3, temperature=10.0,
                                       n_points=101)
    path = tmp_path / "a.csv"
    save_spectrum(spec, path)
    first = path.read_bytes()
    loaded = load_spectrum(path)
    assert loaded.temperature == 10.0
    save_spectrum(loaded, path)
    assert path.read_bytes() == first
    assert not list(tmp_path.glob("*.tmp"))


def test_load_spectrum_error_cases(tmp_path):
    path = tmp_path / "bad.csv"
    # enough rows that the grid check, not the size check, rejects it
    rows = [f"{e:g},1.0" for e in range(20)] + ["10.5,1.0"]
    path.write_text("# energy_meV,intensity\n" + "\n".join(rows) + "\n")
    with pytest.raises(ParseError, match="strictly increasing"):
        load_spectrum(path)
    path.write_text("# energy_meV,intensity\n1.0,1.0\n2.0,abc\n")
    with pytest.raises(ParseError) as err:
        load_spectrum(path)
    assert err.value.line_number == 3
    path.write_text("# energy_meV,intensity\n# temperature_K = warm\n")
    with pytest.raises(ParseError) as err:
        load_spectrum(path)
    assert err.value.line_number == 2
    path.write_text("# energy_meV,intensity\n")
    with pytest.raises(ParseError):
        load_spectrum(path)
    with pytest.raises(FileNotFoundError):
        load_spectrum(tmp_path / "missing.csv")


@pytest.mark.parametrize("row", ["1.0,2.0,3.0", "1.0,abc", "1.0,inf"])
def test_spectra_and_linewidth_tables_share_one_grammar(tmp_path, row):
    # the same malformed third line fails both loaders the same way
    path = tmp_path / "table.csv"
    path.write_text(f"# temperature_K,linewidth_meV\n10,0.8\n{row}\n")
    with pytest.raises(ParseError) as spectrum_error:
        load_spectrum(path)
    with pytest.raises(ParseError) as table_error:
        load_linewidths(path, "total")
    assert spectrum_error.value.line_number == 3
    assert table_error.value.line_number == 3
    assert str(spectrum_error.value) == str(table_error.value)


def test_load_spectrum_too_few_rows_is_parse_error(tmp_path):
    path = tmp_path / "short.csv"
    rows = "\n".join(f"{i}.0,1.0" for i in range(5))
    path.write_text("# energy_meV,intensity\n" + rows + "\n")
    with pytest.raises(ParseError):
        load_spectrum(path)


def test_manifest_round_trip_and_validation(tmp_path):
    spec, _ = synthetic_voigt_spectrum(1820.0, 0.7, 0.1, temperature=10.0,
                                       n_points=60)
    save_spectrum(spec, tmp_path / "s1.csv")
    manifest = SeriesManifest(emitter_id="X1",
                              entries=(ManifestEntry(10.0, "s1.csv"),),
                              shape={"debye_temperature": 600.0,
                                     "phonon_energy": 18.0},
                              base_dir=str(tmp_path))
    save_manifest(manifest, tmp_path / "m.json")
    loaded = load_manifest(tmp_path / "m.json")
    assert loaded.emitter_id == "X1"
    assert loaded.shape["debye_temperature"] == 600.0
    assert loaded.entries[0].temperature == 10.0
    series = load_series(loaded)
    assert series[0].temperature == 10.0

    with pytest.raises(DomainError):
        SeriesManifest("X", (ManifestEntry(10.0, "a"),
                             ManifestEntry(10.0, "b")))
    with pytest.raises(DomainError):
        SeriesManifest("X", (ManifestEntry(-4.0, "a"),))


def test_manifest_holds_its_entries_in_ascending_temperature(tmp_path):
    # the manifest owns the series order: load_series and save_manifest
    # follow it, whatever order the file lists
    for t, name in ((10.0, "cold.csv"), (30.0, "warm.csv")):
        spec, _ = synthetic_voigt_spectrum(1820.0, 0.7, 0.1, temperature=t,
                                           n_points=60)
        save_spectrum(spec, tmp_path / name)
    (tmp_path / "m.json").write_text(json.dumps({"entries": [
        {"temperature_K": 30.0, "path": "warm.csv"},
        {"temperature_K": 10.0, "path": "cold.csv"}]}))
    manifest = load_manifest(tmp_path / "m.json")
    assert [e.path for e in manifest.entries] == ["cold.csv", "warm.csv"]
    assert [s.temperature for s in load_series(manifest)] == [10.0, 30.0]
    save_manifest(manifest, tmp_path / "saved.json")
    saved = json.loads((tmp_path / "saved.json").read_text())
    assert [e["path"] for e in saved["entries"]] == ["cold.csv", "warm.csv"]


def test_manifest_metadata_must_be_an_object(tmp_path):
    spec, _ = synthetic_voigt_spectrum(1820.0, 0.7, 0.1, n_points=60)
    save_spectrum(spec, tmp_path / "s1.csv")
    for doc in ({"entries": [{"temperature_K": 10.0, "path": "s1.csv"}],
                 "metadata": []},
                [{"temperature_K": 10.0, "path": "s1.csv"}]):
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_manifest(tmp_path / "m.json")


def _loads_or_raises_format_error(load, data):
    # any file content either loads or raises FormatError, nothing else
    with tempfile.TemporaryDirectory() as tmp:
        spec, _ = synthetic_voigt_spectrum(1820.0, 0.7, 0.1, n_points=30)
        save_spectrum(spec, os.path.join(tmp, "s.csv"))
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(data if isinstance(data, bytes)
                     else data.encode("utf-8", "surrogatepass"))
        try:
            load(path)
        except FormatError:
            pass


_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
              st.text(max_size=6), st.sampled_from(["s.csv", "ghost.csv"])),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12)
_ENTRY = st.fixed_dictionaries(
    {}, optional={"temperature_K": _JSON, "path": _JSON})
_MANIFEST = st.fixed_dictionaries({}, optional={
    "entries": st.one_of(_JSON, st.lists(st.one_of(_ENTRY, _JSON),
                                         max_size=3)),
    "metadata": st.one_of(_JSON, st.fixed_dictionaries({}, optional={
        "theta_D_K": _JSON, "phonon_energy_meV": _JSON})),
    "emitter_id": _JSON})


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(st.text(), st.binary(max_size=16),
                      _JSON.map(json.dumps), _MANIFEST.map(json.dumps)))
def test_load_manifest_any_input_loads_or_raises_format_error(data):
    _loads_or_raises_format_error(load_manifest, data)


_NUMBER = st.one_of(st.floats(), st.integers(-10 ** 30, 10 ** 30),
                    st.floats(min_value=0.0, max_value=2000.0),
                    st.sampled_from(["inf", "-inf", "nan", "1e999"])).map(str)
_LINE = st.one_of(
    st.text(max_size=10),
    st.tuples(_NUMBER, _NUMBER).map(",".join),
    _NUMBER.map(lambda v: f"# temperature_K = {v}"),
    st.text(max_size=6).map(lambda v: f"# emitter_id = {v}"))


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(
    st.text(), st.binary(max_size=16),
    st.lists(_LINE, max_size=30).map("\n".join),
    # ascending grids long enough to load, with random lines inserted
    st.tuples(st.integers(0, 25), st.lists(_LINE, max_size=3)).map(
        lambda x: "\n".join([f"{i}.0,{i % 7}" for i in range(x[0])] + x[1]
                            + [f"{i}.0,1" for i in range(x[0], 25)]))))
def test_load_spectrum_any_input_loads_or_raises_format_error(data):
    _loads_or_raises_format_error(load_spectrum, data)


def _table_outcome(read, path):
    try:
        comments, columns = read(path)
    except ParseError as exc:
        return "error", str(exc), exc.line_number
    return (comments, type(columns), columns.dtype, columns.shape,
            columns.tobytes())


_FIELD = st.one_of(
    st.floats().map(repr), st.floats().map("{:.6g}".format),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["", " 1 ", "1_0", "\u0661", "inf", "-nan", "1e400",
                     "0x10", "1.", ".5", "+1", "1,", "# x", "\x0c1", "1\xa0",
                     "1\x00"]),
    st.text(max_size=4))
_TABLE_LINE = st.one_of(
    st.lists(_FIELD, min_size=1, max_size=3).map(",".join),
    st.tuples(_FIELD, _FIELD).map(",".join),
    st.text(max_size=6).map(lambda v: f"# key = {v}"),
    st.sampled_from(["", "  ", "#", "# energy_meV,intensity"]))


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(
    st.text(),
    st.tuples(st.lists(_TABLE_LINE, max_size=3),
              st.lists(_TABLE_LINE, max_size=12),
              st.sampled_from(["\n", "\r\n", "\r"])).map(
        lambda x: x[2].join(["# energy_meV,intensity", *x[0],
                             *[f"{i},{i % 3}" for i in range(4)], *x[1]]))))
@example(text="1,2 # x\n")
@example(text="1_0,2\n")
@example(text="\u0661,2\n")
@example(text="1,inf\n")
@example(text="nan,2\n")
@example(text="1e400,2\n")
@example(text="1,2\n\n3,4\n  \n5,6\n")
@example(text="1,2\n# key = value\n3,4\n")
@example(text="# a = 1\r\n1,2\r\n3,4\r\n")
@example(text="")
@example(text="# energy_meV,intensity\n# temperature_K = 10\n")
def test_fast_table_reader_matches_line_parser(text):
    # numpy's fast path returns what the line parser returns, down to the
    # comments' line numbers and the column bytes, or the same ParseError
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        fast = _table_outcome(lambda p: io_formats._read_table(
            io_formats._read_text(p)[0]), path)
        slow = _table_outcome(lambda p: io_formats._parse_table(
            io_formats._read_text(p)[0].split("\n")), path)
    assert fast == slow


def _per_row_table_text(comments, columns, digits):
    # the writer's former per-row str.format, kept as the oracle
    row = ",".join([f"{{:.{digits}g}}"] * len(columns))
    rows = zip(*(np.asarray(column, dtype=float).tolist()
                 for column in columns))
    lines = [*comments, *(row.format(*values) for values in rows)]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(n_columns=st.integers(2, 4), digits=st.sampled_from([6, 9]),
       values=st.lists(st.one_of(
           st.floats(allow_nan=False, allow_infinity=False),
           st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                            1e300, -1e300, 1e-300, 1.5e-310])),
           max_size=40))
def test_table_writer_matches_per_row_format(n_columns, digits, values):
    rows = len(values) // n_columns
    columns = [values[i * rows:(i + 1) * rows] for i in range(n_columns)]
    comments = ["# a,b", "# key = 100%"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        io_formats._write_table(path, comments, columns, digits=digits)
        with open(path, "rb") as fh:
            written = fh.read()
    assert written == _per_row_table_text(comments, columns,
                                          digits).encode("utf-8")


def test_manifest_missing_file_rejected(tmp_path):
    doc = {"emitter_id": "X", "entries": [
        {"temperature_K": 10.0, "path": "ghost.csv"}]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_manifest(path)


def test_result_record_round_trip_and_rounding(tmp_path):
    record = {"kind": "test", "value": 0.123456789012345678,
              "nested": {"list": [1.0 / 3.0, 2]},
              "provenance": {"seed": 7}}
    path = tmp_path / "r.json"
    write_result_record(record, path)
    first = path.read_bytes()
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded["schema_version"] == 2
    assert loaded["value"] == float(f"{0.123456789012345678:.12g}")
    write_result_record(loaded, path)
    assert path.read_bytes() == first


def test_series_record_round_trips_through_load_linewidths(tmp_path):
    model = AcousticDebye(6.82, gaussian_floor=0.72)
    manifest_path, _ = generate_synthetic_series(
        tmp_path, model, temperatures=(10.0, 90.0, 170.0, 250.0),
        n_points=201, seed=5)
    manifest = load_manifest(manifest_path)
    spectra = load_series(manifest)
    # every setting the series ranked with reads back, the shape values
    # through the keys the model blocks are written with
    result = analyze_series(spectra, quantity="lorentzian",
                            debye_temperature=350.0, phonon_energy=25.0)
    record = tmp_path / "record.json"
    write_result_record(series_fit_record(manifest_path, manifest, spectra,
                                          result, "lorentzian"), record)
    points, recorded, digest = load_linewidths(record, "total")
    assert points == [(f.temperature, float(f"{f.total_fwhm:.12g}"))
                      for f in result.per_temperature]
    assert recorded == {"quantity": "lorentzian",
                        "gaussian_floor": float(f"{result.gaussian_floor:.12g}"),
                        "debye_temperature": 350.0, "phonon_energy": 25.0}
    assert digest == hashlib.sha256(record.read_bytes()).hexdigest()


_SHAPE_VALUE = st.floats(min_value=0.0, exclude_min=True,
                         allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(kinds=st.sets(st.sampled_from(list(MODEL_KINDS)), min_size=1),
       quantity=st.sampled_from(["total", "lorentzian"]),
       floor=st.floats(min_value=0.0, max_value=1e3),
       debye_temperature=_SHAPE_VALUE, phonon_energy=_SHAPE_VALUE)
def test_comparison_record_round_trips_its_settings(
        kinds, quantity, floor, debye_temperature, phonon_energy):
    # a record reads back the quantity, the floor and the shape values of
    # the models it ranked, to its 12 significant digits
    shape = {"debye_temperature": debye_temperature,
             "phonon_energy": phonon_energy}
    rows = [ModelComparison(model=make_model(kind, 1.0, gaussian_floor=floor,
                                             **shape),
                            rss=1.0, n_free=1, n_iterations=1, aic=0.0,
                            delta_aic=0.0) for kind in sorted(kinds)]
    record = {**model_comparison_record("widths.csv", "0" * 64, rows,
                                        quantity, floor),
              "per_temperature": [{"temperature_K": 10.0,
                                   "total_fwhm_meV": 1.0}]}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "record.json")
        write_result_record(record, path)
        _, recorded, _ = load_linewidths(path, "total")
    taken = {name for row in rows for name in row.model.shape}
    assert recorded == {
        "quantity": quantity, "gaussian_floor": float(f"{floor:.12g}"),
        **{name: float(f"{shape[name]:.12g}") for name in taken}}


def test_only_io_formats_names_a_record_key():
    # the module that writes records and manifests is the one that reads
    # them back: no other module spells one of their keys
    keys = ("theta_D_K", "debye_temperature_K", "phonon_energy_meV",
            "gaussian_floor_meV")
    package = os.path.dirname(io_formats.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                text = fh.read()
            named = [key for key in keys if key in text]
            assert named == (list(keys) if name == "io_formats.py" else []), \
                name


def test_atomic_write_failure_leaves_target_and_no_temp_file(
        tmp_path, monkeypatch):
    from zplkit import io_formats
    path = tmp_path / "r.json"
    write_result_record({"kind": "old"}, path)
    before = path.read_bytes()
    umask = os.umask(0)
    os.umask(umask)
    assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask
    with pytest.raises(UnicodeEncodeError):  # fails inside the write
        io_formats._atomic_write_text(path, "partial \ud800 text")
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["r.json"]

    def failing_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(io_formats.os, "replace", failing_replace)
    with pytest.raises(OSError):
        write_result_record({"kind": "new"}, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["r.json"]


def test_generate_synthetic_series_default_grid(tmp_path):
    model = AcousticDebye(6.82, 600.0, gaussian_floor=0.72)
    manifest_path, sizes = generate_synthetic_series(tmp_path / "out", model,
                                                     seed=1)
    manifest = load_manifest(manifest_path)
    assert len(manifest.entries) == 14  # 10 K .. 270 K in 20 K steps
    temps = [e.temperature for e in manifest.entries]
    assert temps == [float(t) for t in range(10, 271, 20)]
    # the point counts returned are those written, in temperature order
    assert sizes == [s.n_points for s in load_series(manifest)]
    assert sizes[0] == 577 and max(sizes) <= 1001
    assert manifest.shape == {"debye_temperature": 600.0,
                              "phonon_energy": 18.0}


def test_generate_noiseless_round_trip(tmp_path):
    model = AcousticDebye(6.82, 600.0, gaussian_floor=0.72)
    manifest_path, _ = generate_synthetic_series(
        tmp_path / "o", model, peak_snr=0.0,
        temperatures=(10.0, 150.0, 270.0), seed=0)
    series = load_series(load_manifest(manifest_path))
    fit = fit_voigt(series[2])
    assert fit.params.lorentzian_fwhm == pytest.approx(
        model.lorentzian_fwhm(270.0), rel=1e-6)
    # the 6-significant-digit file format quantizes intensities at ~5e-7
    # relative, which limits the weakly identified Gaussian component here;
    # in-memory round trips recover 1e-6 (see the acceptance suite)
    assert fit.params.gaussian_fwhm == pytest.approx(0.72, rel=2e-5)
    # center drift endpoints
    fit0 = fit_voigt(series[0])
    assert fit0.params.center == pytest.approx(1820.2, abs=1e-4)
    assert fit.params.center == pytest.approx(1813.5, abs=1e-4)


def test_generate_takes_the_gaussian_floor_from_the_model(tmp_path):
    model = AcousticDebye(6.82, 600.0, gaussian_floor=0.2)
    manifest_path, _ = generate_synthetic_series(
        tmp_path, model, peak_snr=0.0, temperatures=(10.0, 30.0, 50.0),
        n_points=401)
    fits = [fit_voigt(s) for s in load_series(load_manifest(manifest_path))]
    for fit in fits:
        assert fit.params.gaussian_fwhm == pytest.approx(0.2, rel=1e-5)
    assert extract_components(fits) == pytest.approx(0.2, rel=1e-5)


def test_generate_manifest_records_the_model_shape(tmp_path):
    # a shape mapping that contradicts the model cannot reach the manifest:
    # a later `series` would fit another Debye temperature than was drawn
    model = AcousticDebye(6.82, 450.0, gaussian_floor=0.72)
    manifest_path, _ = generate_synthetic_series(
        tmp_path, model, shape={"debye_temperature": 800.0,
                                "phonon_energy": 22.0},
        temperatures=(10.0, 30.0), n_points=41)
    assert load_manifest(manifest_path).shape == {
        "debye_temperature": 450.0, "phonon_energy": 22.0}


def test_generate_writes_nothing_for_invalid_temperatures(tmp_path):
    model = AcousticDebye(6.82, 600.0, gaussian_floor=0.72)
    for temps in ((10.0, 30.0, 0.0), (10.0, 30.0, 30.0),
                  (10.0, float("nan")), (10.0, float("inf"))):
        out = tmp_path / "out"
        with pytest.raises(DomainError):
            generate_synthetic_series(out, model, temperatures=temps)
        assert not out.exists()


def test_generate_is_deterministic(tmp_path):
    model = AcousticDebye(6.82, 600.0, gaussian_floor=0.72)
    p1, _ = generate_synthetic_series(tmp_path / "a", model, seed=42)
    p2, _ = generate_synthetic_series(tmp_path / "b", model, seed=42)
    m1, m2 = load_manifest(p1), load_manifest(p2)
    for e1, e2 in zip(m1.entries, m2.entries):
        b1 = open(m1.resolve(e1), "rb").read()
        b2 = open(m2.resolve(e2), "rb").read()
        assert b1 == b2
    p3, _ = generate_synthetic_series(tmp_path / "c", model, seed=43)
    m3 = load_manifest(p3)
    assert (open(m1.resolve(m1.entries[0]), "rb").read()
            != open(m3.resolve(m3.entries[0]), "rb").read())


def test_loaders_carry_the_digest_of_the_bytes_they_parsed(tmp_path):
    def sha256(path):
        return hashlib.sha256(open(path, "rb").read()).hexdigest()

    manifest_path, _ = generate_synthetic_series(
        tmp_path, AcousticDebye(amplitude=6.82, gaussian_floor=0.72),
        temperatures=(10.0, 30.0), n_points=41, seed=3)
    manifest = load_manifest(manifest_path)
    assert manifest.source_sha256 == sha256(manifest_path)
    for entry, spectrum in zip(manifest.entries, load_series(manifest)):
        assert spectrum.source_sha256 == sha256(manifest.resolve(entry))
    table = tmp_path / "widths.csv"
    table.write_bytes(b"10,0.8\r\n30,0.9\r\n")
    assert load_linewidths(table, "total")[2] == sha256(table)
    # objects built in code read no file and carry no digest
    assert SeriesManifest("x", manifest.entries).source_sha256 == ""
    assert Spectrum(spectrum.energy, spectrum.intensity).source_sha256 == ""
