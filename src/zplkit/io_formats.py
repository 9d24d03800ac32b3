"""File formats: comma tables (spectra, linewidths, curves), series
manifests, result records, and seeded synthetic-series generation.

Comma tables have one grammar, one reader and one writer.  numpy parses
a table's rows; the line parser, the owner of every parse error and its
line number, takes any body numpy rejects.  Spectra carry 6 significant
digits (byte-stable under load/save round trips).  Manifests and result
records are JSON.  Every input is read once, by `_read_text`, and what a
loader returns carries the SHA-256 of the bytes it parsed.  Writers are
atomic (temp file + rename).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError
from .fitting import Spectrum
from .lineshape import VoigtParams, voigt_fwhm, voigt_profile
from .physics import SHAPE_DEFAULTS

__all__ = [
    "SPECTRUM_HEADER", "SCHEMA_VERSION", "SeriesManifest", "ManifestEntry",
    "save_spectrum", "load_spectrum", "save_manifest", "load_manifest",
    "load_series", "write_result_record", "generate_synthetic_series",
    "load_linewidths",
]

SPECTRUM_HEADER = "# energy_meV,intensity"
SCHEMA_VERSION = 1

DEFAULT_TEMPERATURES = tuple(float(t) for t in range(10, 271, 20))
# peak counts peak_snr**2 stay below numpy's Poisson limit, about 9.2e18
_MAX_PEAK_SNR = 1e9


def _atomic_write_text(path, text):
    """Write text through a unique temp file in the target's directory and
    a rename: readers see the old file or the whole new one, and the temp
    file is removed if anything fails."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            umask = os.umask(0)  # mkstemp creates 0600; keep open()'s mode
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _decode(data, path):
    """File bytes as text, decoded as open(path, encoding="utf-8") reads
    them (universal newlines); bytes that are not UTF-8 are a parse error."""
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from None


def _read_text(path):
    """The whole file as text and the SHA-256 hex digest of the bytes that
    text was decoded from, from one read: the only place the package opens
    an input.  Bytes that are not UTF-8 are a parse error."""
    with open(path, "rb") as fh:
        data = fh.read()
    return _decode(data, path), hashlib.sha256(data).hexdigest()


def _load_json(path):
    """A JSON file's value and the SHA-256 hex digest of its bytes."""
    try:
        text, digest = _read_text(path)
        return json.loads(text), digest
    except ValueError as exc:  # also an integer longer than int() converts
        raise ParseError(f"invalid JSON in {path}: {exc}",
                         getattr(exc, "lineno", None)) from None
    except RecursionError:
        raise ParseError(f"JSON in {path} is nested too deeply") from None


def _finite(value, where="value", line_number=None):
    """The float of a text field (a table cell or a flag); a ParseError
    unless it reads as a finite number."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ParseError(f"non-numeric {where}: {value!r}", line_number)
    if not math.isfinite(number):
        raise ParseError(f"non-finite {where}: {value!r}", line_number)
    return number


def _json_field(obj, key, where, kind=float, default=None):
    """obj[key] of a JSON object as a finite float (kind float: an int or
    a float, not a bool, which subclasses int) or as a str (kind str), or
    `default` if given and the key is missing.  Anything else is a
    ParseError naming `where` + key."""
    if key not in obj and default is not None:
        return default
    value = obj.get(key)
    if kind is str:
        if isinstance(value, str):
            return value
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer past the float range
            number = math.inf
        if math.isfinite(number):
            return number
    if key not in obj:
        raise ParseError(f"{where}{key} is missing")
    expected = "a string" if kind is str else "a finite number"
    raise ParseError(f"{where}{key} must be {expected}, "
                     f"got {json.dumps(value)}")


def _parse_table(lines):
    """`_read_table` line by line: the owner of every ParseError it raises."""
    comments = {}
    first, second = [], []
    for line_number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            key, _, value = text.lstrip("#").partition("=")
            comments[key.strip()] = (value.strip(), line_number)
            continue
        fields = text.split(",")
        if len(fields) != 2:
            raise ParseError(f"expected 2 comma-separated fields, got "
                             f"{len(fields)}", line_number)
        try:
            x, y = float(fields[0]), float(fields[1])
        except ValueError:
            x = y = math.nan
        if not (math.isfinite(x) and math.isfinite(y)):
            for field in fields:  # raises at the first defective field
                _finite(field, line_number=line_number)
        first.append(x)
        second.append(y)
    return comments, np.array((first, second))


def _read_table(text):
    """Parse a two-column comma table's text: ({key: (value, line_number)}
    of its `# key = value` comments, its columns as a (2, rows) float array).

    Blank lines are skipped; every other line is a comment or a row of two
    finite numbers, and each defect is a ParseError with its line number.
    numpy parses the rows below the leading comments; the line parser takes
    a body numpy rejects or reads as anything but finite pairs.
    """
    lines = text.split("\n")  # read with universal newlines: all "\n"
    header = 0
    while header < len(lines) and lines[header].strip()[:1] in ("", "#"):
        header += 1
    if header < len(lines):  # loadtxt warns on an empty body
        try:
            table = np.loadtxt(lines[header:], delimiter=",",
                               comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if table.shape[1] == 2 and np.isfinite(table).all():
                return _parse_table(lines[:header])[0], table.T
    return _parse_table(lines)


def _write_table(path, comments, columns, digits=6):
    """Write a comma table atomically: the comment lines (each starting
    with "#"), then one row per index of the equal-length `columns` at
    `digits` significant digits."""
    rows = np.array(columns, dtype=float).T
    row = ",".join([f"%.{digits}g"] * rows.shape[1]) + "\n"
    # one % over Python floats: the text a per-row str.format gives
    _atomic_write_text(path, ("%s\n" * len(comments) + row * len(rows))
                       % (*comments, *rows.ravel().tolist()))


def save_spectrum(spectrum, path):
    """Write a spectrum file; canonical 6-significant-digit formatting."""
    comments = [SPECTRUM_HEADER,
                f"# temperature_K = {spectrum.temperature:.6g}"]
    if spectrum.emitter_id:
        comments.append(f"# emitter_id = {spectrum.emitter_id}")
    _write_table(path, comments, (spectrum.energy, spectrum.intensity))


def load_spectrum(path, temperature=None, emitter_id=None) -> Spectrum:
    """Parse a spectrum file; explicit arguments override header comments.
    The spectrum's `source_sha256` is the digest of the bytes parsed."""
    text, digest = _read_text(path)
    comments, (energies, intensities) = _read_table(text)
    value, line_number = comments.get("temperature_K", ("0", None))
    try:
        meta_temperature = float(value)
    except ValueError:
        raise ParseError("bad temperature_K comment", line_number) from None
    meta_emitter = comments.get("emitter_id", ("",))[0]
    try:
        return Spectrum(
            energy=energies, intensity=intensities,
            temperature=meta_temperature if temperature is None else temperature,
            emitter_id=meta_emitter if emitter_id is None else emitter_id,
            source_sha256=digest)
    except DomainError as exc:
        raise ParseError(f"invalid spectrum in {path}: {exc}") from exc


@dataclass(frozen=True)
class ManifestEntry:
    temperature: float
    path: str


_MANIFEST_KEYS = {"debye_temperature": "theta_D_K",  # shape: manifest key
                  "phonon_energy": "phonon_energy_meV"}


@dataclass(frozen=True)
class SeriesManifest:
    emitter_id: str
    entries: tuple
    shape: dict | None = None  # {name: value}; missing or None: default
    base_dir: str = "."
    source_sha256: str = ""  # of the file read; empty when built in code

    def __post_init__(self):
        given = self.shape or {}
        object.__setattr__(self, "shape", {
            name: default if given.get(name) is None else given[name]
            for name, default in SHAPE_DEFAULTS.items()})
        temps = [e.temperature for e in self.entries]
        if not all(0 < t < math.inf for t in temps):
            raise DomainError("manifest temperatures must be positive "
                              "and finite")
        if len(set(temps)) != len(temps):
            raise DomainError("manifest temperatures must be unique")

    def resolve(self, entry):
        return os.path.join(self.base_dir, entry.path)


def save_manifest(manifest, path):
    doc = {
        "emitter_id": manifest.emitter_id,
        "entries": [{"temperature_K": e.temperature, "path": e.path}
                    for e in sorted(manifest.entries,
                                    key=lambda e: e.temperature)],
        "metadata": {key: manifest.shape[name]
                     for name, key in _MANIFEST_KEYS.items()},
    }
    _atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_manifest(path) -> SeriesManifest:
    """Read a series manifest; a shape key left out takes its default."""
    doc, digest = _load_json(path)
    where = f"manifest {path}: "
    if not isinstance(doc, dict):
        raise ParseError(f"{where}not a JSON object")
    meta = doc.get("metadata", {})
    if not isinstance(meta, dict):
        raise ParseError(f"{where}metadata must be an object")
    if not isinstance(doc.get("entries"), list):
        raise ParseError(f"{where}entries must be a list of objects")
    entries = []
    for i, entry in enumerate(doc["entries"]):
        at = f"{where}entries[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{at} must be an object")
        entries.append(ManifestEntry(
            _json_field(entry, "temperature_K", at + "."),
            _json_field(entry, "path", at + ".", str)))
    try:
        manifest = SeriesManifest(
            emitter_id=_json_field(doc, "emitter_id", where, str, default=""),
            entries=tuple(entries),
            shape={name: _json_field(meta, key, f"{where}metadata.")
                   for name, key in _MANIFEST_KEYS.items() if key in meta},
            base_dir=os.path.dirname(os.path.abspath(path)),
            source_sha256=digest)
    except DomainError as exc:  # temperatures not positive or not unique
        raise ParseError(f"malformed manifest {path}: {exc}") from exc
    for entry in manifest.entries:
        resolved = manifest.resolve(entry)
        if not os.path.exists(resolved):
            raise ParseError(f"manifest entry not found: {resolved}")
    return manifest


def load_series(manifest):
    """Load every manifest entry as (temperature, Spectrum), ascending."""
    pairs = []
    for entry in sorted(manifest.entries, key=lambda e: e.temperature):
        spectrum = load_spectrum(manifest.resolve(entry),
                                 temperature=entry.temperature,
                                 emitter_id=manifest.emitter_id)
        pairs.append((entry.temperature, spectrum))
    return pairs


def _round_floats(obj):
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(f"{obj:.12g}")
        return None if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def write_result_record(record, path):
    """Serialize a result dict as JSON with 12-significant-digit floats."""
    doc = _round_floats(dict(record))
    doc.setdefault("schema_version", SCHEMA_VERSION)
    _atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_linewidths(path, quantity):
    """(T, linewidth) pairs, a Gaussian floor and the SHA-256 hex digest of
    the file, from one read: a result record's total FWHMs and its floor,
    or the values of a `temperature_K,linewidth_meV` table as they are and
    None; `quantity` ("total" or "lorentzian") names what a table holds.

    Every value must be a finite number, a total linewidth positive and a
    Lorentzian one non-negative: fits of pure Gaussian lines report f_L on
    its bound of zero.
    """
    text, digest = _read_text(path)
    try:
        record = json.loads(text)
    except (ValueError, RecursionError):  # not JSON: a table
        record = None
    if isinstance(record, dict):
        blocks = record.get("per_temperature")
        if not isinstance(blocks, list):
            raise ParseError(f"record {path} carries no per-temperature fits")
        quantity = "total"
        points = []
        for i, block in enumerate(blocks):
            where = f"record {path}: per_temperature[{i}]"
            if not isinstance(block, dict):
                raise ParseError(f"{where} must be an object")
            points.append((_json_field(block, "temperature_K", where + "."),
                           _json_field(block, "total_fwhm_meV", where + ".")))
        floor = _json_field(record, "gaussian_floor_meV", f"record {path}: ",
                            default=0.0)
    else:
        _, columns = _read_table(text)
        points, floor = list(zip(*columns.tolist())), None
    for t, width in points:
        if width < 0 or (quantity == "total" and width == 0):
            raise ParseError(f"invalid {quantity} linewidth {width!r} at "
                             f"{t!r} K in {path}")
    return points, floor, digest


def _synthetic_grid(center, total_fwhm, n_points):
    """The energies `generate_synthetic_series` writes for a line of this
    center and total FWHM (meV): at most n_points, fewer where the step,
    rounded up to whole 0.01 meV, leaves the span short; aligned to 0.01
    meV so the 6-digit file format stays lossless."""
    half = max(8.0 * total_fwhm, 3.0)
    step = math.ceil(2.0 * half / (n_points - 1) / 0.01) * 0.01
    n = int(math.floor(2.0 * half / step)) + 1
    start = round((center - half) / 0.01) * 0.01
    return start + np.arange(n) * step


def generate_synthetic_series(out_dir, model, *, shape=None,
                              gaussian_floor=0.72,
                              temperatures=DEFAULT_TEMPERATURES, peak_snr=30.0,
                              n_points=1001, emitter_id="synthetic", seed=0):
    """Write one spectrum file per temperature plus the manifest
    `series.json`; returns the manifest path and the number of points of
    each spectrum, in temperature order.

    The Lorentzian FWHM follows `model`, the Gaussian FWHM is the constant
    `gaussian_floor`, and the line center drifts linearly from 1820.2 meV
    to 1813.5 meV across the temperature range, on a zero baseline.  Peak
    intensity is peak_snr**2 counts with Poisson noise (peak_snr = 0 writes
    noiseless profiles; at most 1e9).  Each spectrum spans the center
    +- max(8 total FWHM, 3 meV) with at most `n_points` points: the step
    is rounded up to whole 0.01 meV, so a narrow line gets fewer (577 of
    the default 1001 for the 10 K line of the `synth` defaults).
    The manifest records the shape parameters `shape` gives ({name: value,
    None for the default}), or the model's own.  Deterministic for a fixed
    seed.  Every spectrum is computed before the first file is written, so
    invalid input leaves no file behind.
    """
    temperatures = sorted(float(t) for t in temperatures)
    if len(temperatures) < 1:
        raise DomainError("need at least one temperature")
    if not 0 <= peak_snr <= _MAX_PEAK_SNR:
        raise DomainError(f"peak_snr must lie in [0, {_MAX_PEAK_SNR:g}], "
                          f"got {peak_snr:g}")
    if n_points < 21:
        raise DomainError("n_points must be >= 21")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    peak_counts = peak_snr ** 2 if peak_snr > 0 else 1.0
    # checks the temperatures (positive, finite, unique)
    manifest = SeriesManifest(
        emitter_id=emitter_id, base_dir=os.fspath(out_dir),
        entries=tuple(ManifestEntry(t, f"spectrum_{index:02d}_{t:g}K.csv")
                      for index, t in enumerate(temperatures)),
        shape=shape or model.shape_values())
    t_lo, t_hi = temperatures[0], temperatures[-1]
    span = t_hi - t_lo
    spectra = []
    for index, temperature in enumerate(temperatures):
        frac = (temperature - t_lo) / span if span > 0 else 0.0
        center = 1820.2 + frac * (1813.5 - 1820.2)
        f_l = model.lorentzian_fwhm(temperature)
        f_v = voigt_fwhm(gaussian_floor, f_l)
        params = VoigtParams(center, gaussian_floor, f_l, amplitude=1.0)
        energy = _synthetic_grid(center, f_v, n_points)
        peak_density = voigt_profile(0.0, params.sigma, params.gamma)
        # the Faddeeva series dips ~1e-15 below zero in far Gaussian tails
        intensity = peak_counts / peak_density * np.maximum(voigt_profile(
            energy - center, params.sigma, params.gamma), 0.0)
        if peak_snr > 0:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
            intensity = rng.poisson(intensity).astype(float)
        spectra.append(Spectrum(energy=energy, intensity=intensity,
                                temperature=temperature,
                                emitter_id=emitter_id))
    os.makedirs(out_dir, exist_ok=True)
    for entry, spectrum in zip(manifest.entries, spectra):
        save_spectrum(spectrum, manifest.resolve(entry))
    manifest_path = os.path.join(out_dir, "series.json")
    save_manifest(manifest, manifest_path)
    return manifest_path, [spectrum.n_points for spectrum in spectra]
