"""File formats: spectrum tables, series manifests, result records, and
seeded synthetic-series generation.

Spectra are two-column comma-delimited text with 6-significant-digit
formatting (byte-stable under load/save round trips); manifests and result
records are JSON.  Writers are atomic (temp file + rename).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, EmptyFileError, NonMonotonicGridError,
                     ParseError)
from .fitting import Spectrum
from .lineshape import VoigtParams, voigt_fwhm, voigt_profile
from .physics import SHAPE_DEFAULTS

__all__ = [
    "SPECTRUM_HEADER", "SCHEMA_VERSION", "SeriesManifest", "ManifestEntry",
    "save_spectrum", "load_spectrum", "save_manifest", "load_manifest",
    "load_series", "write_result_record", "load_result_record",
    "sha256_of_file", "generate_synthetic_series",
]

SPECTRUM_HEADER = "# energy_meV,intensity"
SCHEMA_VERSION = 1

DEFAULT_TEMPERATURES = tuple(float(t) for t in range(10, 271, 20))


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


def _read_text(path):
    """The whole file as text; bytes that are not UTF-8 are a parse error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from None


def _load_json(path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}", exc.lineno)
    except RecursionError:
        raise ParseError(f"JSON in {path} is nested too deeply") from None


def _fmt(value):
    return f"{value:.6g}"


def save_spectrum(spectrum, path):
    """Write a spectrum file; canonical 6-significant-digit formatting."""
    lines = [SPECTRUM_HEADER]
    lines.append(f"# temperature_K = {_fmt(spectrum.temperature)}")
    if spectrum.emitter_id:
        lines.append(f"# emitter_id = {spectrum.emitter_id}")
    for e, i in zip(spectrum.energy, spectrum.intensity):
        lines.append(f"{_fmt(e)},{_fmt(i)}")
    _atomic_write_text(path, "\n".join(lines) + "\n")


def load_spectrum(path, temperature=None, emitter_id=None) -> Spectrum:
    """Parse a spectrum file; explicit arguments override header comments."""
    raw = _read_text(path).split("\n")  # universal newlines: all "\n"
    energies, intensities = [], []
    meta_temperature = 0.0
    meta_emitter = ""
    for lineno, line in enumerate(raw, start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            body = text.lstrip("#").strip()
            if body.startswith("temperature_K"):
                try:
                    meta_temperature = float(body.split("=", 1)[1])
                except (IndexError, ValueError):
                    raise ParseError("bad temperature_K comment", lineno)
            elif body.startswith("emitter_id"):
                meta_emitter = body.partition("=")[2].strip()
            continue
        parts = text.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 2 comma-separated fields, got "
                             f"{len(parts)}", lineno)
        try:
            e, i = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(f"non-numeric field in {text!r}", lineno)
        if not (math.isfinite(e) and math.isfinite(i)):
            raise ParseError(f"non-finite field in {text!r}", lineno)
        energies.append(e)
        intensities.append(i)
    if not energies:
        raise EmptyFileError(f"no data rows in {path}")
    energy = np.array(energies)
    if np.any(np.diff(energy) <= 0):
        raise NonMonotonicGridError(
            f"energy grid in {path} is not strictly increasing")
    try:
        return Spectrum(
            energy=energy, intensity=np.array(intensities),
            temperature=meta_temperature if temperature is None else temperature,
            emitter_id=meta_emitter if emitter_id is None else emitter_id)
    except DomainError as exc:
        raise ParseError(f"invalid spectrum in {path}: {exc}") from exc


@dataclass(frozen=True)
class ManifestEntry:
    temperature: float
    path: str


@dataclass(frozen=True)
class SeriesManifest:
    emitter_id: str
    entries: tuple
    debye_temperature: float = SHAPE_DEFAULTS["debye_temperature"]
    phonon_energy: float = SHAPE_DEFAULTS["phonon_energy"]
    base_dir: str = "."

    def __post_init__(self):
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
        "metadata": {"theta_D_K": manifest.debye_temperature,
                     "phonon_energy_meV": manifest.phonon_energy},
    }
    _atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_manifest(path) -> SeriesManifest:
    doc = _load_json(path)
    try:
        meta = doc.get("metadata", {})
        entries = tuple(ManifestEntry(float(e["temperature_K"]), str(e["path"]))
                        for e in doc["entries"])
        manifest = SeriesManifest(
            emitter_id=str(doc.get("emitter_id", "")),
            entries=entries,
            debye_temperature=float(meta.get(
                "theta_D_K", SHAPE_DEFAULTS["debye_temperature"])),
            phonon_energy=float(meta.get(
                "phonon_energy_meV", SHAPE_DEFAULTS["phonon_energy"])),
            base_dir=os.path.dirname(os.path.abspath(path)))
    # a value of the wrong JSON type, or an integer too large for a float
    except (AttributeError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
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


def _round_floats(obj, digits=12):
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float(f"{obj:.{digits}g}")
        return None if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def write_result_record(record, path):
    """Serialize a result dict as JSON with 12-significant-digit floats."""
    doc = _round_floats(dict(record))
    doc.setdefault("schema_version", SCHEMA_VERSION)
    _atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_result_record(path):
    return _load_json(path)


def sha256_of_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _synthetic_grid(center, total_fwhm, n_points):
    # energies aligned to 0.01 meV so the 6-digit file format stays lossless
    quantum = 0.01
    half = max(8.0 * total_fwhm, 3.0)
    step = math.ceil(2.0 * half / (n_points - 1) / quantum) * quantum
    n = int(math.floor(2.0 * half / step)) + 1
    start = round((center - half) / quantum) * quantum
    return start + np.arange(n) * step


def generate_synthetic_series(out_dir, model, *, gaussian_floor=0.72,
                              temperatures=DEFAULT_TEMPERATURES, peak_snr=30.0,
                              n_points=1001, baseline=0.0,
                              center_start=1820.2, center_end=1813.5,
                              emitter_id="synthetic", seed=0,
                              manifest_name="series.json"):
    """Write one spectrum file per temperature plus a manifest; returns the
    manifest path.

    The Lorentzian FWHM follows `model`, the Gaussian FWHM is the constant
    `gaussian_floor`, and the line center drifts linearly from
    `center_start` to `center_end` across the temperature range.  Peak
    intensity is peak_snr**2 counts with Poisson noise (peak_snr = 0 writes
    noiseless profiles).  Deterministic for a fixed seed.  Every spectrum
    is computed before the first file is written, so invalid input leaves
    no file behind.
    """
    temperatures = sorted(float(t) for t in temperatures)
    if len(temperatures) < 1:
        raise DomainError("need at least one temperature")
    if not peak_snr >= 0:
        raise DomainError("peak_snr must be >= 0")
    if n_points < 21:
        raise DomainError("n_points must be >= 21")
    peak_counts = peak_snr ** 2 if peak_snr > 0 else 1.0
    if baseline >= peak_counts:
        raise DomainError("baseline must stay below the peak count")
    # checks the temperatures (positive, finite, unique)
    manifest = SeriesManifest(
        emitter_id=emitter_id, base_dir=os.fspath(out_dir),
        entries=tuple(ManifestEntry(t, f"spectrum_{index:02d}_{t:g}K.csv")
                      for index, t in enumerate(temperatures)),
        **model.shape_values())
    t_lo, t_hi = temperatures[0], temperatures[-1]
    span = t_hi - t_lo
    spectra = []
    for index, temperature in enumerate(temperatures):
        frac = (temperature - t_lo) / span if span > 0 else 0.0
        center = center_start + frac * (center_end - center_start)
        f_l = model.lorentzian_fwhm(temperature)
        f_v = voigt_fwhm(gaussian_floor, f_l)
        params = VoigtParams(center=center, gaussian_fwhm=gaussian_floor,
                             lorentzian_fwhm=f_l, amplitude=1.0,
                             baseline=baseline)
        energy = _synthetic_grid(center, f_v, n_points)
        peak_density = voigt_profile(0.0, params.sigma, params.gamma)
        amplitude = (peak_counts - baseline) / peak_density
        intensity = baseline + amplitude * voigt_profile(
            energy - center, params.sigma, params.gamma)
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
    manifest_path = os.path.join(out_dir, manifest_name)
    save_manifest(manifest, manifest_path)
    return manifest_path
