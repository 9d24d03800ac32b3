"""Command-line front end: fit, series, compare, simulate, synth."""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import (ConfigError, DomainError, FitError, FormatError,
                     InsufficientDecayError, ParseError, QuadratureError)
from .fitting import analyze_series, classify_lineshape, compare_models, fit_voigt
from .io_formats import (_atomic_write_text, _read_text,
                         generate_synthetic_series, load_manifest,
                         load_result_record, load_series, load_spectrum,
                         save_spectrum, sha256_of_file, write_result_record)
from .lineshape import grid_fwhm, voigt_fwhm
from .physics import MODEL_KINDS, make_model
from .simulate import SimulationConfig, mc_coherence, spectrum_from_coherence


_MAX_SYNTH_TEMPERATURES = 1000  # most spectra one `synth` run may write


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(1)


def _say(args, text):
    if not args.quiet:
        print(text)


def _fit_block(temperature, fit):
    p, u = fit.params, fit.uncertainties
    return {
        "temperature_K": temperature,
        "center_meV": p.center,
        "gaussian_fwhm_meV": p.gaussian_fwhm,
        "lorentzian_fwhm_meV": p.lorentzian_fwhm,
        "total_fwhm_meV": fit.total_fwhm,
        "amplitude": p.amplitude,
        "baseline": p.baseline,
        "uncertainties": {
            "center_meV": u.center,
            "gaussian_fwhm_meV": u.gaussian_fwhm,
            "lorentzian_fwhm_meV": u.lorentzian_fwhm,
            "amplitude": u.amplitude,
            "baseline": u.baseline,
        },
        "rss": fit.rss,
        "n_points": fit.n_points,
        "n_iterations": fit.n_iterations,
        "converged": fit.converged,
        "mode": fit.mode,
    }


def _model_block(row):
    m = row.model
    params = {"amplitude": m.amplitude, "gaussian_floor_meV": m.gaussian_floor,
              **{m.shape[name]: v for name, v in m.shape_values().items()}}
    return {"kind": row.kind, "params": params, "rss": row.rss,
            "n_free": row.n_free, "aic": row.aic, "delta_aic": row.delta_aic}


def _provenance(input_paths, seed=None):
    return {
        "inputs": {os.path.basename(p): f"sha256:{sha256_of_file(p)}"
                   for p in input_paths},
        "seed": seed,
        "tool_version": __version__,
    }


def _print_comparison(args, rows):
    _say(args, f"{'model':<16}{'rss':>14}{'aic':>12}{'delta_aic':>12}")
    for row in rows:
        _say(args, f"{row.kind:<16}{row.rss:>14.6g}{row.aic:>12.4f}"
                   f"{row.delta_aic:>12.4f}")


def cmd_fit(args):
    spectrum = load_spectrum(args.spectrum, temperature=args.temperature)
    fit = fit_voigt(spectrum, weighted=not args.unweighted)
    classification = classify_lineshape(spectrum, weighted=not args.unweighted)
    p = fit.params
    _say(args, f"center          {p.center:.6f} meV")
    _say(args, f"gaussian_fwhm   {p.gaussian_fwhm:.6f} meV")
    _say(args, f"lorentzian_fwhm {p.lorentzian_fwhm:.6f} meV")
    _say(args, f"total_fwhm      {fit.total_fwhm:.6f} meV")
    _say(args, f"lineshape       {classification.label} "
               f"(rss ratio {classification.rss_ratio:.3g})")
    if args.output:
        write_result_record({
            "kind": "single_fit",
            "fit": _fit_block(spectrum.temperature, fit),
            "classification": {
                "label": classification.label,
                "rss_gaussian": classification.rss_gaussian,
                "rss_lorentzian": classification.rss_lorentzian,
                "rss_ratio": classification.rss_ratio,
            },
            "provenance": _provenance([args.spectrum]),
        }, args.output)
        _say(args, f"wrote {args.output}")
    return 0


def _write_curves(args, result, t_lo, t_hi):
    os.makedirs(args.curves_dir, exist_ok=True)
    grid = np.arange(max(1.0, math.floor(t_lo)), math.ceil(t_hi) + 0.5, 1.0)
    for row in result.comparisons:
        path = os.path.join(args.curves_dir, f"curve_{row.kind}.csv")
        lines = ["# temperature_K,lorentzian_fwhm_meV,total_fwhm_meV"]
        for t in grid:
            f_l = row.model.lorentzian_fwhm(t)
            lines.append(f"{t:.6g},{f_l:.6g},{voigt_fwhm(result.gaussian_floor, f_l):.6g}")
        _atomic_write_text(path, "\n".join(lines) + "\n")
        _say(args, f"wrote {path}")


def cmd_series(args):
    manifest = load_manifest(args.manifest)
    series = load_series(manifest)
    theta_d = args.theta_d if args.theta_d is not None else manifest.debye_temperature
    phonon_energy = (args.phonon_energy if args.phonon_energy is not None
                     else manifest.phonon_energy)
    result = analyze_series(series, quantity=args.quantity,
                            gaussian_floor=args.fix_fg,
                            debye_temperature=theta_d,
                            phonon_energy=phonon_energy,
                            weighted=not args.unweighted)
    _say(args, f"temperatures    {len(result.per_temperature)}")
    _say(args, f"gaussian_floor  {result.gaussian_floor:.6f} meV")
    _print_comparison(args, result.comparisons)
    _say(args, f"best_model      {result.best_model}")
    if args.output:
        record = {
            "kind": "series_fit",
            "emitter_id": manifest.emitter_id,
            "quantity": result.quantity,
            "gaussian_floor_meV": result.gaussian_floor,
            "per_temperature": [_fit_block(t, f)
                                for t, f in result.per_temperature],
            "models": [_model_block(row) for row in result.comparisons],
            "best_model": result.best_model,
            "provenance": _provenance(
                [args.manifest] + [manifest.resolve(e)
                                   for e in manifest.entries]),
        }
        write_result_record(record, args.output)
        _say(args, f"wrote {args.output}")
    if args.curves_dir:
        temps = [t for t, _ in result.per_temperature]
        _write_curves(args, result, min(temps), max(temps))
    return 0


def _finite(value, where, lineno=None):
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ParseError(f"non-numeric {where}: {value!r}", lineno)
    if not math.isfinite(number):
        raise ParseError(f"non-finite {where}: {value!r}", lineno)
    return number


def _number(text):
    """argparse type of every float flag: a finite number."""
    try:
        return _finite(text, "value")
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _linewidth(value, quantity, where, lineno=None):
    # a total FWHM is positive; a Lorentzian component may sit on its
    # bound of zero, as fits of pure Gaussian lines report it
    number = _finite(value, where, lineno)
    if number < 0 or (quantity == "total" and number == 0):
        raise ParseError(f"invalid {quantity} linewidth {where}: {value!r}",
                         lineno)
    return number


def _load_points(path, quantity):
    """(T, linewidth) pairs from a result record or a bare two-column table;
    every value must be a finite number, a total linewidth positive and a
    Lorentzian one non-negative."""
    try:
        record = load_result_record(path)
    except ParseError:
        record = None
    if isinstance(record, dict):
        blocks = record.get("per_temperature")
        if not isinstance(blocks, list):
            raise ParseError(f"record {path} carries no per-temperature fits")
        key = ("total_fwhm_meV" if quantity == "total"
               else "lorentzian_fwhm_meV")
        points = []
        for i, block in enumerate(blocks):
            if not (isinstance(block, dict) and "temperature_K" in block
                    and key in block):
                raise ParseError(f"record {path}: per_temperature[{i}] "
                                 f"lacks temperature_K or {key}")
            where = f"value in per_temperature[{i}] of {path}"
            points.append((_finite(block["temperature_K"], where),
                           _linewidth(block[key], quantity, where)))
        floor = _finite(record.get("gaussian_floor_meV", 0.0),
                        f"gaussian_floor_meV in {path}")
        return points, floor
    points = []
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split(",")
        if len(parts) != 2:
            raise ParseError("expected 'temperature_K,linewidth_meV'", lineno)
        where = f"field in {text!r}"
        points.append((_finite(parts[0], where, lineno),
                       _linewidth(parts[1], quantity, where, lineno)))
    return points, 0.0


def cmd_compare(args):
    points, record_floor = _load_points(args.input, args.quantity)
    floor = args.fix_fg if args.fix_fg is not None else record_floor
    rows = compare_models(points, kinds=args.models, quantity=args.quantity,
                          gaussian_floor=floor if args.quantity == "total" else 0.0,
                          debye_temperature=args.theta_d,
                          phonon_energy=args.phonon_energy)
    _print_comparison(args, rows)
    if args.output:
        write_result_record({
            "kind": "model_comparison",
            "quantity": args.quantity,
            "gaussian_floor_meV": floor,
            "models": [_model_block(row) for row in rows],
            "best_model": rows[0].kind,
            "provenance": _provenance([args.input]),
        }, args.output)
        _say(args, f"wrote {args.output}")
    return 0


def cmd_simulate(args):
    config = SimulationConfig(sigma=args.sigma, gamma=args.gamma,
                              correlation_rate=args.correlation_rate,
                              t_max=args.t_max, dt=args.dt,
                              n_trajectories=args.n_traj, seed=args.seed)
    trace = mc_coherence(config)
    spectrum = spectrum_from_coherence(trace, args.center)
    lines = ["# t_ps,g_real,g_imag,stderr"]
    for t, g, se in zip(trace.t, trace.g, trace.stderr):
        lines.append(f"{t:.9g},{g.real:.9g},{g.imag:.9g},{se:.9g}")
    _atomic_write_text(args.output_coherence, "\n".join(lines) + "\n")
    save_spectrum(spectrum, args.output_spectrum)
    _say(args, f"seed            {config.seed}")
    _say(args, f"fwhm            "
               f"{grid_fwhm(spectrum.energy, spectrum.intensity):.6f} meV")
    _say(args, f"wrote {args.output_coherence}")
    _say(args, f"wrote {args.output_spectrum}")
    return 0


def cmd_synth(args):
    if not args.t_step > 0:
        raise ConfigError(f"--t-step must be > 0, got {args.t_step}")
    t_stop = args.t_stop + 1e-9
    # np.arange's length, checked before it allocates (inf on overflow)
    if (t_stop - args.t_start) / args.t_step > _MAX_SYNTH_TEMPERATURES:
        raise ConfigError(f"--t-step {args.t_step:g} gives more than "
                          f"{_MAX_SYNTH_TEMPERATURES} temperatures")
    model = make_model(args.model, args.amplitude, debye_temperature=args.theta_d,
                       phonon_energy=args.phonon_energy)
    temperatures = np.arange(args.t_start, t_stop, args.t_step)
    manifest_path = generate_synthetic_series(
        args.out_dir, model, gaussian_floor=args.fg,
        temperatures=temperatures, peak_snr=args.snr,
        n_points=args.n_points, seed=args.seed, emitter_id=args.emitter_id)
    _say(args, f"wrote {len(temperatures)} spectra under {args.out_dir}")
    _say(args, f"wrote {manifest_path}")
    return 0


def _build_parser():
    parser = _Parser(prog="zplkit",
                     description="Lineshape analysis and dephasing-model "
                                 "fitting for quantum-emitter spectra.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--quiet", action="store_true",
                       help="suppress the human-readable summary")

    def add_model_flags(p):
        p.add_argument("--theta-d", type=_number, default=None, metavar="K",
                       help="Debye temperature (default 600, or manifest value)")
        p.add_argument("--phonon-energy", type=_number, default=None,
                       metavar="MEV",
                       help="optical phonon energy (default 18, or manifest value)")
        p.add_argument("--fix-fg", type=_number, default=None, metavar="MEV",
                       help="fix the Gaussian floor instead of estimating it")
        p.add_argument("--quantity", choices=("total", "lorentzian"),
                       default="total",
                       help="which linewidth the models are fitted to")

    p = sub.add_parser("fit", help="fit one spectrum and classify its shape")
    p.add_argument("spectrum", help="spectrum file (energy_meV,intensity)")
    p.add_argument("--output", help="write a JSON result record here")
    p.add_argument("--temperature", type=_number, default=None,
                   help="override the temperature tag")
    p.add_argument("--unweighted", action="store_true",
                   help="disable Poisson weighting")
    add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("series",
                       help="fit a temperature series and rank models")
    p.add_argument("manifest", help="series manifest (JSON)")
    p.add_argument("--output", help="write a JSON result record here")
    p.add_argument("--curves-dir",
                   help="write per-model 1 K-step curve files here")
    p.add_argument("--unweighted", action="store_true")
    add_model_flags(p)
    add_common(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("compare",
                       help="rank models on a result record or T,linewidth table")
    p.add_argument("input", help="result record (JSON) or two-column table")
    p.add_argument("--models", nargs="+", choices=MODEL_KINDS,
                   default=list(MODEL_KINDS))
    p.add_argument("--output", help="write a JSON result record here")
    add_model_flags(p)
    add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate",
                       help="Monte-Carlo coherence and its FFT spectrum")
    p.add_argument("--sigma", type=_number, required=True,
                   help="frequency-modulation strength, 1/ps")
    p.add_argument("--gamma", type=_number, required=True,
                   help="homogeneous decay rate, 1/ps")
    p.add_argument("--correlation-rate", type=_number, default=0.0,
                   help="field correlation rate lambda, 1/ps (default 0)")
    p.add_argument("--t-max", type=_number, required=True, help="ps")
    p.add_argument("--dt", type=_number, required=True, help="ps")
    p.add_argument("--n-traj", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--center", type=_number, default=1820.0,
                   help="line center, meV")
    p.add_argument("--output-spectrum", default="simulated_spectrum.csv")
    p.add_argument("--output-coherence", default="simulated_coherence.csv")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("synth", help="generate a seeded synthetic series")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--model", choices=MODEL_KINDS, default="acoustic_debye")
    p.add_argument("--amplitude", type=_number, default=6.82,
                   help="model amplitude, meV (default 6.82)")
    p.add_argument("--theta-d", type=_number, default=None, metavar="K")
    p.add_argument("--phonon-energy", type=_number, default=None, metavar="MEV")
    p.add_argument("--fg", type=_number, default=0.72,
                   help="constant Gaussian floor, meV (default 0.72)")
    p.add_argument("--snr", type=_number, default=30.0,
                   help="peak signal-to-noise; 0 disables noise")
    p.add_argument("--t-start", type=_number, default=10.0)
    p.add_argument("--t-stop", type=_number, default=270.0)
    p.add_argument("--t-step", type=_number, default=20.0)
    p.add_argument("--n-points", type=int, default=1001)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emitter-id", default="synthetic")
    add_common(p)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    # OverflowError: a finite input too large for float arithmetic
    except (FormatError, ConfigError, DomainError, QuadratureError, OverflowError) as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return 1
    except (FitError, InsufficientDecayError) as exc:
        print(f"error: fit: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
