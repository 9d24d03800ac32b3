"""Command-line front end: fit, series, compare, simulate, synth."""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, FitError, ParseError, ZplkitError
from .fitting import (_initial_guess, analyze_series, classify_lineshape,
                      compare_models, fit_voigt, lorentzian_parts)
from .io_formats import (_finite, _write_table, generate_synthetic_series,
                         load_linewidths, load_manifest, load_series,
                         load_spectrum, model_comparison_record, save_spectrum,
                         series_fit_record, single_fit_record,
                         write_result_record)
from .lineshape import grid_fwhm, voigt_fwhm
from .physics import MODEL_KINDS, SHAPE_DEFAULTS, check_shape, make_model
from .simulate import SimulationConfig, mc_coherence, spectrum_from_coherence


_MAX_SYNTH_TEMPERATURES = 1000  # most spectra one `synth` run may write
_MAX_CURVE_POINTS = 10_000  # most 1 K-step rows of a `series` curve file
_SYNTH_DEFAULTS = generate_synthetic_series.__kwdefaults__  # of `synth` flags


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: usage: {message}", file=sys.stderr)
        raise SystemExit(1)


def _say(args, text):
    if not args.quiet:
        print(text)


def _shape(args, fallback=None):
    """The shape flags as make_model keywords, each checked even where the
    chosen models do not take it; a flag left out takes its value in
    `fallback` (the settings the input recorded), if it holds one."""
    shape = {name: getattr(args, name) if getattr(args, name) is not None
             else (fallback or {}).get(name) for name in SHAPE_DEFAULTS}
    for name, value in shape.items():
        if value is not None:
            check_shape(name, value)
    return shape


def _print_comparison(args, rows):
    _say(args, f"{'model':<16}{'rss':>14}{'aic':>12}{'delta_aic':>12}")
    for row in rows:
        _say(args, f"{row.kind:<16}{row.rss:>14.6g}{row.aic:>12.4f}"
                   f"{row.delta_aic:>12.4f}")


def cmd_fit(args):
    spectrum = load_spectrum(args.spectrum, temperature=args.temperature)
    init = _initial_guess(spectrum)  # the one start of all three fits
    fit = fit_voigt(spectrum, init, weighted=not args.unweighted)
    classification = classify_lineshape(spectrum, not args.unweighted, init)
    p = fit.params
    _say(args, f"center          {p.center:.6f} meV")
    _say(args, f"gaussian_fwhm   {p.gaussian_fwhm:.6f} meV")
    _say(args, f"lorentzian_fwhm {p.lorentzian_fwhm:.6f} meV")
    _say(args, f"total_fwhm      {fit.total_fwhm:.6f} meV")
    _say(args, f"lineshape       {classification.label} "
               f"(rss ratio {classification.rss_ratio:.3g})")
    if args.output:
        write_result_record(single_fit_record(args.spectrum, spectrum, fit,
                                              classification), args.output)
        _say(args, f"wrote {args.output}")
    return 0


def _write_curves(args, result, grid):
    os.makedirs(args.curves_dir, exist_ok=True)
    for row in result.comparisons:
        path = os.path.join(args.curves_dir, f"curve_{row.kind}.csv")
        f_l = np.array([row.model.lorentzian_fwhm(t) for t in grid])
        _write_table(path, ["# temperature_K,lorentzian_fwhm_meV,total_fwhm_meV"],
                     (grid, f_l, voigt_fwhm(result.gaussian_floor, f_l)))
        _say(args, f"wrote {path}")


def cmd_series(args):
    manifest = load_manifest(args.manifest)
    shape = _shape(args, manifest.shape)
    series = load_series(manifest)
    if args.curves_dir:  # the curves' 1 K grid, bounded before any fit
        temps = [s.temperature for s in series]
        start = max(1.0, math.floor(min(temps, default=1.0)))
        stop = math.ceil(max(temps, default=0.0)) + 0.5
        if stop - start > _MAX_CURVE_POINTS:  # np.arange's length
            raise ConfigError(f"--curves-dir: {min(temps):g} K to "
                              f"{max(temps):g} K takes more than "
                              f"{_MAX_CURVE_POINTS} 1 K steps")
        grid = np.arange(start, stop, 1.0)
    result = analyze_series(series, quantity=args.quantity,
                            gaussian_floor=args.fix_fg,
                            weighted=not args.unweighted, **shape)
    _say(args, f"temperatures    {len(result.per_temperature)}")
    _say(args, f"gaussian_floor  {result.gaussian_floor:.6f} meV")
    _print_comparison(args, result.comparisons)
    _say(args, f"best_model      {result.best_model}")
    if args.output:
        write_result_record(series_fit_record(args.manifest, manifest, series,
                                              result, args.quantity),
                            args.output)
        _say(args, f"wrote {args.output}")
    if args.curves_dir:
        _write_curves(args, result, grid)
    return 0


def _number(text):
    """argparse type of every float flag: a finite number."""
    try:
        return _finite(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def cmd_compare(args):
    points, recorded, digest = load_linewidths(args.input,
                                               args.quantity or "total")
    quantity = args.quantity or recorded.get("quantity", "total")
    floor = (args.fix_fg if args.fix_fg is not None
             else recorded.get("gaussian_floor", 0.0))
    if recorded and quantity == "lorentzian":
        points = lorentzian_parts(points, floor)  # a record holds totals
    rows = compare_models(points, kinds=args.models, quantity=quantity,
                          gaussian_floor=floor, **_shape(args, recorded))
    _print_comparison(args, rows)
    if args.output:
        write_result_record(model_comparison_record(
            args.input, digest, rows, quantity, floor), args.output)
        _say(args, f"wrote {args.output}")
    return 0


def cmd_simulate(args):
    config = SimulationConfig(sigma=args.sigma, gamma=args.gamma,
                              correlation_rate=args.correlation_rate,
                              t_max=args.t_max, dt=args.dt,
                              n_trajectories=args.n_traj, seed=args.seed)
    trace = mc_coherence(config)
    spectrum = spectrum_from_coherence(trace, args.center)
    _write_table(args.output_coherence, ["# t_ps,g_real,g_imag,stderr"],
                 (trace.t, trace.g.real, trace.g.imag, trace.stderr), digits=9)
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
    shape = _shape(args)
    model = make_model(args.model, args.amplitude, gaussian_floor=args.fg,
                       **shape)
    temperatures = np.arange(args.t_start, t_stop, args.t_step)
    manifest_path, sizes = generate_synthetic_series(
        args.out_dir, model, shape=shape,
        temperatures=temperatures, peak_snr=args.snr,
        n_points=args.n_points, seed=args.seed, emitter_id=args.emitter_id)
    counts = (f"{min(sizes)}" if min(sizes) == max(sizes)
              else f"{min(sizes)}-{max(sizes)}")
    _say(args, f"wrote {len(temperatures)} spectra ({counts} points) "
               f"under {args.out_dir}")
    _say(args, f"wrote {manifest_path}")
    return 0


# Built at the first `main()` call, not at import, so `set_defaults(func=...)`
# binds the `cmd_*` functions the module holds then; one parser serves every
# later call in the process.
@functools.cache
def _build_parser():
    parser = _Parser(prog="zplkit",
                     description="Lineshape analysis and dephasing-model "
                                 "fitting for quantum-emitter spectra.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--quiet", action="store_true",
                       help="suppress the human-readable summary")

    def add_shape_flags(p):
        p.add_argument("--theta-d", type=_number, default=None, metavar="K",
                       dest="debye_temperature",
                       help="Debye temperature (default "
                            f"{SHAPE_DEFAULTS['debye_temperature']:g})")
        p.add_argument("--phonon-energy", type=_number, default=None,
                       metavar="MEV", dest="phonon_energy",
                       help="optical phonon energy (default "
                            f"{SHAPE_DEFAULTS['phonon_energy']:g})")

    def add_model_flags(p):
        add_shape_flags(p)
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
    p.add_argument("manifest", help="series manifest (JSON); its values "
                                    "stand in for shape flags left out")
    p.add_argument("--output", help="write a JSON result record here")
    p.add_argument("--curves-dir",
                   help="write per-model 1 K-step curve files here")
    p.add_argument("--unweighted", action="store_true")
    add_model_flags(p)
    add_common(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("compare",
                       help="rank models on a result record or T,linewidth table")
    p.add_argument("input", help="result record (JSON), whose values stand in "
                                 "for flags left out, or two-column table")
    p.add_argument("--models", nargs="+", choices=MODEL_KINDS,
                   default=tuple(MODEL_KINDS))
    p.add_argument("--output", help="write a JSON result record here")
    add_model_flags(p)
    add_common(p)
    p.set_defaults(func=cmd_compare, quantity=None)  # a record's, else total

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
    add_shape_flags(p)
    p.add_argument("--fg", type=_number, default=0.72,
                   help="constant Gaussian floor, meV (default 0.72)")
    p.add_argument("--snr", type=_number, default=_SYNTH_DEFAULTS["peak_snr"],
                   help="peak signal-to-noise; 0 disables noise")
    grid = _SYNTH_DEFAULTS["temperatures"]  # evenly spaced
    p.add_argument("--t-start", type=_number, default=grid[0])
    p.add_argument("--t-stop", type=_number, default=grid[-1])
    p.add_argument("--t-step", type=_number, default=grid[1] - grid[0])
    p.add_argument("--n-points", type=int, default=_SYNTH_DEFAULTS["n_points"],
                   help="most points per spectrum; the grid steps in whole "
                        "0.01 meV, so narrow lines get fewer "
                        "(default %(default)s)")
    p.add_argument("--seed", type=int, default=_SYNTH_DEFAULTS["seed"])
    p.add_argument("--emitter-id", default=_SYNTH_DEFAULTS["emitter_id"])
    add_common(p)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        # a float overflow, division by zero or invalid operation raises
        # instead of printing a warning beside the result
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except ArithmeticError as exc:  # numpy's or Python's float errors
        print(f"error: parse: value too large for float arithmetic ({exc})",
              file=sys.stderr)
        return 1
    except FitError as exc:
        print(f"error: fit: {exc}", file=sys.stderr)
        return 2
    except ZplkitError as exc:  # every other package error
        print(f"error: parse: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
