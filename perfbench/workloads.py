"""Workload definitions: per-op inputs derived from the workload seed, and
the output checks each op must pass.

Each workload exists for one reason:

- series_flow: the README quick start (synth -> series -> fit -> compare)
  on a fresh directory per op; it is dominated by Voigt fits on 1001-point
  spectra, so it is where the Faddeeva kernel and the restart cascade show.
- simulate_flow: the README `simulate` config followed by an unweighted
  fit of its spectrum; it is dominated by the Monte-Carlo step loop and
  exercises the lineshape/optimizer code in the large-array regime.
- compare_sweep: `compare` on many small T,linewidth tables whose
  (theta_D, T) keys are all distinct, so every band-integral quadrature is
  cold; it makes no Faddeeva calls and is the bypass workload for any
  Voigt-kernel change.

The true values used by the checks are computed here from first principles,
never through zplkit.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

WORKLOADS = ("series_flow", "simulate_flow", "compare_sweep")

# Traced runs cover a fixed number of ops, so their per-op counts do not
# depend on how fast the code is.
TRACED_OPS = {"series_flow": 8, "simulate_flow": 3, "compare_sweep": 300}

# Upper bound on compare_sweep ops per measured second; tables are written
# before the timed process starts, so the pool must outlast the run.
COMPARE_TABLES_PER_SECOND = 300

BOLTZMANN_MEV_PER_K = 8.617333262e-2
HBAR_MEV_PS = 6.582119569e-1
REFERENCE_T = 270.0

# README quick start: `zplkit synth` defaults
SERIES_FLOOR = 0.72
SERIES_AMPLITUDE = 6.82

# README `simulate` config, rates in 1/ps and times in ps
SIM_SIGMA = 0.46
SIM_GAMMA = 5.2
SIM_ARGS = ["--sigma", "0.46", "--gamma", "5.2", "--correlation-rate", "0.005",
            "--t-max", "3.6", "--dt", "0.002", "--n-traj", "10000"]

COMPARE_FLOOR = 0.72
COMPARE_POINTS = 24

TOLERANCE = {
    "series_relative": 0.05,
    "simulate_fwhm_relative": 0.01,
    "simulate_coherence_z": 4.0,
    "compare_relative": 0.05,
}


def op_seed(workload, seed, op):
    """Per-op seed derived from the workload seed for measured ops (ints).

    The set-up op ('setup-0') gets the same inputs in every run: one op's
    cost varies by tens of percent with its inputs, and set-up time should
    vary only with the code and the machine.
    """
    key = (f"{workload}:{op}" if isinstance(op, str)
           else f"{workload}:{seed}:{op}")
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def op_name(op):
    return op if isinstance(op, str) else f"op-{op:06d}"


class CheckFailed(Exception):
    """An op ran but its output is wrong."""


def _relative_error(value, truth):
    return abs(value - truth) / abs(truth)


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# series_flow
# ---------------------------------------------------------------------------

def _series_steps(workload_seed, op):
    s = str(op_seed("series_flow", workload_seed, op))
    return [
        ["synth", "--out-dir", "demo", "--seed", s],
        ["series", "demo/series.json", "--output", "record.json",
         "--curves-dir", "curves"],
        ["fit", "demo/spectrum_00_10K.csv"],
        ["compare", "record.json", "--output", "compare.json"],
    ]


def _model_amplitude(record, kind):
    for model in record["models"]:
        if model["kind"] == kind:
            return model["params"]["amplitude"]
    raise CheckFailed(f"record has no {kind} model")


def _series_check(op_dir, op, outputs, truth):
    tol = TOLERANCE["series_relative"]
    record = _load_json(os.path.join(op_dir, "record.json"))
    floor = record["gaussian_floor_meV"]
    _require(_relative_error(floor, SERIES_FLOOR) <= tol,
             f"gaussian floor {floor} vs {SERIES_FLOOR}")
    amplitude = _model_amplitude(record, "acoustic_debye")
    _require(_relative_error(amplitude, SERIES_AMPLITUDE) <= tol,
             f"acoustic_debye amplitude {amplitude} vs {SERIES_AMPLITUDE}")
    _require(record["best_model"] == "acoustic_debye",
             f"series best_model {record['best_model']}")
    compared = _load_json(os.path.join(op_dir, "compare.json"))
    _require(compared["best_model"] == "acoustic_debye",
             f"compare best_model {compared['best_model']}")


# ---------------------------------------------------------------------------
# simulate_flow
# ---------------------------------------------------------------------------

def _simulate_steps(workload_seed, op):
    s = str(op_seed("simulate_flow", workload_seed, op))
    return [
        ["simulate", *SIM_ARGS, "--seed", s],
        ["fit", "simulated_spectrum.csv", "--unweighted"],
    ]


def analytic_voigt_fwhm(gaussian_fwhm, lorentzian_fwhm):
    """Olivero-Longbothum total FWHM (better than 0.03%)."""
    return 0.5346 * lorentzian_fwhm + np.sqrt(
        0.2166 * lorentzian_fwhm ** 2 + gaussian_fwhm ** 2)


def _simulate_check(op_dir, op, outputs, truth):
    # static limit: Gaussian of std hbar*sigma, Lorentzian of HWHM hbar*gamma
    f_g = 2.0 * math.sqrt(2.0 * math.log(2.0)) * HBAR_MEV_PS * SIM_SIGMA
    f_l = 2.0 * HBAR_MEV_PS * SIM_GAMMA
    expected = analytic_voigt_fwhm(f_g, f_l)
    fitted = None
    for line in outputs[1].splitlines():
        if line.startswith("total_fwhm"):
            fitted = float(line.split()[1])
    _require(fitted is not None, "fit printed no total_fwhm")
    _require(_relative_error(fitted, expected)
             <= TOLERANCE["simulate_fwhm_relative"],
             f"fitted total FWHM {fitted} vs analytic {expected:.6f}")
    worst = 0.0
    path = os.path.join(op_dir, "simulated_coherence.csv")
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            t, g_re, g_im, se = (float(v) for v in line.split(","))
            static = math.exp(-0.5 * (SIM_SIGMA * t) ** 2 - SIM_GAMMA * t)
            dev = math.hypot(g_re - static, g_im)
            if se > 0:
                worst = max(worst, dev / se)
            else:
                _require(dev == 0.0, f"coherence at t={t} has no error bar")
    _require(worst <= TOLERANCE["simulate_coherence_z"],
             f"coherence {worst:.2f} stderr from the static limit")


# ---------------------------------------------------------------------------
# compare_sweep
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(200)


def reduced_debye(x_max):
    """Integral of t^2 e^t/(e^t-1)^2 on [0, x_max] for an array of limits,
    by 200-point Gauss-Legendre on [0, min(x_max, 60)] (the rest is below
    1e-22)."""
    upper = np.minimum(np.asarray(x_max, dtype=float), 60.0)[..., None]
    t = 0.5 * upper * (_GL_NODES + 1.0)
    e = np.expm1(t)
    ratio = t / e
    return 0.5 * upper[..., 0] * (ratio * ratio * (e + 1.0) @ _GL_WEIGHTS)


def _compare_table(workload_seed, op):
    """Inputs and truth of one compare table, drawn from the op seed."""
    rng = np.random.default_rng(op_seed("compare_sweep", workload_seed, op))
    kind = "acoustic_debye" if rng.random() < 0.5 else "optical_mode"
    theta = f"{rng.uniform(250.0, 750.0):.6f}"
    e0 = f"{rng.uniform(10.0, 30.0):.3f}"
    amplitude = round(float(rng.uniform(3.0, 9.0)), 4)
    grid = rng.choice(np.arange(100, 3001), size=COMPARE_POINTS, replace=False)
    temps = np.sort(grid) / 10.0
    if kind == "acoustic_debye":
        th = float(theta)
        basis = ((temps / REFERENCE_T) ** 3 * reduced_debye(th / temps)
                 / reduced_debye(np.array([th / REFERENCE_T]))[0])
    else:
        n = 1.0 / np.expm1(float(e0) / (BOLTZMANN_MEV_PER_K * temps))
        basis = n * (n + 1.0)
    total = analytic_voigt_fwhm(COMPARE_FLOOR, amplitude * basis)
    noisy = total * (1.0 + 0.01 * rng.standard_normal(COMPARE_POINTS))
    lines = ["# temperature_K,linewidth_meV"]
    lines += [f"{t:.1f},{y:.8g}" for t, y in zip(temps, noisy)]
    truth = {"kind": kind, "amplitude": amplitude, "theta_d": theta,
             "phonon_energy": e0}
    return "\n".join(lines) + "\n", truth


def _compare_prepare(workload_seed, ops, inputs_dir):
    tables = os.path.join(inputs_dir, "tables")
    os.makedirs(tables, exist_ok=True)
    for op in ops:
        text, truth = _compare_table(workload_seed, op)
        with open(os.path.join(tables, op_name(op) + ".csv"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        # one truth file per table, so a worker holds only its own op's
        with open(os.path.join(tables, op_name(op) + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump(truth, fh)


def _compare_table_path(inputs_dir, op):
    return os.path.join(inputs_dir, "tables", op_name(op) + ".csv")


def _compare_steps(workload_seed, op, inputs_dir, t):
    return [["compare", _compare_table_path(inputs_dir, op),
             "--theta-d", t["theta_d"], "--phonon-energy", t["phonon_energy"],
             "--fix-fg", str(COMPARE_FLOOR), "--output", "rec.json"]]


def _compare_check(op_dir, op, outputs, t):
    record = _load_json(os.path.join(op_dir, "rec.json"))
    amplitude = _model_amplitude(record, t["kind"])
    _require(_relative_error(amplitude, t["amplitude"])
             <= TOLERANCE["compare_relative"],
             f"{t['kind']} amplitude {amplitude} vs {t['amplitude']}")


def compare_distinct_keys(inputs_dir, op, truth):
    """Distinct band-integral limits theta_D/T one compare op needs, the
    reference temperature included: with a cold cache, one quadrature each."""
    theta = float(truth["theta_d"])
    keys = {theta / REFERENCE_T}
    with open(_compare_table_path(inputs_dir, op), "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                keys.add(theta / float(line.split(",")[0]))
    return len(keys)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def prepare(workload, workload_seed, ops, inputs_dir):
    """Write the inputs the given ops read, before any timed process
    starts.  Only compare_sweep reads files it did not write itself."""
    os.makedirs(inputs_dir, exist_ok=True)
    if workload == "compare_sweep":
        _compare_prepare(workload_seed, ops, inputs_dir)


def has_input(workload, inputs_dir, op):
    """False once compare_sweep has used every table written for it."""
    return (workload != "compare_sweep"
            or os.path.exists(_compare_table_path(inputs_dir, op)))


def load_truth(workload, inputs_dir, op):
    """The true values behind one op's inputs, where the benchmark drew
    them (compare_sweep); None otherwise."""
    if workload == "compare_sweep":
        return _load_json(os.path.join(inputs_dir, "tables",
                                       op_name(op) + ".json"))
    return None


def steps(workload, workload_seed, op, inputs_dir, truth):
    """The CLI argument lists of one op, run in order in a fresh directory."""
    if workload == "series_flow":
        return _series_steps(workload_seed, op)
    if workload == "simulate_flow":
        return _simulate_steps(workload_seed, op)
    return _compare_steps(workload_seed, op, inputs_dir, truth)


def check(workload, op_dir, op, outputs, truth):
    """Raise CheckFailed unless the op's outputs are correct."""
    {"series_flow": _series_check, "simulate_flow": _simulate_check,
     "compare_sweep": _compare_check}[workload](op_dir, op, outputs, truth)
