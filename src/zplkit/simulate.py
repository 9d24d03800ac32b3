"""Forward simulation of a dephasing two-level emitter.

Coherence decay g(t) = <exp(i*phase)> * exp(-gamma*t) under a stationary
exponentially-correlated (Gauss-Markov) frequency modulation of strength
`sigma`, plus its exact Kubo form and an FFT route from coherence to an
emission spectrum.  Units: rates in 1/ps, times in ps, energies in meV.
"""

from __future__ import annotations

import contextvars
import operator
import os
import threading
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError, InsufficientDecayError
from .fitting import Spectrum
from .physics import HBAR_MEV_PS

__all__ = ["SimulationConfig", "CoherenceTrace", "analytic_coherence",
           "spectrum_from_coherence", "mc_coherence", "simulate_spectrum"]

_PAD_FACTOR = 8  # zero padding of the symmetric trace before the FFT
_DECAY_REQUIRED = 1e-6
_BLOCK = 1024  # Monte-Carlo trajectories per random stream
_STEP_CHUNK = 16  # time steps drawn and reduced together
_MAX_STEPS = 10 ** 6  # time steps per run; keeps the FFT buffers near 256 MB


@dataclass(frozen=True)
class SimulationConfig:
    """Stochastic-emitter run: rates, time grid, ensemble size, seed.

    sigma is the frequency-modulation strength (1/ps), gamma the homogeneous
    decay rate (1/ps), correlation_rate the inverse correlation time of the
    modulating field (1/ps).
    """

    sigma: float
    gamma: float
    correlation_rate: float
    t_max: float
    dt: float
    n_trajectories: int
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0 or self.gamma < 0 or self.correlation_rate < 0:
            raise ConfigError("rates must be non-negative")
        if self.sigma + self.gamma <= 0:
            raise ConfigError("need a decay channel: sigma + gamma > 0")
        if not self.dt > 0:
            raise ConfigError("dt must be > 0")
        fastest = max(self.sigma, self.gamma, self.correlation_rate)
        if fastest > 0 and self.dt > 0.1 / fastest:
            raise ConfigError(
                f"dt = {self.dt} too coarse; need dt <= {0.1 / fastest:.4g} "
                "to resolve the fastest rate")
        if self.t_max < 20.0 / (self.sigma + self.gamma):
            raise ConfigError(
                f"t_max = {self.t_max} too short; need >= "
                f"{20.0 / (self.sigma + self.gamma):.4g} for full decay")
        if not self.t_max / self.dt <= _MAX_STEPS:
            raise ConfigError(
                f"t_max/dt = {self.t_max / self.dt:.4g} steps; at most "
                f"{_MAX_STEPS} are allowed")
        for name in ("n_trajectories", "seed"):
            try:
                object.__setattr__(self, name,
                                   operator.index(getattr(self, name)))
            except TypeError:
                raise ConfigError(f"{name} must be an integer") from None
        if self.n_trajectories < 1:
            raise ConfigError("n_trajectories must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in 64 bits")

    @property
    def n_steps(self):
        return int(round(self.t_max / self.dt))

    @property
    def t_grid(self):
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class CoherenceTrace:
    """Coherence g(t) on a time grid; stderr present for Monte-Carlo traces."""

    t: np.ndarray
    g: np.ndarray
    stderr: Optional[np.ndarray] = None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        g = np.asarray(self.g, dtype=complex)
        if t.ndim != 1 or t.size < 2 or t[0] != 0 or np.any(np.diff(t) <= 0):
            raise DomainError("time grid must start at 0 and ascend")
        if g.shape != t.shape:
            raise DomainError("g must match the time grid")
        if g[0] != 1.0:
            raise DomainError("coherence must start at exactly 1")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "g", g)
        if self.stderr is not None:
            se = np.asarray(self.stderr, dtype=float)
            if se.shape != t.shape or np.any(se < 0):
                raise DomainError("stderr must be non-negative, same shape")
            object.__setattr__(self, "stderr", se)
        bound = 1.0 if self.stderr is None else 1.0 + 3.0 * self.stderr
        if np.any(np.abs(g) > bound + 1e-12):
            raise DomainError("coherence magnitude exceeds 1 beyond its "
                              "statistical error")


def analytic_coherence(sigma, gamma, t_grid,
                       correlation_rate=None) -> CoherenceTrace:
    """Exact coherence under Gauss-Markov modulation, times exp(-gamma |t|).

    Kubo's form exp[-(sigma/lam)^2 (lam|t| - 1 + exp(-lam|t|))] for
    correlation rate lam; None or 0 gives the static exp(-sigma^2 t^2 / 2).
    """
    lam = correlation_rate or 0.0
    if sigma < 0 or gamma < 0 or lam < 0:
        raise DomainError("rates must be non-negative")
    t = np.asarray(t_grid, dtype=float)
    x = lam * np.abs(t)
    # (x - 1 + e^-x) / x^2, by its Taylor series where expm1 would cancel
    shape = 0.5 - x / 6.0 + x * x / 24.0 - x ** 3 / 120.0
    big = x >= 3e-3
    shape[big] = (x[big] + np.expm1(-x[big])) / x[big] ** 2
    g = np.exp(-(sigma * t) ** 2 * shape) * np.exp(-gamma * np.abs(t))
    return CoherenceTrace(t=t, g=g.astype(complex))


def spectrum_from_coherence(trace, center) -> Spectrum:
    """Emission spectrum as the Fourier transform of the coherence.

    Uses the even extension g(-t) = conj(g(t)), zero-pads the symmetric
    signal by x8, converts the frequency axis to meV via hbar, clips
    negative transform ripple at zero, and normalizes to unit area.

    The trace must have decayed below 1e-6 by t_max; a Monte-Carlo trace
    can never beat its own noise floor, so for those the tail only has to
    be consistent with pure ensemble noise (within 4 standard errors).
    """
    t = trace.t
    g = trace.g
    dt = t[1] - t[0]
    if not np.allclose(np.diff(t), dt, rtol=1e-9, atol=0.0):
        raise DomainError("coherence grid must be uniform for the FFT")
    tail = abs(g[-1])
    allowed = _DECAY_REQUIRED
    if trace.stderr is not None:
        allowed = max(allowed, 4.0 * float(trace.stderr[-1]))
    if tail > allowed:
        raise InsufficientDecayError(
            f"|g(t_max)| = {tail:.3e} exceeds {allowed:.3e}; "
            "extend t_max to avoid windowing error")
    n = g.size
    m = 2 * _PAD_FACTOR * n
    padded = np.zeros(m, dtype=complex)
    padded[:n] = g
    padded[m - n + 1:] = np.conj(g[1:])[::-1]
    raw = (dt * np.fft.fft(padded)).real
    # m is even, so fftshift puts the frequencies in ascending order
    omega = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(m, d=dt))
    energy = center + HBAR_MEV_PS * omega
    intensity = np.clip(np.fft.fftshift(raw), 0.0, None)
    area = np.trapezoid(intensity, energy)
    if not area > 0:
        raise DomainError("transformed spectrum has no positive weight")
    return Spectrum(energy=energy, intensity=intensity / area,
                    temperature=0.0, emitter_id="simulated")


def _usable_cpus():
    """CPUs this process may run on (the affinity mask where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _chunk_matrix(steps, rho, kick):
    """The (steps+1, steps+2) matrix taking a trajectory's [phase; field;
    the chunk's `steps` unit normals] to its `steps` next phases and its
    last field: the trapezoid/AR(1) recurrence applied to coefficient rows."""
    matrix = np.empty((steps + 1, steps + 2))
    phase, field = np.eye(2, steps + 2)
    for s in range(steps):
        phase = phase + field
        field = rho * field
        field[2 + s] += kick
        phase = matrix[s] = phase + field
    matrix[steps] = field
    return matrix


def _half_angle_sine(phase, out, scratch):
    """sin(phase/2) in float32, into `out`; `phase` is overwritten.  The
    phase is reduced mod 2 pi in float64, in turns t - rint(t) (exact)."""
    np.multiply(phase, 0.5 / np.pi, out=phase)
    np.subtract(phase, np.rint(phase, out=scratch), out=phase)
    np.multiply(phase, np.pi, out=out)
    return np.sin(out, out=out)


def _block_sums(config, block, stop):
    """Per-step sums of s^2 and s^4, s = sin(phase/2), over the trajectories
    of block number `block`: an array (2, n_pts).  Returns None, unfinished,
    once the event `stop` is set."""
    n_pts = config.n_steps + 1
    rho = np.exp(-config.correlation_rate * config.dt)
    half_dt_sigma = 0.5 * config.dt * config.sigma
    kick = half_dt_sigma * np.sqrt(max(0.0, 1.0 - rho * rho))
    width = min(_BLOCK, config.n_trajectories - block * _BLOCK)
    gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(
        entropy=config.seed, spawn_key=(block,))))
    chunk = min(_STEP_CHUNK, n_pts - 1)
    full = _chunk_matrix(chunk, rho, kick)
    # rows [phase; field (kept scaled by dt*sigma/2); normals]
    inputs = np.zeros((chunk + 2, width))  # the phase starts at 0
    outputs = np.empty((chunk + 1, width))
    sine = np.empty((chunk, width), dtype=np.float32)
    squares = np.empty(sine.shape)
    sums = np.zeros((2, n_pts))
    gen.standard_normal(out=inputs[1])  # stationary start
    inputs[1] *= half_dt_sigma
    for k0 in range(1, n_pts, chunk):
        if stop.is_set():
            return None
        steps = min(chunk, n_pts - k0)
        matrix = full if steps == chunk else _chunk_matrix(steps, rho, kick)
        gen.standard_normal(out=inputs[2:steps + 2])
        out = np.matmul(matrix, inputs[:steps + 2], out=outputs[:steps + 1])
        inputs[:2] = out[steps - 1:]
        s = _half_angle_sine(out[:steps], sine[:steps], squares[:steps])
        sq = np.square(s, out=squares[:steps], dtype=np.float64)
        np.add.reduce(sq, axis=-1, out=sums[0, k0:k0 + steps])
        # s^4 goes into the spent phase rows
        np.add.reduce(np.square(sq, out=out[:steps]), axis=-1,
                      out=sums[1, k0:k0 + steps])
    return sums


def mc_coherence(config) -> CoherenceTrace:
    """Monte-Carlo coherence from exact Gauss-Markov field trajectories.

    The unit-variance field takes the exact step e' = rho*e + sqrt(1-rho^2)*xi
    with rho = exp(-correlation_rate*dt); the phase follows by the trapezoid
    rule.  Block b of _BLOCK trajectories (the last may hold fewer) draws
    from an SFC64 stream seeded by SeedSequence(entropy=seed,
    spawn_key=(b,)), _STEP_CHUNK steps at a time, into the rows [phase;
    field; normals] that one matrix product per chunk takes to the chunk's
    phases and last field; the chunk matrix is the recurrence applied to
    coefficient rows.  Each block is one task on a pool of min(usable CPUs,
    blocks) threads, run in a copy of the caller's context (numpy's
    floating-point error state included); at most 2 * threads blocks are
    submitted ahead of the fold, and the caller adds their sums in block
    order, so results do not depend on the thread count.  The earliest
    failing block stops those still running at their next chunk, and its
    exception is raised here once every thread has finished.  OpenBLAS
    runs the 16-step product on the calling thread, so the pool is not
    oversubscribed: with OPENBLAS_NUM_THREADS unset, its own thread took no
    CPU time over five README-config runs (OpenBLAS 0.3.31, 2 cores).

    The zero-mean Gaussian phase is symmetric, so Im g is exactly 0 and only
    Re g = <cos(phase)> is estimated, through u = 1 - cos(phase) = 2 s^2,
    s = sin(phase/2): the phase is reduced mod 2 pi in float64, s is taken
    by numpy's float32 SIMD sine and squared exactly in float64.  Each u is
    within 5e-7*u + 2^-50*|phase| of its exact value; the mean bias, near
    2e-9 relative, is far below the stderr for any n under 1e8.  g = 1 -
    mean(u), and stderr is that of the real mean, sqrt(var(u)/(n - 1)) with
    var(u) = mean(u^2) - mean(u)^2 (u keeps that difference free of the
    cancellation it would suffer on cos itself)."""
    n_pts = config.n_steps + 1
    n_traj = config.n_trajectories
    n_blocks = -(-n_traj // _BLOCK)
    n_workers = min(_usable_cpus(), n_blocks)
    sums = np.zeros((2, n_pts))  # sums of s^2 = u/2 and of s^4 = u^2/4
    stop = threading.Event()
    from concurrent.futures import ThreadPoolExecutor  # costly at CLI start
    with ThreadPoolExecutor(n_workers) as pool:
        # submitted as others are folded: at most 2 * n_workers blocks
        # (and their sums) wait behind a slow one
        blocks = (pool.submit(contextvars.copy_context().run, _block_sums,
                              config, b, stop) for b in range(n_blocks))
        try:
            pending = deque(islice(blocks, 2 * n_workers))
            while pending:
                np.add(sums, pending.popleft().result(), out=sums)
                pending.extend(islice(blocks, 1))
        finally:  # a block still running returns at its next chunk
            stop.set()

    mean_u, mean_u2 = 2.0 * sums[0] / n_traj, 4.0 * sums[1] / n_traj
    damp = np.exp(-config.gamma * config.t_grid)
    spread = np.clip(mean_u2 - mean_u * mean_u, 0.0, None)
    stderr = np.sqrt(spread / (n_traj - 1)) if n_traj > 1 else np.zeros(n_pts)
    return CoherenceTrace(t=config.t_grid, g=(1.0 - mean_u) * damp,
                          stderr=stderr * damp)


def simulate_spectrum(config, center) -> Spectrum:
    """Monte-Carlo coherence followed by the FFT route to a spectrum."""
    return spectrum_from_coherence(mc_coherence(config), center)
