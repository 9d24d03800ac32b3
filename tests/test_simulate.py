import dataclasses
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import gauss_markov_discrete_law
from zplkit.errors import ConfigError, DomainError, InsufficientDecayError
from zplkit.fitting import Spectrum, classify_lineshape
from zplkit.lineshape import GAUSSIAN_FWHM_FACTOR, grid_fwhm
from zplkit.physics import HBAR_MEV_PS
from zplkit.simulate import (CoherenceTrace, SimulationConfig,
                             analytic_coherence, mc_coherence,
                             simulate_spectrum, spectrum_from_coherence)


def _config(**kw):
    base = dict(sigma=1.0, gamma=0.0, correlation_rate=0.01, t_max=20.0,
                dt=0.1, n_trajectories=200, seed=0)
    base.update(kw)
    return SimulationConfig(**base)


def test_config_validation():
    _config()  # valid
    with pytest.raises(ConfigError):
        _config(sigma=-1.0)
    with pytest.raises(ConfigError):
        _config(sigma=0.0, gamma=0.0)
    with pytest.raises(ConfigError):
        _config(dt=0.0)
    with pytest.raises(ConfigError):
        _config(dt=0.5)  # coarser than 0.1/max(rates)
    with pytest.raises(ConfigError):
        _config(t_max=5.0)  # shorter than 20/(sigma+gamma)
    with pytest.raises(ConfigError):
        _config(n_trajectories=0)
    _config(t_max=1e5)  # exactly the 10^6-step bound
    for t_max in (1e5 + 1.0, np.inf, np.nan):  # more steps than the bound
        with pytest.raises(ConfigError):
            _config(t_max=t_max)


def test_config_rejects_non_integer_counts():
    for bad in (dict(n_trajectories=100.5), dict(n_trajectories=100.0),
                dict(seed=1.5), dict(seed="3")):
        with pytest.raises(ConfigError, match="must be an integer"):
            _config(**bad)
    for seed in (np.int64(5), np.uint64(2 ** 63)):  # numpy integers stay
        config = _config(n_trajectories=np.int64(300), seed=seed)
        assert (config.n_trajectories, config.seed) == (300, int(seed))
        assert type(config.n_trajectories) is type(config.seed) is int


def test_analytic_coherence_shapes():
    t = np.linspace(0.0, 20.0, 201)
    trace = analytic_coherence(1.0, 0.0, t)
    assert trace.g[0] == 1.0
    assert np.allclose(trace.g.real, np.exp(-0.5 * t * t))
    trace = analytic_coherence(0.0, 0.7, t)
    assert np.allclose(trace.g.real, np.exp(-0.7 * t))
    mags = np.abs(trace.g)
    assert np.all(np.diff(mags) <= 1e-15)


def test_coherence_trace_validation():
    t = np.linspace(0.0, 10.0, 11)
    with pytest.raises(DomainError):
        CoherenceTrace(t=t, g=np.full(11, 0.5, dtype=complex))  # g(0) != 1
    with pytest.raises(DomainError):
        CoherenceTrace(t=t + 1.0, g=np.ones(11, dtype=complex))


def test_spectrum_from_coherence_degenerate_limits():
    # pure exponential -> Lorentzian of FWHM 2*gamma*hbar
    gamma = 0.5
    t = np.arange(0.0, 40.0001, 0.2)
    spec = spectrum_from_coherence(analytic_coherence(0.0, gamma, t), 1800.0)
    measured = grid_fwhm(spec.energy, spec.intensity)
    assert abs(measured - 2 * gamma * HBAR_MEV_PS) / (
        2 * gamma * HBAR_MEV_PS) < 0.01
    # pure Gaussian decay -> Gaussian line
    sigma = 0.7
    t = np.arange(0.0, 30.0001, 0.1)
    spec = spectrum_from_coherence(analytic_coherence(sigma, 0.0, t), 1800.0)
    expected = GAUSSIAN_FWHM_FACTOR * sigma * HBAR_MEV_PS
    assert abs(grid_fwhm(spec.energy, spec.intensity) - expected) / expected < 0.01
    assert np.trapezoid(spec.intensity, spec.energy) == pytest.approx(
        1.0, abs=1e-6)
    assert np.all(spec.intensity >= 0)


@pytest.mark.parametrize("n", [2, 3, 101, 1801])
def test_spectrum_from_coherence_is_the_argsort_ordered_transform(n):
    # the padded length is even, so fftshift gives the ascending order a
    # sort of the frequencies gives
    t = np.arange(n) * 0.01
    trace = analytic_coherence(0.0, 20.0 / t[-1], t)
    spec = spectrum_from_coherence(trace, 1800.0)
    m = 16 * n
    padded = np.zeros(m, dtype=complex)
    padded[:n] = trace.g
    padded[m - n + 1:] = np.conj(trace.g[1:])[::-1]
    raw = (0.01 * np.fft.fft(padded)).real
    omega = 2.0 * np.pi * np.fft.fftfreq(m, d=0.01)
    order = np.argsort(omega)
    energy = 1800.0 + HBAR_MEV_PS * omega[order]
    intensity = np.clip(raw[order], 0.0, None)
    assert np.array_equal(spec.energy, energy)
    assert np.array_equal(spec.intensity,
                          intensity / np.trapezoid(intensity, energy))


def test_spectrum_from_coherence_requires_decay():
    t = np.linspace(0.0, 1.0, 51)
    with pytest.raises(InsufficientDecayError):
        spectrum_from_coherence(analytic_coherence(0.1, 0.1, t), 1800.0)


def test_mc_sigma_zero_is_exact():
    config = _config(sigma=0.0, gamma=0.5, correlation_rate=0.0, t_max=40.0,
                     dt=0.2, n_trajectories=37)
    trace = mc_coherence(config)
    assert np.array_equal(trace.g.real, np.exp(-0.5 * trace.t))
    assert np.all(trace.g.imag == 0.0)
    assert np.all(trace.stderr == 0.0)


def _documented_u(phase):
    # u = 1 - cos(phase) = 2 sin^2(phase/2): phase reduced mod 2 pi in
    # float64, in turns; the sine of pi times the reduced turns in float32
    turns = phase / (2.0 * np.pi)
    half = (np.pi * (turns - np.rint(turns))).astype(np.float32)
    return 2.0 * np.sin(half).astype(np.float64) ** 2


_SUBNORMAL = 5e-324


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(-1e7, 1e7), min_size=1, max_size=64))
@example([0.0, _SUBNORMAL, -_SUBNORMAL, 2.2e-308, -1e-300])
@example([k * np.pi for k in (10 ** 6, 10 ** 6 + 1, 3183098, 3183097,
                              -3183098, 2 ** 21, 2 ** 21 + 1)])
@example([np.nextafter(k * np.pi, np.inf) for k in (3183098, 3183097)])
def test_half_angle_observable_error_bound(phases):
    # u = 1 - cos(phase) from the float32 half-angle sine, against the
    # float64 oracle, within 5e-7 relative plus the reduction's 2^-50*|phase|
    from zplkit import simulate
    phase = np.array(phases)
    out, scratch = np.empty(phase.size, np.float32), np.empty(phase.size)
    s = simulate._half_angle_sine(phase.copy(), out, scratch)
    u = 2.0 * s.astype(np.float64) ** 2
    ref = 2.0 * np.sin(phase / 2.0) ** 2
    assert np.all(np.abs(u - ref) <= 5e-7 * u + 2.0 ** -50 * np.abs(phase))


def test_chunk_matrix_is_the_recurrence():
    # the chunk matrix against the plain trapezoid/AR(1) recurrence, to
    # 1e-14 of the sum of the magnitudes of each result's terms
    from zplkit import simulate
    rng = np.random.default_rng(7)
    cases = [(1.0, 0.0, 16), (1.0, 0.0, 1)]  # lam = 0: rho = 1, no kick
    cases += [(rng.uniform(0.5, 1.0), rng.uniform(0.0, 0.2),
               int(rng.integers(1, 40))) for _ in range(20)]
    for rho, kick, steps in cases:
        matrix = simulate._chunk_matrix(steps, rho, kick)
        assert matrix.shape == (steps + 1, steps + 2)
        x = rng.normal(size=(steps + 2, 50))
        x[0] *= 30.0  # a phase carry well past one turn
        phase, field = x[0].copy(), x[1].copy()
        want = []
        for xi in x[2:]:
            step = phase + field
            field = rho * field + kick * xi
            phase = step + field
            want.append(phase)
        want = np.array(want + [field])
        scale = np.abs(matrix) @ np.abs(x)
        assert np.all(np.abs(matrix @ x - want) <= 1e-14 * scale)
    rho, kick = 0.9, 0.3  # one step is exactly the recurrence's coefficients
    assert np.array_equal(simulate._chunk_matrix(1, rho, kick),
                          [[1.0, 1.0 + rho, kick], [0.0, rho, kick]])


def test_mc_matches_plain_loop_oracle():
    # two blocks, the second partial; every block's documented stream is
    # drawn here step by step and its phases propagated in a plain loop
    from zplkit import simulate
    config = SimulationConfig(sigma=1.0, gamma=1.0, correlation_rate=1.0,
                              t_max=10.0, dt=0.1,
                              n_trajectories=simulate._BLOCK + 37, seed=17)
    n = config.n_trajectories
    rho = np.exp(-config.correlation_rate * config.dt)
    half = 0.5 * config.dt * config.sigma
    kick = half * np.sqrt(1.0 - rho * rho)
    cosines = []
    sum_u = np.zeros(config.n_steps + 1)
    sum_u2 = np.zeros(config.n_steps + 1)
    for b, size in enumerate((simulate._BLOCK, 37)):
        gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(
            entropy=config.seed, spawn_key=(b,))))
        phase = np.zeros(size)
        rows = []
        for k in range(config.n_steps + 1):
            noise = gen.standard_normal(size)
            if k == 0:
                field = noise * half
            else:
                phase = phase + field
                field = field * rho + noise * kick
                phase = phase + field
            rows.append(_documented_u(phase))
        u = np.array(rows)
        cosines.append(1.0 - u)
        # summed the way numpy reduces one row (the order decides the last
        # bit, and 1 - mean(u) cancels where g is small)
        sum_u += u.sum(axis=1)
        sum_u2 += (u * u).sum(axis=1)
    damp = np.exp(-config.gamma * config.t_grid)
    mean_u, mean_u2 = sum_u / n, sum_u2 / n
    g = (1.0 - mean_u) * damp
    stderr = np.sqrt((mean_u2 - mean_u ** 2) / (n - 1)) * damp

    trace = mc_coherence(config)
    assert np.all(trace.g.imag == 0.0)
    np.testing.assert_allclose(trace.g.real, g, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(trace.stderr, stderr, rtol=1e-15, atol=0.0)
    # the standard error of the real mean, from the cosines themselves; one
    # rounding of mean(cos) ~ 1 against var(cos) ~ 5e-5 at the first step
    # bounds the agreement near 1e-12
    c = np.hstack(cosines)
    np.testing.assert_allclose(
        trace.stderr, np.std(c, axis=1, ddof=1) / np.sqrt(n) * damp,
        rtol=1e-12, atol=0.0)


def test_mc_slow_modulation_matches_static_limit():
    config = _config(n_trajectories=4000, seed=21)
    trace = mc_coherence(config)
    analytic = analytic_coherence(config.sigma, config.gamma, trace.t)
    mask = (trace.t > 0) & (trace.t <= 5.0)
    diff = np.abs(trace.g[mask] - analytic.g[mask])
    assert np.all(diff <= 3.0 * trace.stderr[mask])


@pytest.mark.parametrize("sigma, gamma, lam, t_max, dt, n_traj, seed", [
    (1.0, 0.0, 0.01, 20.0, 0.1, 10000, 42),  # criterion 7's configuration
    (1.0, 0.5, 0.5, 14.0, 0.02, 3000, 3),  # with homogeneous decay
    (1.0, 0.0, 10.0, 20.0, 0.01, 4000, 5),  # fast modulation, lam = 10 sigma
])
def test_mc_matches_exact_discrete_law(sigma, gamma, lam, t_max, dt, n_traj,
                                       seed):
    # the law of the simulated phase itself, with no discretization bias:
    # the mean within 4 standard errors at every point, and the reported
    # stderr within 10% of its exact value at every point, 2% in the median
    config = SimulationConfig(sigma=sigma, gamma=gamma, correlation_rate=lam,
                              t_max=t_max, dt=dt, n_trajectories=n_traj,
                              seed=seed)
    trace = mc_coherence(config)
    mean, spread = gauss_markov_discrete_law(sigma, gamma, lam, dt,
                                             config.n_steps)
    mask = trace.t > 0
    assert np.all(np.abs(trace.g.real - mean)[mask]
                  <= 4.0 * trace.stderr[mask])
    ratio = trace.stderr[mask] / (spread[mask] / np.sqrt(n_traj))
    assert np.all(np.abs(ratio - 1.0) < 0.10)
    assert abs(np.median(ratio) - 1.0) < 0.02


def test_analytic_coherence_kubo_limits():
    t = np.linspace(0.0, 20.0, 201)
    static = analytic_coherence(1.0, 0.3, t).g
    assert np.array_equal(analytic_coherence(1.0, 0.3, t, 0.0).g, static)
    # slow modulation: the static limit, off by at most lam*t^3/6 in the
    # exponent
    slow = analytic_coherence(1.0, 0.3, t, correlation_rate=1e-6).g
    assert np.max(np.abs(slow - static)) < 1e-6
    # fast modulation: motional narrowing to exp(-sigma^2 t / lam)
    lam = 1e4
    fast = analytic_coherence(1.0, 0.3, t, correlation_rate=lam).g
    narrowed = np.exp(-t / lam - 0.3 * t)
    assert np.allclose(fast.real, narrowed, rtol=2.0 / lam ** 2, atol=0.0)
    with pytest.raises(DomainError):
        analytic_coherence(1.0, 0.0, t, correlation_rate=-1.0)


def test_mc_seed_sweep_exceedances_are_gaussian():
    # one late time, many seeds: against the exact discrete law, z exceeds
    # 2 in magnitude at a rate inside the binomial 99.9% band around the
    # Gaussian 4.55%, and the mean z lies within 4/sqrt(n) of 0
    n_seeds, late = 200, 40
    config = _config(correlation_rate=0.5, n_trajectories=400)
    mean, spread = gauss_markov_discrete_law(
        config.sigma, config.gamma, config.correlation_rate, config.dt,
        config.n_steps)
    g = np.array([mc_coherence(dataclasses.replace(config, seed=seed)).g[late]
                  for seed in range(n_seeds)]).real
    z = (g - mean[late]) / (spread[late] / np.sqrt(config.n_trajectories))
    p = math.erfc(2.0 / math.sqrt(2.0))
    cdf = np.cumsum([math.comb(n_seeds, k) * p ** k * (1 - p) ** (n_seeds - k)
                     for k in range(n_seeds + 1)])
    low, high = np.searchsorted(cdf, [0.0005, 0.9995])
    assert low <= np.count_nonzero(np.abs(z) > 2.0) <= high
    assert abs(z.mean()) < 4.0 / np.sqrt(n_seeds)


def test_mc_fast_modulation_motional_narrowing():
    # correlation rate 10x the modulation strength, well into motional
    # narrowing; every point within 3 standard errors of the exact form
    sigma, lam = 1.0, 10.0
    config = SimulationConfig(sigma=sigma, gamma=0.0, correlation_rate=lam,
                              t_max=20.0, dt=0.01, n_trajectories=2000,
                              seed=5)
    trace = mc_coherence(config)
    kubo = analytic_coherence(sigma, 0.0, trace.t, correlation_rate=lam)
    mask = trace.t > 0
    diff = np.abs(trace.g[mask] - kubo.g[mask])
    assert np.all(diff <= 3.0 * trace.stderr[mask])


def test_mc_independent_of_worker_count(monkeypatch):
    # 1, 2 and 3 workers (3: one per block), with threads switching as
    # often as they can; a lost or reordered fold changes the bytes
    from zplkit import simulate
    config = _config(n_trajectories=2 * simulate._BLOCK + 37, seed=4)
    default = mc_coherence(config)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(simulate, "_usable_cpus", lambda: workers)
            trace = mc_coherence(config)
            assert default.g.tobytes() == trace.g.tobytes()
            assert default.stderr.tobytes() == trace.stderr.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_mc_chunk_length_moves_g_within_the_observable_bound(monkeypatch):
    # a chunk length rounds the float64 phases its own way, which the
    # float32 sine does not always hide; each run's mean u stays within the
    # mean documented per-u error, 5e-7 u + 2^-50 |phase|, of the exact
    # mean over its phases, and those phases differ only in their last bits
    from zplkit import simulate
    config = SimulationConfig(sigma=1.0, gamma=0.0, correlation_rate=0.01,
                              t_max=20.0, dt=0.1, n_trajectories=10000,
                              seed=42)
    default = mc_coherence(config)
    # E|phase| <= rms phase, sqrt(-2 ln g) of the exact Gaussian-phase
    # coherence; twice that covers the sample's scatter about it
    kubo = analytic_coherence(1.0, 0.0, default.t, correlation_rate=0.01)
    abs_phase = 2.0 * np.sqrt(-2.0 * np.log(kubo.g.real))
    for chunk in (1, config.n_steps):
        monkeypatch.setattr(simulate, "_STEP_CHUNK", chunk)
        trace = mc_coherence(config)
        u_a, u_b = 1.0 - default.g.real, 1.0 - trace.g.real
        bound = 5e-7 * (u_a + u_b) + 2 * 2.0 ** -50 * abs_phase
        assert np.all(np.abs(trace.g.real - default.g.real) <= bound)


def test_mc_worker_failure_reaches_caller(monkeypatch):
    # block 0 fails; the real _block_sums of every block still running is
    # stopped, and every thread is joined before the failure reaches the
    # caller
    from zplkit import simulate
    real = simulate._block_sums
    results = []

    def failing(config, block, stop):
        if block == 0:
            raise KeyError("first block")
        assert stop.wait(10)  # still running when the caller meets block 0
        results.append(real(config, block, stop))
        return results[-1]

    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(simulate, "_block_sums", failing)
    before = threading.active_count()
    with pytest.raises(KeyError, match="first block"):
        mc_coherence(_config(n_trajectories=2 * simulate._BLOCK + 37))
    assert threading.active_count() == before
    assert results == [None, None]


def test_mc_folds_at_most_two_blocks_per_worker_ahead(monkeypatch):
    # block 0 is held back: at most 2 * workers - 1 later blocks start
    # before it is released, which bounds the sums waiting to be folded
    from zplkit import simulate
    n_workers = 2
    bound = 2 * n_workers - 1
    later, seen = [], []
    held, overrun = threading.Event(), threading.Event()

    def block_sums(config, block, stop):
        if block == 0:
            held.wait(10)
            overrun.wait(0.2)  # time for a block past the bound to start
            seen.append(len(later))
        else:
            later.append(block)
            if len(later) == bound:
                held.set()
            if len(later) > bound:
                overrun.set()
        return np.zeros((2, config.n_steps + 1))

    monkeypatch.setattr(simulate, "_usable_cpus", lambda: n_workers)
    monkeypatch.setattr(simulate, "_block_sums", block_sums)
    mc_coherence(_config(n_trajectories=12 * simulate._BLOCK))
    assert seen == [bound]
    assert sorted(later) == list(range(1, 12))


def test_mc_starts_at_most_one_worker_thread_per_usable_cpu(monkeypatch):
    from zplkit import simulate
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    def block_sums(config, block, stop):  # no trajectories: counts only
        return np.zeros((2, config.n_steps + 1))

    monkeypatch.setattr(threading.Thread, "start", start)
    mc_coherence(_config(n_trajectories=simulate._BLOCK))
    assert len(started) == 1  # one block: one worker thread
    monkeypatch.setattr(simulate, "_block_sums", block_sums)
    readme = SimulationConfig(sigma=0.46, gamma=5.2, correlation_rate=0.005,
                              t_max=3.6, dt=0.002, n_trajectories=10000,
                              seed=3)
    started.clear()
    mc_coherence(readme)
    assert 1 <= len(started) <= simulate._usable_cpus()
    for cpus in (1, 3):
        # the first `cpus` blocks wait for each other, so no thread is
        # idle until the pool has started all of its threads
        barrier = threading.Barrier(cpus, timeout=10)
        calls = itertools.count()

        def gathered(config, block, stop):
            if next(calls) < cpus:
                barrier.wait()
            return block_sums(config, block, stop)

        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(simulate, "_block_sums", gathered)
        started.clear()
        mc_coherence(_config(n_trajectories=10 ** 6))
        assert len(started) == cpus


def test_mc_huge_ensemble_allocates_nothing_per_block(monkeypatch):
    # 10^9 trajectories are about 977,000 blocks; the first fails at once,
    # before any of them has been computed
    from zplkit import simulate

    def failing(config, block, stop):
        raise KeyError("first block")

    monkeypatch.setattr(simulate, "_block_sums", failing)
    with pytest.raises(KeyError):  # imports the pool outside the trace
        mc_coherence(_config())
    tracemalloc.start()
    try:
        with pytest.raises(KeyError, match="first block"):
            mc_coherence(_config(n_trajectories=10 ** 9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_mc_determinism_and_stderr_scaling():
    a = mc_coherence(_config(n_trajectories=1000, seed=9))
    b = mc_coherence(_config(n_trajectories=1000, seed=9))
    assert np.array_equal(a.g, b.g) and np.array_equal(a.stderr, b.stderr)
    c = mc_coherence(_config(n_trajectories=2000, seed=9))
    ratio = np.mean(a.stderr[1:] / c.stderr[1:])
    assert ratio == pytest.approx(np.sqrt(2.0), rel=0.10)


def _counts_spectrum(spec):
    scale = 1e4 / spec.intensity.max()
    return Spectrum(spec.energy, spec.intensity * scale,
                    temperature=spec.temperature)


def test_simulated_pure_dephasing_classifies_lorentzian():
    config = SimulationConfig(sigma=0.0, gamma=2.0, correlation_rate=0.0,
                              t_max=10.0, dt=0.05, n_trajectories=10,
                              seed=2)
    spec = simulate_spectrum(config, center=1810.0)
    assert classify_lineshape(_counts_spectrum(spec),
                              weighted=False).label == "lorentzian"


def test_simulated_pure_diffusion_classifies_gaussian():
    sigma = 0.5
    config = SimulationConfig(sigma=sigma, gamma=0.0,
                              correlation_rate=sigma / 500.0, t_max=40.0,
                              dt=0.2, n_trajectories=3000, seed=8)
    spec = simulate_spectrum(config, center=1810.0)
    assert classify_lineshape(_counts_spectrum(spec),
                              weighted=False).label == "gaussian"


def test_simulate_spectrum_recovers_tuned_linewidths():
    # rates tuned to produce component FWHMs of 0.72 and 6.82 meV
    from zplkit.fitting import fit_voigt
    sigma = (0.72 / GAUSSIAN_FWHM_FACTOR) / HBAR_MEV_PS
    gamma = (6.82 / 2.0) / HBAR_MEV_PS
    config = SimulationConfig(sigma=sigma, gamma=gamma,
                              correlation_rate=sigma / 100.0,
                              t_max=20.0 / (sigma + gamma),
                              dt=0.01 / max(sigma, gamma),
                              n_trajectories=10000, seed=3)
    spec = simulate_spectrum(config, center=1813.5)
    fit = fit_voigt(_counts_spectrum(spec), weighted=False)
    assert abs(fit.params.gaussian_fwhm - 0.72) / 0.72 < 0.05
    assert abs(fit.params.lorentzian_fwhm - 6.82) / 6.82 < 0.05
