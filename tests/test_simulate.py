import itertools
import sys
import threading

import numpy as np
import pytest

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
            rows.append(np.cos(phase))
        c = np.array(rows)
        cosines.append(c)
        # summed the way numpy reduces one row segment (the order decides
        # the last bit, and 1 - mean(u) cancels where g is small)
        sum_u += np.add.reduceat(1.0 - c, [0], axis=1)[:, 0]
        sum_u2 += np.add.reduceat((1.0 - c) ** 2, [0], axis=1)[:, 0]
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


def test_mc_independent_of_batching(monkeypatch):
    # 1, 2 and 3 workers (3: one per block), steps drawn one at a time, in
    # default chunks and all in one chunk, and one or up to _BATCH_BLOCKS
    # blocks per batch; a lost or reordered fold changes the bytes
    from zplkit import simulate
    config = _config(n_trajectories=2 * simulate._BLOCK + 37, seed=4)
    assert simulate._BATCH_BLOCKS >= 3  # one worker: one batch, all blocks
    default = mc_coherence(config)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers, chunk, batch in itertools.product(
                (1, 2, 3), (1, simulate._STEP_CHUNK, config.n_steps + 5),
                (1, simulate._BATCH_BLOCKS)):
            monkeypatch.setattr(simulate, "_usable_cpus", lambda: workers)
            monkeypatch.setattr(simulate, "_STEP_CHUNK", chunk)
            monkeypatch.setattr(simulate, "_BATCH_BLOCKS", batch)
            trace = mc_coherence(config)
            assert default.g.tobytes() == trace.g.tobytes()
            assert default.stderr.tobytes() == trace.stderr.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_mc_worker_failure_reaches_caller(monkeypatch):
    # the second batch fails on whichever thread takes it; every thread is
    # joined before the failure reaches the caller
    from zplkit import simulate
    real = simulate._batch_sums

    def failing(config, blocks, stop):
        if blocks.start > 0:
            raise KeyError("second batch")
        return real(config, blocks, stop)

    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(simulate, "_batch_sums", failing)
    before = threading.active_count()
    with pytest.raises(KeyError, match="second batch"):
        mc_coherence(_config(n_trajectories=2 * simulate._BLOCK + 37))
    assert threading.active_count() == before


def test_mc_starts_at_most_one_thread_per_spare_cpu(monkeypatch):
    from zplkit import simulate
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    def batch_sums(config, blocks, stop):  # no trajectories: counts only
        return np.zeros((2, config.n_steps + 1, len(blocks)))

    monkeypatch.setattr(threading.Thread, "start", start)
    mc_coherence(_config(n_trajectories=simulate._BLOCK))
    assert started == []  # one block: the caller runs it
    monkeypatch.setattr(simulate, "_batch_sums", batch_sums)
    readme = SimulationConfig(sigma=0.46, gamma=5.2, correlation_rate=0.005,
                              t_max=3.6, dt=0.002, n_trajectories=10000,
                              seed=3)
    mc_coherence(readme)
    assert len(started) <= simulate._usable_cpus() - 1
    for cpus in (1, 3):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: cpus)
        started.clear()
        mc_coherence(_config(n_trajectories=10 ** 6))
        assert len(started) == cpus - 1


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
