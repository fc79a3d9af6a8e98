"""Acceptance suite: one test per gating criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here.  The statistical checks
use fixed seeds, so the suite is deterministic on one platform only: the
last-bit floating-point differences between numpy/BLAS builds are amplified
by weighted resampling, and the same seed redraws each statistic elsewhere.
Each statistical gate must therefore clear its bound across seeds, not just
at the pinned one.
"""

import math
import time

import numpy as np

from hamlearn.cli import oracle_sweep
from hamlearn.config import EvaluatorConfig, ModelConfig, RunConfig
from hamlearn.design import PghConfig, pgh
from hamlearn.harness import fit_decay, run_ensemble, scaling_study
from hamlearn.models import (
    IQLE,
    TWO_OUTCOME,
    ExperimentSpec,
    InteractionGraph,
    IsingModel,
)
from hamlearn.risk import GaussianPrior1D, bayes_risk_1d, optimal_time, risk_scan
from hamlearn.simulate import LikelihoodEvaluator, sample_outcome
from hamlearn.smc import (
    ParticleCloud,
    liu_west_resample,
    posterior_covariance,
    posterior_mean,
)

from reference import fit_two_segment, risk_envelope
from test_harness import break_removes_most_misfit
from test_risk import monte_carlo_risk_1d


def _report(tag: str, ok: bool, started: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} [{tag}] {detail} ({time.perf_counter() - started:.1f}s)")


def test_01_analytic_risk_minimum():
    started = time.perf_counter()
    ok = True
    details = []
    for sigma in (1.0, 0.1, 0.01):
        grid = np.linspace(4.0 / sigma / 200_000, 4.0 / sigma, 200_000)
        lower, _ = risk_envelope(grid, sigma)
        best = int(np.argmin(lower))
        spacing = grid[1] - grid[0]
        min_ok = abs(lower[best] - (1 - math.exp(-1)) * sigma**2) <= 1e-3 * (1 - math.exp(-1)) * sigma**2
        arg_ok = abs(grid[best] - optimal_time(sigma)) <= spacing
        ok = ok and min_ok and arg_ok
        details.append(f"sigma={sigma}: min={lower[best]:.6e} argmin={grid[best]:.6g}")
    _report("A1", ok, started, "envelope minimum (1-1/e)sigma^2 at t=1/(2 sigma); " + "; ".join(details))
    assert ok


def test_02_quadrature_vs_monte_carlo_risk():
    started = time.perf_counter()
    prior = GaussianPrior1D(0.5, 0.1)
    t = optimal_time(prior.sigma)
    x_inv = prior.mu + prior.sigma
    closed = bayes_risk_1d(prior, x_inv, t, 0.0)
    mc, stderr = monte_carlo_risk_1d(prior, x_inv, t, 0.0, 1_000_000, np.random.default_rng(20200))
    gap = abs(closed - mc)
    ok = gap < 3 * stderr
    _report("A2", ok, started,
            f"closed form {closed:.6e} vs 1e6-sample MC {mc:.6e} (gap {gap:.2e}, 3se {3*stderr:.2e})")
    assert ok


def test_03_envelope_property_grid():
    started = time.perf_counter()
    mu, sigma = 0.5, 0.1
    prior = GaussianPrior1D(mu, sigma)
    x_grid = np.linspace(mu - 3 * sigma, mu + 3 * sigma, 50)
    t_grid = np.linspace(4.0 / sigma / 50, 4.0 / sigma, 50)
    violations = 0
    for x_inv in x_grid:
        for t in t_grid:
            risk = bayes_risk_1d(prior, float(x_inv), float(t), 0.0)
            lower, upper = risk_envelope(float(t), sigma)
            if not (lower - 1e-4 * sigma**2 <= risk <= upper * (1 + 1e-4)):
                violations += 1
    ok = violations == 0
    _report("A3", ok, started, f"noiseless risk within envelope on 50x50 grid ({violations} violations)")
    assert ok


def test_04_noise_insensitivity_with_inversion():
    started = time.perf_counter()
    prior = GaussianPrior1D(0.5, 0.1)
    t_opt = optimal_time(prior.sigma)
    window = np.linspace(0.8 * t_opt, 1.2 * t_opt, 21)

    clean = risk_scan(prior, "mean_plus_sigma", window, alpha=0.0)
    noisy = risk_scan(prior, "mean_plus_sigma", window, alpha=0.1)
    worst = max(abs(n.risk - c.risk) / c.risk for c, n in zip(clean, noisy))
    inversion_ok = worst < 0.2

    bare = risk_scan(prior, "none", window, alpha=0.1)
    harmful = max(p.risk for p in bare)
    bare_ok = harmful > prior.sigma**2

    ok = inversion_ok and bare_ok
    _report("A4", ok, started,
            f"inversion shift {worst:.3f} < 0.2; no-inversion noisy risk peaks at "
            f"{harmful:.3e} > sigma^2 {prior.sigma**2:.3e}")
    assert ok


def test_05_likelihood_oracle_equivalence():
    started = time.perf_counter()
    worst, worst_kernel, kernels = oracle_sweep(np.random.default_rng(20500), 50)
    ok = worst < 1e-9 and worst_kernel < 1e-9
    print(f"[A5] kernels: {', '.join(kernels)}")
    _report("A5", ok, started,
            f"fast path and likelihood kernel (every outcome, both measurements) vs dense "
            f"reference, 50 instances per graph: max gap {worst:.2e} and {worst_kernel:.2e}")
    assert ok


def test_06_end_to_end_exponential_learning():
    started = time.perf_counter()
    config = RunConfig(
        model=ModelConfig(kind="ising", graph="complete", n=4),
        particles=5000,
        n_experiments=200,
        trials=20,
        seed=20600,
    )
    result = run_ensemble(config)
    medians = result.summary[:, 2]
    fit = fit_decay([(int(r[0]), r[2]) for r in result.summary], window=config.fit_window)
    ratio = medians[-1] / medians[0]
    ok = fit.gamma > 0 and fit.r2 > 0.8 and ratio < 1e-3
    _report("A6", ok, started,
            f"n=4 complete, 20x200: gamma={fit.gamma:.4f}, r2={fit.r2:.3f}, "
            f"final/initial median={ratio:.2e}")
    assert ok


def test_07_decay_exponent_scales_inversely_with_dimension():
    started = time.perf_counter()
    base = RunConfig(
        model=ModelConfig(kind="ising", graph="complete", n=4),
        particles=5000,
        n_experiments=200,
        trials=20,
        seed=20700,
    )
    rows, _ = scaling_study(base, [3, 4, 5])
    gammas = {row.dimension: row.median_gamma for row in rows}
    decreasing = gammas[3] > gammas[6] > gammas[10]
    ratio = gammas[3] / gammas[10]
    ratio_ok = (10.0 / 3.0) / 2.0 <= ratio <= (10.0 / 3.0) * 2.0
    ok = decreasing and ratio_ok
    _report("A7", ok, started,
            f"median gamma d=3:{gammas[3]:.4f} d=6:{gammas[6]:.4f} d=10:{gammas[10]:.4f}; "
            f"gamma(3)/gamma(10)={ratio:.2f} in [1.67, 6.67]")
    assert ok


def test_08_near_degenerate_two_regime_decay():
    started = time.perf_counter()
    config = RunConfig(
        model=ModelConfig(
            kind="ising", graph="complete", n=4, box=(0.0, 100.0),
            degenerate_couplings=True,
        ),
        particles=5000,
        n_experiments=300,
        trials=20,
        seed=20800,
    )
    result = run_ensemble(config)
    medians = result.summary[:, 2]
    series = [(int(r[0]), r[2]) for r in result.summary]
    two = fit_two_segment(series, window=0.0)
    # The absolute r2 gain is fixed by the two decay rates and sits near 0.05
    # whatever the fit quality, so the gate is the relative one: the break
    # must remove three quarters of the single-line misfit.
    explained = (two.r2_combined - two.r2_single) / (1.0 - two.r2_single)
    break_loss = medians[two.break_index]
    ok = (
        break_removes_most_misfit(two)
        and 1e-4 <= break_loss <= 1e-2
        and two.left.gamma > two.right.gamma > 0
    )
    _report("A8", ok, started,
            f"two-regime fit: break removes {explained:.3f} of the single-line misfit "
            f"(>=0.75; r2 {two.r2_single:.3f} -> {two.r2_combined:.3f}), break at index "
            f"{two.break_index} with median loss {break_loss:.2e} in [1e-4, 1e-2], "
            f"gammas {two.left.gamma:.3f} -> {two.right.gamma:.3f}")
    assert ok


def test_09_sampling_noise_robustness():
    started = time.perf_counter()
    config = RunConfig(
        model=ModelConfig(kind="ising", graph="line", n=6),
        evaluator=EvaluatorConfig(mode="noisy_exact", noise=0.1),
        particles=10_000,
        n_experiments=200,
        trials=10,
        seed=20900,
    )
    result = run_ensemble(config)
    fit = fit_decay([(int(r[0]), r[2]) for r in result.summary], window=config.fit_window)
    ok = fit.gamma > 0 and fit.r2 > 0.7
    _report("A9", ok, started,
            f"n=6 line with likelihood noise 0.1: gamma={fit.gamma:.4f}, r2={fit.r2:.3f}")
    assert ok


def test_10_statistical_unit_suites():
    started = time.perf_counter()
    checks = []

    # resampler preserves mean and covariance (5 sigma at 1e5 particles)
    rng = np.random.default_rng(21001)
    size = 100_000
    positions = rng.multivariate_normal([0.5, -1.0], [[0.8, 0.2], [0.2, 0.4]], size)
    weights = rng.uniform(0.5, 1.5, size)
    cloud = ParticleCloud(positions, weights / weights.sum())
    mean, cov = posterior_mean(cloud), posterior_covariance(cloud)
    resampled = liu_west_resample(cloud, a=0.9, rng=rng)
    mean_ok = np.all(
        np.abs(resampled.positions.mean(axis=0) - mean) < 5 * np.sqrt(np.diag(cov) / size)
    )
    se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / size)
    cov_ok = np.all(np.abs(np.cov(resampled.positions.T) - cov) < 5 * se_cov)
    checks.append(("resampler moments", mean_ok and cov_ok))

    # PGH draws inversions proportionally to the weights (5 sigma)
    rng = np.random.default_rng(21002)
    weights = np.array([0.4, 0.3, 0.2, 0.08, 0.02])
    cloud = ParticleCloud(np.arange(5.0).reshape(-1, 1), weights)
    draws = 100_000
    counts = np.zeros(5)
    cfg = PghConfig()
    for _ in range(draws):
        counts[int(pgh(cloud, cfg, rng).inversion[0])] += 1
    pgh_ok = np.all(
        np.abs(counts - draws * weights) < 5 * np.sqrt(draws * weights * (1 - weights))
    )
    checks.append(("pgh weight sampling", bool(pgh_ok)))

    # sampled-likelihood error shrinks like 1/sqrt(n) (within factor 2)
    rng = np.random.default_rng(21003)
    model = IsingModel(InteractionGraph.line(2))
    spec = ExperimentSpec(IQLE, math.pi / 2, [0.0], TWO_OUTCOME)
    maes = []
    for n_samp in (100, 10_000):
        evaluator = LikelihoodEvaluator(model, "sampled", n_samp)
        errors = [
            abs(evaluator.likelihood_many(0, [[0.5]], spec, rng=rng)[0] - 0.5)
            for _ in range(100)
        ]
        maes.append(np.mean(errors))
    ratio = maes[0] / maes[1]
    checks.append(("sampled-likelihood rate", 5.0 < ratio < 20.0))

    # outcome sampler frequencies match the exact distribution (5 sigma)
    rng = np.random.default_rng(21004)
    graph = InteractionGraph.line(3)
    ising = IsingModel(graph)
    x = rng.uniform(-0.5, 0.5, graph.dimension)
    spec = ExperimentSpec("QLE", 2.7)
    dist = ising.outcome_distribution(x, spec)
    draws = 100_000
    counts = np.bincount(
        [sample_outcome(ising, x, spec, rng) for _ in range(draws)], minlength=dist.size
    )
    sampler_ok = np.all(np.abs(counts - draws * dist) <= 5 * np.sqrt(draws * dist * (1 - dist)) + 1e-9)
    checks.append(("outcome-sampler frequencies", bool(sampler_ok)))

    ok = all(flag for _, flag in checks)
    summary = ", ".join(f"{name}:{'ok' if flag else 'FAIL'}" for name, flag in checks)
    _report("A10", ok, started, summary)
    assert ok
