"""Unit tests for the expected-loss (risk) analysis."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlearn.models import CHUNK_ELEMENTS
from hamlearn.risk import (
    GaussianPrior1D,
    RiskPoint,
    _posterior_moments,
    bayes_risk_1d,
    optimal_time,
    risk_scan,
)

from reference import (QuadratureFailure, quadrature_bayes_risk_1d,
                       quadrature_posterior_mean_1d, risk_envelope)


def monte_carlo_risk_1d(prior, x_inv, t, alpha, n_draws, rng, n_batches=100):
    """Independent sampling oracle for the noiseless/noisy expected loss.

    Draw couplings from the prior and outcomes from the (possibly
    bit-flipped) data distribution; conditioned on the outcome, the drawn
    couplings are posterior samples when alpha = 0, and for alpha > 0 the
    blind posterior moments are estimated by importance reweighting with the
    noiseless likelihood.  Batch means give the standard error.
    """
    from hamlearn.models import bitflip_wrap, single_param_likelihood

    per_batch = n_draws // n_batches
    batch_means = []
    for _ in range(n_batches):
        x = rng.normal(prior.mu, prior.sigma, per_batch)
        p0 = single_param_likelihood(0, x, x_inv, t)
        p0_data = bitflip_wrap(alpha, p0)
        d = (rng.random(per_batch) >= p0_data).astype(int)
        total = 0.0
        for outcome in (0, 1):
            weights = np.where(d == outcome, 1.0, 0.0)
            prob = weights.mean()
            if prob == 0.0:
                continue
            # blind posterior over x given this outcome, via importance
            # weights proportional to the noiseless likelihood
            like = p0 if outcome == 0 else 1.0 - p0
            z = like.mean()
            mean = (x * like).mean() / z
            var = (x * x * like).mean() / z - mean**2
            total += prob * var
        batch_means.append(total)
    batch_means = np.asarray(batch_means)
    return batch_means.mean(), batch_means.std(ddof=1) / math.sqrt(n_batches)


class TestPosteriorMean1d:
    def test_no_evolution_returns_prior_mean(self):
        prior = GaussianPrior1D(0.7, 0.2)
        for d in (0, 1):
            assert _posterior_moments(prior, 0.3, 0.0)[d][1] == pytest.approx(0.7)

    def test_martingale(self):
        # The outcome-average of the posterior mean is the prior mean.
        prior = GaussianPrior1D(0.5, 0.1)
        for x_inv, t in ((0.6, 5.0), (0.5, 2.0), (0.35, 11.0)):
            moments = _posterior_moments(prior, x_inv, t)
            averaged = sum(mass * mean for mass, mean, _ in moments)
            assert averaged == pytest.approx(prior.mu, abs=1e-9)

    def test_matches_quadrature_reference(self):
        prior = GaussianPrior1D(0.5, 0.1)
        closed = _posterior_moments(prior, 0.6, 5.0)[0][1]
        quad = quadrature_posterior_mean_1d(0, prior, 0.6, 5.0)
        assert closed == pytest.approx(quad, abs=1e-6)
        # frozen reference value from the quadrature oracle
        assert quad == pytest.approx(0.5384404715332974, abs=1e-9)

    def test_matches_quadrature_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            mu = rng.uniform(-1, 1)
            sigma = rng.uniform(0.02, 0.5)
            prior = GaussianPrior1D(mu, sigma)
            x_inv = mu + rng.uniform(-3, 3) * sigma
            t = rng.uniform(0.01, 3.0) / sigma
            for d in (0, 1):
                assert _posterior_moments(prior, x_inv, t)[d][1] == pytest.approx(
                    quadrature_posterior_mean_1d(d, prior, x_inv, t), abs=1e-6
                )

    def test_blind_to_bitflip_rate(self):
        # The posterior path has no noise argument at all: noise enters the
        # risk only through the data distribution.
        import inspect

        assert "alpha" not in inspect.signature(_posterior_moments).parameters


class TestBayesRisk1d:
    def test_no_evolution_keeps_prior_variance(self):
        prior = GaussianPrior1D(0.5, 0.1)
        assert bayes_risk_1d(prior, 0.6, 0.0) == pytest.approx(prior.sigma**2, rel=1e-9)
        assert bayes_risk_1d(prior, 0.6, 1e-9) == pytest.approx(prior.sigma**2, rel=1e-6)

    def test_noiseless_never_exceeds_prior_variance(self):
        prior = GaussianPrior1D(0.5, 0.1)
        rng = np.random.default_rng(1)
        for _ in range(25):
            x_inv = prior.mu + rng.uniform(-3, 3) * prior.sigma
            t = rng.uniform(0.05, 4.0) / prior.sigma
            risk = bayes_risk_1d(prior, x_inv, t, 0.0)
            low, high = risk_envelope(t, prior.sigma)
            assert low - 1e-4 * prior.sigma**2 <= risk <= high * (1 + 1e-4)

    def test_matches_monte_carlo(self):
        prior = GaussianPrior1D(0.5, 0.1)
        t = optimal_time(prior.sigma)
        x_inv = prior.mu + prior.sigma
        closed = bayes_risk_1d(prior, x_inv, t, 0.0)
        mc, stderr = monte_carlo_risk_1d(
            prior, x_inv, t, 0.0, 200_000, np.random.default_rng(2)
        )
        assert abs(closed - mc) < 3 * stderr

    def test_matches_monte_carlo_noisy(self):
        prior = GaussianPrior1D(0.5, 0.1)
        t = optimal_time(prior.sigma)
        closed = bayes_risk_1d(prior, prior.mu + prior.sigma, t, 0.1)
        mc, stderr = monte_carlo_risk_1d(
            prior, prior.mu + prior.sigma, t, 0.1, 200_000, np.random.default_rng(3)
        )
        assert abs(closed - mc) < 3 * stderr

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            bayes_risk_1d(GaussianPrior1D(0.0, 1.0), 0.0, 1.0, 0.6)

    def test_unreachable_tolerance_raises(self):
        # an astronomically fast oscillation defeats the subdivision budget
        with pytest.raises(QuadratureFailure):
            quadrature_posterior_mean_1d(0, GaussianPrior1D(0.5, 0.1), 0.6, 1e8)

    def test_uninformative_at_huge_time(self):
        # the data oscillate far faster than the prior width: no information
        # (from 1e160 on, shift^2 overflows; the envelope has long underflowed)
        prior = GaussianPrior1D(0.5, 0.1)
        for t in (1e8, 1e160, 1e200, 1e300):
            for alpha in (0.0, 0.1):
                assert bayes_risk_1d(prior, 0.6, t, alpha) == pytest.approx(
                    prior.sigma**2, rel=1e-12
                )

    def test_matches_simpson_reference(self):
        # Outcome 1 is integrated from sin^2 directly, never as 1 - mass_0, so
        # the reference keeps the tiny outcome-1 masses of short times exact.
        mu, sigma = 0.5, 0.1
        prior = GaussianPrior1D(mu, sigma)
        n = 400_001
        offset = np.linspace(-12.0 * sigma, 12.0 * sigma, n)
        weights = np.ones(n)
        weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
        weights *= (offset[1] - offset[0]) / 3.0 * np.exp(-0.5 * (offset / sigma) ** 2)
        weights /= sigma * math.sqrt(2.0 * math.pi)
        worst = 0.0
        for t_sigma in (1e-5, 1e-4, 1e-3, 0.1, 1.0, 4.0):
            t = t_sigma / sigma
            for x_inv in (mu, mu + sigma, mu + 3 * sigma):
                phase = (mu + offset - x_inv) * t
                moments = []
                for like in (np.cos(phase) ** 2, np.sin(phase) ** 2):
                    mass = weights @ like
                    # central moments avoid cancelling mu^2 against sigma^2
                    shift = (weights * like) @ offset / mass
                    variance = (weights * like) @ offset**2 / mass - shift**2
                    moments.append((mass, variance))
                for alpha in (0.0, 0.1):
                    reference = sum(
                        (alpha + (1 - 2 * alpha) * mass) * variance for mass, variance in moments
                    )
                    gap = abs(bayes_risk_1d(prior, x_inv, t, alpha) - reference)
                    worst = max(worst, gap / sigma**2)
        assert worst < 1e-10

    def test_matches_quadrature_risk(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            sigma = float(rng.choice([1.0, 0.1, 0.01]))
            prior = GaussianPrior1D(rng.uniform(-1, 1), sigma)
            x_inv = prior.mu + rng.uniform(-3, 3) * sigma
            t = rng.uniform(0.05, 5.0) / sigma
            for alpha in (0.0, 0.1):
                gap = abs(bayes_risk_1d(prior, x_inv, t, alpha)
                          - quadrature_bayes_risk_1d(prior, x_inv, t, alpha))
                assert gap < 1e-9 * sigma**2


class TestUnservableInputs:
    @pytest.mark.parametrize("mu, sigma", [
        (math.nan, 0.1), (math.inf, 0.1), (0.5, math.inf), (0.5, math.nan), (0.5, 0.0),
        (0.5, 1e200), (1e200, 0.1),
    ])
    def test_prior_rejects_non_finite_moments(self, mu, sigma):
        with pytest.raises(ValueError, match="must be"):
            GaussianPrior1D(mu, sigma)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_scan_rejects_time(self, t):
        for strategy in ("none", "pgh"):
            with pytest.raises(ValueError, match=f"nonnegative, got {t}"):
                risk_scan(GaussianPrior1D(0.5, 0.1), strategy, [1.0, t],
                          rng=np.random.default_rng(0), pgh_draws=4)

    def test_scan_rejects_an_inversion_whose_phase_overflows(self):
        # omega (mu - x_inv) is inf at t = 40, where the envelope is still e^-32.
        with pytest.raises(ValueError, match=r"inversion 3e\+306 overflows at t = 40\.0"):
            risk_scan(GaussianPrior1D(0.5, 0.1), 3e306, [1.0, 40.0])

    def test_point_rejects_nan_risk(self):
        with pytest.raises(ValueError, match="nonnegative"):
            RiskPoint(0.6, 1.0, 0.0, math.nan)


class TestArrayRisk:
    """The scan scores blocks of time rows with one array call; each row must
    equal the scalar calls it replaces, bit for bit."""

    prior = GaussianPrior1D(0.5, 0.1)
    grid = np.linspace(0.8, 40.0, 50)

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_fixed_rows_equal_scalar_calls(self, alpha):
        for strategy, x_inv in (("none", 0.0), ("mean_plus_sigma", 0.6),
                                ("mean_minus_sigma", 0.4), (0.37, 0.37)):
            points = risk_scan(self.prior, strategy, self.grid, alpha)
            assert [p.x_inv for p in points] == pytest.approx([x_inv] * len(self.grid))
            assert [p.risk for p in points] == [
                bayes_risk_1d(self.prior, p.x_inv, t, alpha) for p, t in zip(points, self.grid)
            ]

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_pgh_rows_equal_per_draw_scalar_calls(self, alpha):
        draws = 40
        points = risk_scan(self.prior, "pgh", self.grid, alpha,
                           rng=np.random.default_rng(3), pgh_draws=draws)
        rng = np.random.default_rng(3)
        for point, t in zip(points, self.grid):
            risks = np.array([bayes_risk_1d(self.prior, float(x), float(t), alpha)
                              for x in rng.normal(self.prior.mu, self.prior.sigma, draws)])
            assert point.risk == np.mean(risks)
            assert point.stderr == np.std(risks, ddof=1) / math.sqrt(draws)

    @pytest.mark.parametrize("times, draws", [
        (150, 1000),                 # 65 rows a block: three blocks
        (3, CHUNK_ELEMENTS + 7),     # each row two chunks, the second of 7 draws
    ])
    def test_blocks_and_chunks_equal_scanning_each_time_alone(self, times, draws):
        grid = np.linspace(0.5, 30.0, times)
        whole = risk_scan(self.prior, "pgh", grid, 0.1, rng=np.random.default_rng(8),
                          pgh_draws=draws)
        rng = np.random.default_rng(8)
        alone = [risk_scan(self.prior, "pgh", [t], 0.1, rng=rng, pgh_draws=draws)[0]
                 for t in grid]
        # (x_inv is NaN on PGH rows, so the points are compared field by field)
        assert [(p.t, p.risk, p.stderr) for p in whole] == [(p.t, p.risk, p.stderr) for p in alone]

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.floats(-2.0, 3.0),
                      st.one_of(st.floats(0.0, 100.0), st.floats(0.0, 1e300))),
            min_size=1, max_size=12),
        alpha=st.floats(0.0, 0.5),
    )
    def test_array_call_is_finite_scalar_exact_and_enveloped(self, pairs, alpha):
        x_inv, t = (np.array(column) for column in zip(*pairs))
        risks = bayes_risk_1d(self.prior, x_inv, t, alpha)
        assert risks.shape == t.shape
        assert np.all(np.isfinite(risks)) and np.all(risks >= 0.0)
        assert risks.tolist() == [bayes_risk_1d(self.prior, float(x), float(s), alpha)
                                  for x, s in pairs]
        if alpha == 0.0:
            low, high = risk_envelope(t, self.prior.sigma)
            slack = 1e-12 * self.prior.sigma**2
            assert np.all(low - slack <= risks) and np.all(risks <= high + slack)


class TestRiskEnvelope:
    def test_collapses_at_zero_time(self):
        low, high = risk_envelope(0.0, 0.25)
        assert low == high == pytest.approx(0.0625)

    def test_value_at_optimal_time(self):
        sigma = 0.2
        low, _ = risk_envelope(optimal_time(sigma), sigma)
        assert low == pytest.approx((1 - math.exp(-1)) * sigma**2, rel=1e-12)

    def test_recovers_prior_at_large_time(self):
        sigma = 0.1
        low, high = risk_envelope(1e6, sigma)
        assert low == pytest.approx(sigma**2, rel=1e-9)
        assert high == pytest.approx(sigma**2)

    def test_argmin_matches_optimal_time(self):
        for sigma in (1.0, 0.1, 0.01):
            grid = np.linspace(1e-6, 4.0 / sigma, 100_001)
            low, _ = risk_envelope(grid, sigma)
            best = grid[np.argmin(low)]
            assert best == pytest.approx(optimal_time(sigma), abs=grid[1] - grid[0])

    def test_optimal_time_values(self):
        assert optimal_time(0.5) == pytest.approx(1.0)
        assert optimal_time(0.01) == pytest.approx(50.0)


class TestRiskScan:
    def test_envelope_respected_by_all_strategies(self):
        prior = GaussianPrior1D(0.5, 0.1)
        grid = np.linspace(0.4, 40.0, 12)
        rng = np.random.default_rng(4)
        for strategy in ("none", "mean_plus_sigma", "mean_minus_sigma", 0.45, "pgh"):
            points = risk_scan(prior, strategy, grid, alpha=0.0, rng=rng, pgh_draws=50)
            for point in points:
                low, high = risk_envelope(point.t, prior.sigma)
                slack = 3 * point.stderr + 1e-4 * prior.sigma**2
                assert low - slack <= point.risk <= high + slack

    def test_noise_can_make_experiments_harmful_without_inversion(self):
        # Near the optimal time, plain forward evolution with bit-flipped
        # data can push the expected loss above the prior variance.
        prior = GaussianPrior1D(0.5, 0.1)
        t_opt = optimal_time(prior.sigma)
        grid = np.linspace(0.8 * t_opt, 1.2 * t_opt, 21)
        points = risk_scan(prior, "none", grid, alpha=0.1)
        assert any(p.risk > prior.sigma**2 for p in points)

    def test_inversion_insensitive_to_noise_near_optimum(self):
        prior = GaussianPrior1D(0.5, 0.1)
        t_opt = optimal_time(prior.sigma)
        grid = np.linspace(0.8 * t_opt, 1.2 * t_opt, 11)
        clean = risk_scan(prior, "mean_plus_sigma", grid, alpha=0.0)
        noisy = risk_scan(prior, "mean_plus_sigma", grid, alpha=0.1)
        for c, n in zip(clean, noisy):
            assert abs(n.risk - c.risk) / c.risk < 0.2

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            risk_scan(GaussianPrior1D(0.0, 1.0), "none", [])

    def test_pgh_needs_two_draws(self):
        # One draw has no standard error; zero draws have no mean.
        rng = np.random.default_rng(5)
        for draws in (0, 1):
            with pytest.raises(ValueError, match="at least 2 draws"):
                risk_scan(GaussianPrior1D(0.5, 0.1), "pgh", [1.0], rng=rng, pgh_draws=draws)


class TestLazyQuadrature:
    def test_closed_form_scan_skips_scipy_integrate(self):
        # The closed forms need no quadrature, so a scan leaves scipy.integrate
        # unloaded; the quadrature reference of the tests loads it.
        code = ("import sys\n"
                "import numpy as np\n"
                "from hamlearn.risk import GaussianPrior1D, risk_scan\n"
                "prior = GaussianPrior1D(0.5, 0.1)\n"
                "for strategy in ('none', 'mean_plus_sigma', 'pgh'):\n"
                "    risk_scan(prior, strategy, [1.0, 5.0], alpha=0.1,\n"
                "              rng=np.random.default_rng(0), pgh_draws=4)\n"
                "print('scipy.integrate' in sys.modules)\n"
                "from reference import quadrature_bayes_risk_1d\n"
                "print(quadrature_bayes_risk_1d(prior, 0.6, 5.0, 0.1))\n"
                "print('scipy.integrate' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout.split()
        assert out[0] == "False" and out[2] == "True"
        prior = GaussianPrior1D(0.5, 0.1)
        assert float(out[1]) == pytest.approx(bayes_risk_1d(prior, 0.6, 5.0, 0.1), rel=1e-8)
