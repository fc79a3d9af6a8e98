"""Unit tests for experiment design."""

import numpy as np
import pytest

from hamlearn.design import PghConfig, pgh
from hamlearn.errors import DegenerateCloud
from hamlearn.models import CLE, IQLE, QLE
from hamlearn.smc import ParticleCloud


def gaussian_cloud(rng, sigma, size=2000, dim=2):
    positions = rng.normal(0.0, sigma, (size, dim))
    return ParticleCloud(positions, np.full(size, 1.0 / size))


class TestPgh:
    def test_two_particle_cloud_forced(self):
        cloud = ParticleCloud([[0.0], [0.1]], [0.5, 0.5])
        rng = np.random.default_rng(0)
        for _ in range(20):
            spec = pgh(cloud, PghConfig(), rng)
            assert spec.kind == IQLE
            assert spec.time == pytest.approx(10.0)
            assert spec.inversion[0] in (0.0, 0.1)

    def test_collapsed_cloud_raises(self):
        cloud = ParticleCloud(np.full((50, 2), 1.3), np.full(50, 0.02))
        with pytest.raises(DegenerateCloud):
            pgh(cloud, PghConfig(), np.random.default_rng(1))

    def test_only_a_later_column_differs(self):
        # The first coupling column is constant, so only the full compare sees
        # that the last particle sits elsewhere: the cloud has not collapsed.
        positions = np.full((50, 3), 1.3)
        positions[-1, 2] = 1.4
        weights = np.append(np.full(49, 0.5 / 49), 0.5)
        spec = pgh(ParticleCloud(positions, weights), PghConfig(), np.random.default_rng(3))
        assert spec.time == pytest.approx(10.0)

    def test_redraw_exhaustion_raises(self):
        # Two distinct positions but all mass on one: the second draw can
        # never be distinct, so the redraw budget runs out.
        cloud = ParticleCloud([[0.0], [1.0]], [1.0, 0.0])
        with pytest.raises(DegenerateCloud):
            pgh(cloud, PghConfig(max_redraws=50), np.random.default_rng(2))

    def test_draws_match_choice(self):
        # Every draw, redraws included, is the one rng.choice(n, p=w) makes,
        # and the generator is left in the same state.
        rng = np.random.default_rng(9)
        concentrated = np.full(400, 1e-3)
        concentrated[17] = 1.0
        sparse = np.zeros(300)
        sparse[rng.choice(300, 5, replace=False)] = rng.uniform(size=5)
        for weights in (np.full(200, 1.0), rng.uniform(size=1000),
                        rng.dirichlet(np.full(2000, 0.05)), concentrated, sparse):
            weights = weights / weights.sum()
            n = weights.size
            cloud = ParticleCloud(np.sqrt(np.arange(n, dtype=float)), weights)
            for seed in range(20):
                ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
                spec = pgh(cloud, PghConfig(), ours)
                first = reference.choice(n, p=cloud.weights)
                second = reference.choice(n, p=cloud.weights)
                while second == first:
                    second = reference.choice(n, p=cloud.weights)
                assert spec.inversion[0] == cloud.positions[first, 0]
                distance = abs(cloud.positions[second, 0] - cloud.positions[first, 0])
                assert spec.time == 1.0 / distance
                assert ours.random() == reference.random()

    def test_unnormalized_weights_rejected(self):
        cloud = ParticleCloud([[0.0], [1.0]], [0.5, 0.6])
        with pytest.raises(ValueError):
            pgh(cloud, PghConfig(), np.random.default_rng(3))

    def test_inversion_dropped_for_cle_qle(self):
        cloud = ParticleCloud([[0.0], [0.5]], [0.5, 0.5])
        rng = np.random.default_rng(3)
        for kind in (CLE, QLE):
            spec = pgh(cloud, PghConfig(kind=kind), rng)
            assert spec.inversion is None
            assert spec.time == pytest.approx(2.0)

    def test_time_capped(self):
        cloud = ParticleCloud([[0.0], [1e-9]], [0.5, 0.5])
        spec = pgh(cloud, PghConfig(t_max=100.0), np.random.default_rng(4))
        assert spec.time == 100.0

    def test_time_positive_and_capped_statistically(self):
        rng = np.random.default_rng(5)
        cloud = gaussian_cloud(rng, 0.1)
        cfg = PghConfig(t_max=1e4)
        for _ in range(200):
            spec = pgh(cloud, cfg, rng)
            assert 0.0 < spec.time <= cfg.t_max

    def test_weight_proportional_sampling(self):
        # Chi-square style check: inversion draw frequencies must match the
        # weights within 5 sigma of the multinomial fluctuation.
        weights = np.array([0.4, 0.3, 0.2, 0.08, 0.02])
        positions = np.arange(5.0).reshape(-1, 1)
        cloud = ParticleCloud(positions, weights)
        rng = np.random.default_rng(6)
        draws = 100_000
        counts = np.zeros(5)
        for _ in range(draws):
            spec = pgh(cloud, PghConfig(), rng)
            counts[int(spec.inversion[0])] += 1
        sigma = np.sqrt(draws * weights * (1 - weights))
        assert np.all(np.abs(counts - draws * weights) < 5 * sigma)

    def test_scale_covariance(self):
        # Scaling positions by c scales the emitted time by 1/c exactly when
        # the same seed picks the same particle indices.
        rng = np.random.default_rng(7)
        positions = rng.normal(0.0, 1.0, (100, 3))
        weights = np.full(100, 0.01)
        cfg = PghConfig(t_max=1e12)
        for c in (0.5, 2.0, 10.0):
            base = pgh(ParticleCloud(positions, weights), cfg, np.random.default_rng(99))
            scaled = pgh(ParticleCloud(c * positions, weights), cfg, np.random.default_rng(99))
            assert scaled.time == pytest.approx(base.time / c, rel=1e-12)

    def test_median_time_tracks_posterior_width(self):
        # Shrinking the cloud scale by 10x should raise the median emitted
        # time by about 10x.
        rng = np.random.default_rng(8)
        cfg = PghConfig(t_max=1e9)
        medians = []
        for sigma in (0.1, 0.01):
            cloud = gaussian_cloud(np.random.default_rng(42), sigma)
            times = [pgh(cloud, cfg, rng).time for _ in range(3000)]
            medians.append(np.median(times))
        ratio = medians[1] / medians[0]
        assert 8.0 < ratio < 12.0
