"""Unit tests for the particle-cloud posterior operations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlearn.errors import DimensionMismatch, ZeroTotalWeight
from hamlearn.models import (
    IQLE,
    LIKELIHOOD_FLOOR,
    TWO_OUTCOME,
    ExperimentSpec,
    InteractionGraph,
    IsingModel,
)
from hamlearn.smc import (
    ParticleCloud,
    bayes_update,
    effective_sample_size,
    liu_west_resample,
    posterior_covariance,
    posterior_mean,
    quadratic_loss,
    uniform_cloud,
)


class _ConstantModel:
    """Likelihood model assigning fixed per-particle likelihoods."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def likelihood_many(self, outcome, xs, exp, rng=None):
        return self.values


def random_cloud(rng, size=20, dim=3):
    weights = rng.uniform(0.1, 1.0, size)
    return ParticleCloud(rng.normal(0, 1, (size, dim)), weights / weights.sum())


class TestBayesUpdate:
    def test_direct_reweighting(self):
        cloud = ParticleCloud([[0.0], [1.0]], [0.5, 0.5])
        update = bayes_update(cloud, 0, None, _ConstantModel([0.8, 0.2]))
        np.testing.assert_allclose(update.cloud.weights, [0.8, 0.2])

    def test_constant_likelihood_is_identity(self):
        rng = np.random.default_rng(0)
        cloud = random_cloud(rng)
        update = bayes_update(cloud, 0, None, _ConstantModel(np.full(cloud.size, 0.37)))
        np.testing.assert_allclose(update.cloud.weights, cloud.weights, atol=1e-15)

    def test_hand_computed_single_param_posterior(self):
        # Oracle: weights times the echo likelihood, normalized by hand.
        positions = np.array([[0.1], [0.2], [0.3]])
        weights = np.array([0.2, 0.3, 0.5])
        x_inv, t, outcome = 0.15, 3.0, 0
        likes = np.array(
            [0.5 * (1 + math.cos(2 * (x - x_inv) * t)) for x in positions[:, 0]]
        )
        expected = weights * likes / np.sum(weights * likes)

        model = IsingModel(InteractionGraph.line(2))
        spec = ExperimentSpec(IQLE, t, [x_inv], TWO_OUTCOME)
        update = bayes_update(ParticleCloud(positions, weights), outcome, spec, model)
        np.testing.assert_allclose(update.cloud.weights, expected, rtol=1e-12)

    def test_zero_total_weight_rejected(self):
        cloud = ParticleCloud([[0.0], [1.0]], [0.5, 0.5])
        with pytest.raises(ZeroTotalWeight):
            bayes_update(cloud, 0, None, _ConstantModel([0.0, 0.0]))
        # the caller's cloud is untouched
        np.testing.assert_allclose(cloud.weights, [0.5, 0.5])

    def test_nan_likelihood_rejected(self):
        # The update skips the check of the positions it shares, not of its weights.
        cloud = ParticleCloud([[0.0], [1.0]], [0.5, 0.5])
        with pytest.raises(ValueError, match="weights must be finite"):
            bayes_update(cloud, 0, None, _ConstantModel([0.5, math.nan]))

    def test_update_shares_frozen_positions(self):
        # The update keeps the read-only positions it was given; a writable
        # array handed to a cloud is still copied.
        positions = np.arange(6.0).reshape(3, 2)
        cloud = ParticleCloud(positions, np.full(3, 1 / 3))
        positions[0, 0] = 99.0
        assert cloud.positions[0, 0] == 0.0
        updated = bayes_update(cloud, 0, None, _ConstantModel([0.2, 0.3, 0.5])).cloud
        assert updated.positions is cloud.positions
        assert not updated.positions.flags.writeable
        with pytest.raises(ValueError):
            updated.positions[0, 0] = 1.0

    def test_resample_flag(self):
        cloud = ParticleCloud(np.arange(4.0).reshape(-1, 1), np.full(4, 0.25))
        concentrated = bayes_update(cloud, 0, None, _ConstantModel([1.0, 1e-9, 1e-9, 1e-9]))
        assert concentrated.resample_due
        flat = bayes_update(cloud, 0, None, _ConstantModel([1.0, 1.0, 1.0, 1.0]))
        assert not flat.resample_due

    def test_permutation_commutes(self):
        rng = np.random.default_rng(1)
        cloud = random_cloud(rng)
        likes = rng.uniform(0.01, 1.0, cloud.size)
        perm = rng.permutation(cloud.size)
        updated = bayes_update(cloud, 0, None, _ConstantModel(likes)).cloud
        permuted = ParticleCloud(cloud.positions[perm], cloud.weights[perm])
        updated_perm = bayes_update(permuted, 0, None, _ConstantModel(likes[perm])).cloud
        np.testing.assert_allclose(updated_perm.weights, updated.weights[perm], rtol=1e-12)

    def test_order_of_data_is_irrelevant(self):
        rng = np.random.default_rng(2)
        cloud = random_cloud(rng)
        la = rng.uniform(0.01, 1.0, cloud.size)
        lb = rng.uniform(0.01, 1.0, cloud.size)
        ab = bayes_update(
            bayes_update(cloud, 0, None, _ConstantModel(la)).cloud, 0, None, _ConstantModel(lb)
        ).cloud
        ba = bayes_update(
            bayes_update(cloud, 0, None, _ConstantModel(lb)).cloud, 0, None, _ConstantModel(la)
        ).cloud
        np.testing.assert_allclose(ab.weights, ba.weights, rtol=1e-12)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_weights_normalized_after_update(self, seed):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, size=int(rng.integers(2, 40)))
        likes = rng.uniform(1e-6, 1.0, cloud.size)
        update = bayes_update(cloud, 0, None, _ConstantModel(likes))
        assert abs(update.cloud.weights.sum() - 1.0) < 1e-12

    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(1, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_weights_survive_underflow(self, seed, size):
        # Likelihoods spread over 320 decades drive most weights below the
        # smallest normal double; normalization must still hold.
        rng = np.random.default_rng(seed)
        cloud = ParticleCloud(np.zeros((size, 1)), np.full(size, 1.0 / size))
        for _ in range(200):
            likes = np.maximum(10.0 ** rng.uniform(-320.0, 0.0, size), LIKELIHOOD_FLOOR)
            update = bayes_update(cloud, 0, None, _ConstantModel(likes))
            cloud = update.cloud
            assert abs(cloud.weights.sum() - 1.0) <= 1e-12
            assert 1.0 <= update.ess <= size


class TestEffectiveSampleSize:
    def test_uniform_equals_count(self):
        cloud = ParticleCloud(np.zeros((7, 1)), np.full(7, 1 / 7))
        assert effective_sample_size(cloud) == pytest.approx(7.0, abs=1e-12)

    def test_single_survivor(self):
        cloud = ParticleCloud(np.zeros((3, 1)), [1.0, 0.0, 0.0])
        assert effective_sample_size(cloud) == 1.0

    def test_mixed_weights(self):
        cloud = ParticleCloud(np.zeros((3, 1)), [0.5, 0.25, 0.25])
        assert effective_sample_size(cloud) == pytest.approx(1 / 0.375, rel=1e-14)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, size=int(rng.integers(1, 50)))
        ess = effective_sample_size(cloud)
        assert 1.0 <= ess <= cloud.size


class TestPosteriorSummaries:
    def test_mean_symmetry(self):
        cloud = ParticleCloud([[1.0, -2.0], [-1.0, 2.0]], [0.5, 0.5])
        np.testing.assert_allclose(posterior_mean(cloud), [0.0, 0.0], atol=1e-15)

    def test_mean_single_particle(self):
        cloud = ParticleCloud([[3.0, 4.0]], [1.0])
        np.testing.assert_allclose(posterior_mean(cloud), [3.0, 4.0])

    def test_mean_weighted(self):
        cloud = ParticleCloud([[0.0], [1.0]], [0.25, 0.75])
        assert posterior_mean(cloud)[0] == pytest.approx(0.75)

    def test_covariance_degenerate(self):
        cloud = ParticleCloud([[1.0, 2.0]], [1.0])
        np.testing.assert_allclose(posterior_covariance(cloud), np.zeros((2, 2)))

    def test_covariance_two_points(self):
        cloud = ParticleCloud([[0.0], [1.0]], [0.5, 0.5])
        assert posterior_covariance(cloud)[0, 0] == pytest.approx(0.25)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_trace_equals_expected_loss(self, seed):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, size=int(rng.integers(2, 30)), dim=int(rng.integers(1, 5)))
        mean = posterior_mean(cloud)
        expected_loss = sum(
            w * quadratic_loss(x, mean) for w, x in zip(cloud.weights, cloud.positions)
        )
        assert np.trace(posterior_covariance(cloud)) == pytest.approx(expected_loss, rel=1e-10)


class TestQuadraticLoss:
    def test_zero_for_identical(self):
        assert quadratic_loss([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_pythagorean(self):
        assert quadratic_loss([0.0, 0.0], [3.0, 4.0]) == pytest.approx(25.0)

    def test_componentwise_recomputation(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=6), rng.normal(size=6)
        expected = sum((ai - bi) ** 2 for ai, bi in zip(a, b))
        assert quadratic_loss(a, b) == pytest.approx(expected, rel=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            quadratic_loss([1.0], [1.0, 2.0])


class TestLiuWestResample:
    def test_a_one_copies_parents(self):
        rng = np.random.default_rng(4)
        cloud = random_cloud(rng, size=50, dim=2)
        resampled = liu_west_resample(cloud, a=1.0, rng=np.random.default_rng(5))
        np.testing.assert_allclose(resampled.weights, np.full(50, 0.02))
        positions = {tuple(p) for p in cloud.positions}
        assert all(tuple(p) in positions for p in resampled.positions)

    def test_parents_are_systematic(self):
        # Offspring counts stay within one of n * w_j, sum to n, skip zero
        # weights, and the draw consumes exactly one uniform.
        rng = np.random.default_rng(10)
        sparse = np.zeros(400)
        sparse[rng.choice(400, 7, replace=False)] = rng.uniform(size=7)
        one_hot = np.zeros(50)
        one_hot[13] = 1.0
        for weights in (np.full(300, 1.0), rng.uniform(size=1000),
                        rng.dirichlet(np.full(2000, 0.05)), sparse, one_hot,
                        np.exp(-rng.uniform(0.0, 600.0, 500))):
            weights = weights / weights.sum()
            n = weights.size
            cloud = ParticleCloud(np.arange(n, dtype=float), weights)
            ours, reference = np.random.default_rng(11), np.random.default_rng(11)
            resampled = liu_west_resample(cloud, a=1.0, rng=ours)
            counts = np.bincount(resampled.positions[:, 0].astype(int), minlength=n)
            assert counts.sum() == n
            assert np.all(np.abs(counts - n * cloud.weights) < 1.0)
            assert np.all(counts[cloud.weights == 0.0] == 0)
            reference.random()
            assert ours.bit_generator.state == reference.bit_generator.state

    def test_ghost_weights_do_not_move_moments(self):
        # Weights near 1e-303 (left by floored likelihoods) must give the
        # same offspring, bit for bit, as exact zeros.
        rng = np.random.default_rng(13)
        positions = rng.normal(0.0, 1.0, (1000, 3))
        weights = rng.uniform(0.5, 1.5, 1000)
        weights /= weights[1::2].sum()
        weights[::2] = 1e-303
        zeroed = weights.copy()
        zeroed[::2] = 0.0
        ghosts = liu_west_resample(
            ParticleCloud(positions, weights), a=0.9, rng=np.random.default_rng(14)
        )
        zeros = liu_west_resample(
            ParticleCloud(positions, zeroed), a=0.9, rng=np.random.default_rng(14)
        )
        np.testing.assert_array_equal(ghosts.positions, zeros.positions)

    def test_weights_must_sum_to_one(self):
        cloud = ParticleCloud(np.arange(10.0), np.full(10, 0.2))
        with pytest.raises(ValueError):
            liu_west_resample(cloud, a=0.9, rng=np.random.default_rng(12))

    def test_weights_reset_to_uniform(self):
        rng = np.random.default_rng(6)
        cloud = random_cloud(rng, size=30)
        resampled = liu_west_resample(cloud, a=0.9, rng=rng)
        assert effective_sample_size(resampled) == pytest.approx(30.0)

    def test_moment_preservation(self):
        # 5-sigma statistical bound with 1e5 particles.
        rng = np.random.default_rng(7)
        size = 100_000
        positions = rng.multivariate_normal([1.0, -2.0], [[1.0, 0.3], [0.3, 0.5]], size)
        weights = rng.uniform(0.5, 1.5, size)
        cloud = ParticleCloud(positions, weights / weights.sum())
        mean, cov = posterior_mean(cloud), posterior_covariance(cloud)

        resampled = liu_west_resample(cloud, a=0.9, rng=rng)
        new_mean = resampled.positions.mean(axis=0)
        se_mean = np.sqrt(np.diag(cov) / size)
        assert np.all(np.abs(new_mean - mean) < 5 * se_mean)

        new_cov = np.cov(resampled.positions.T)
        se_cov = np.sqrt(
            (np.outer(np.diag(cov), np.diag(cov)) + cov**2) / size
        )
        assert np.all(np.abs(new_cov - cov) < 5 * se_cov)

    def test_collapsed_cloud_is_handled(self):
        # Zero covariance must not blow up: jitter regularizes internally.
        cloud = ParticleCloud(np.ones((20, 3)), np.full(20, 0.05))
        resampled = liu_west_resample(cloud, a=0.9, rng=np.random.default_rng(8))
        assert np.all(np.isfinite(resampled.positions))


class TestUniformCloud:
    def test_inside_box_and_normalized(self):
        rng = np.random.default_rng(11)
        box = [[-1.0, 2.0], [5.0, 6.0]]
        cloud = uniform_cloud(box, 500, rng)
        assert cloud.dimension == 2
        assert np.all(cloud.positions[:, 0] >= -1.0) and np.all(cloud.positions[:, 0] <= 2.0)
        assert np.all(cloud.positions[:, 1] >= 5.0) and np.all(cloud.positions[:, 1] <= 6.0)
        assert abs(cloud.weights.sum() - 1.0) < 1e-12

    def test_cloud_arrays_read_only(self):
        rng = np.random.default_rng(12)
        cloud = uniform_cloud([[0.0, 1.0]], 10, rng)
        with pytest.raises(ValueError):
            cloud.weights[0] = 2.0
        with pytest.raises(ValueError):
            cloud.positions[0, 0] = 2.0
