"""Unit tests for the particle-cloud posterior operations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamlearn.config import ModelConfig, RunConfig
from hamlearn.errors import DimensionMismatch, ZeroTotalWeight
from hamlearn.harness import build_model, draw_prior_cloud
from hamlearn.models import (
    FULL_BASIS,
    IQLE,
    LIKELIHOOD_FLOOR,
    TWO_OUTCOME,
    ExperimentSpec,
    InteractionGraph,
    IsingModel,
)
from hamlearn.simulate import LikelihoodEvaluator
from hamlearn.smc import (
    ParticleCloud,
    _cholesky_with_jitter,
    bayes_update,
    effective_sample_size,
    liu_west_resample,
    posterior_covariance,
    posterior_mean,
    quadratic_loss,
    weight_cdf,
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
        update = bayes_update(ParticleCloud(positions, weights), outcome, spec,
                              LikelihoodEvaluator(model))
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

    def test_weight_cdf_rejects_nan_weights(self):
        # rng.choice rejects a NaN p; the cumulative sum it is replaced by must too.
        for weights in ([0.5, math.nan], [math.nan, 1.0]):
            with pytest.raises(ValueError):
                weight_cdf(np.array(weights))

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


def coupling_major(array):
    """Whether `array` is stored one contiguous row per coupling."""
    return array.T.flags.c_contiguous


def learned_cloud(graph, seed):
    """A uniform prior cloud on `graph`, reweighted by three IQLE data."""
    config = RunConfig(model=ModelConfig(kind="ising", graph=graph, n=4), particles=3000)
    model = build_model(config.model)
    rng = np.random.default_rng(seed)
    cloud = draw_prior_cloud(config, model, rng)
    for t, outcome in ((2.0, 0b0011), (5.0, 0b0110), (9.0, 0b0000)):
        spec = ExperimentSpec(IQLE, t, rng.uniform(-0.5, 0.5, model.dimension), FULL_BASIS)
        cloud = bayes_update(cloud, outcome, spec, LikelihoodEvaluator(model)).cloud
    return cloud


def row_major_resample(cloud, a, rng):
    """The Liu-West resample written out on (size, dimension) row-major arrays."""
    n = cloud.size
    positions = np.ascontiguousarray(cloud.positions)
    edges = np.minimum(np.floor(n * weight_cdf(cloud.weights) + rng.random()), n)
    parents = np.repeat(positions, np.diff(edges, prepend=0.0).astype(np.intp), axis=0)
    if a == 1.0:
        return parents
    weights = np.where(cloud.weights < np.finfo(float).eps / n, 0.0, cloud.weights)
    mean = weights @ positions
    centered = positions - mean
    cov = (centered * weights[:, None]).T @ centered
    scale = math.sqrt(1.0 - a * a) * _cholesky_with_jitter(0.5 * (cov + cov.T))
    return a * parents + (1.0 - a) * mean + rng.standard_normal((n, cloud.dimension)) @ scale.T


class TestCouplingMajorLayout:
    def test_prior_update_and_resample_are_coupling_major(self):
        config = RunConfig(model=ModelConfig(kind="ising", graph="line", n=5), particles=400)
        model = build_model(config.model)
        rng = np.random.default_rng(30)
        prior = draw_prior_cloud(config, model, rng)
        spec = ExperimentSpec(IQLE, 4.0, np.zeros(model.dimension), FULL_BASIS)
        updated = bayes_update(prior, 0, spec, LikelihoodEvaluator(model)).cloud
        resampled = liu_west_resample(updated, a=0.9, rng=rng)
        copies = liu_west_resample(updated, a=1.0, rng=rng)
        for cloud in (prior, updated, resampled, copies):
            assert cloud.positions.shape == (400, model.dimension)
            assert coupling_major(cloud.positions)
            assert not cloud.positions.flags.writeable

    def test_update_and_resample_share_their_arrays(self):
        rng = np.random.default_rng(31)
        cloud = random_cloud(rng, size=200, dim=4)
        updated = bayes_update(cloud, 0, None, _ConstantModel(rng.uniform(0.1, 1.0, 200))).cloud
        assert updated.positions is cloud.positions
        for a in (0.9, 1.0):
            resampled = liu_west_resample(updated, a=a, rng=rng)
            # The offspring's (dimension, size) array is frozen and viewed,
            # not copied: a cloud built on the view keeps it as it is.
            rows = resampled.positions.base
            assert rows.shape == (4, 200) and rows.flags.owndata
            assert not rows.flags.writeable
            rebuilt = ParticleCloud(resampled.positions, resampled.weights)
            assert rebuilt.positions is resampled.positions
            assert rebuilt.weights is resampled.weights

    def test_caller_arrays_are_copied_once(self):
        rng = np.random.default_rng(32)
        weights = np.full(50, 0.02)
        c_frozen = rng.normal(size=(50, 3))
        c_frozen.setflags(write=False)
        f_writable = np.asfortranarray(rng.normal(size=(50, 3)))
        rows = rng.normal(size=(3, 50))
        f_view_of_writable = rows.T
        f_view_of_writable.setflags(write=False)
        for given in (c_frozen, f_writable, f_view_of_writable):
            cloud = ParticleCloud(given, weights)
            assert coupling_major(cloud.positions)
            assert not np.shares_memory(cloud.positions, given)
            np.testing.assert_array_equal(cloud.positions, given)
            assert ParticleCloud(cloud.positions, weights).positions is cloud.positions
        rows[0, 0] = 99.0  # the read-only view's data can still change
        assert cloud.positions[0, 0] != 99.0
        f_frozen = np.asfortranarray(rng.normal(size=(50, 3)))
        f_frozen.setflags(write=False)
        assert ParticleCloud(f_frozen, weights).positions is f_frozen

    @pytest.mark.parametrize("graph", ["line", "complete"])
    @pytest.mark.parametrize("a", [0.9, 1.0])
    def test_resample_matches_row_major_reference(self, graph, a):
        # Same parents, kicks and draws as the row-major formula.  Only the
        # mean and covariance reductions change their summation order with
        # the layout, so positions agree to roundoff and the generator ends
        # in the same state.
        for seed in (40, 41, 42):
            cloud = learned_cloud(graph, seed)
            assert effective_sample_size(cloud) < 0.9 * cloud.size
            ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            resampled = liu_west_resample(cloud, a=a, rng=ours).positions
            expected = row_major_resample(cloud, a, reference)
            assert np.max(np.abs(resampled - expected)) <= 1e-12 * np.max(np.abs(expected))
            assert ours.bit_generator.state == reference.bit_generator.state
            if a == 1.0:
                np.testing.assert_array_equal(resampled, expected)
