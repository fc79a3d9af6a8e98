"""Unit tests for outcome sampling and likelihood estimation."""

import math

import numpy as np
import pytest

from hamlearn.errors import SchemaError
from hamlearn.models import (
    FULL_BASIS,
    IQLE,
    LIKELIHOOD_FLOOR,
    QLE,
    TWO_OUTCOME,
    ExperimentSpec,
    InteractionGraph,
    IsingModel,
)
from hamlearn.simulate import (
    LikelihoodEvaluator,
    sample_outcome,
)
from hamlearn.smc import ParticleCloud


class TestSampleOutcome:
    def test_echo_always_returns(self):
        rng = np.random.default_rng(0)
        graph = InteractionGraph.complete(3)
        model = IsingModel(graph)
        x = rng.uniform(-0.5, 0.5, graph.dimension)
        spec = ExperimentSpec(IQLE, 9.0, x, FULL_BASIS)
        assert all(sample_outcome(model, x, spec, rng) == 0 for _ in range(200))

    def test_no_evolution_always_returns(self):
        rng = np.random.default_rng(1)
        model = IsingModel(InteractionGraph.line(3))
        spec = ExperimentSpec(QLE, 0.0)
        assert all(sample_outcome(model, [0.3, -0.2], spec, rng) == 0 for _ in range(100))

    def test_frequencies_match_distribution(self):
        # 5-sigma multinomial agreement over 1e5 draws.
        rng = np.random.default_rng(2)
        graph = InteractionGraph.line(3)
        model = IsingModel(graph)
        x = rng.uniform(-0.5, 0.5, graph.dimension)
        spec = ExperimentSpec(QLE, 2.7)
        dist = model.outcome_distribution(x, spec)
        draws = 100_000
        counts = np.bincount(
            [sample_outcome(model, x, spec, rng) for _ in range(draws)],
            minlength=dist.size,
        )
        sigma = np.sqrt(draws * dist * (1 - dist))
        assert np.all(np.abs(counts - draws * dist) <= 5 * sigma + 1e-9)

    def test_draws_match_choice(self):
        # Each outcome is the one rng.choice(m, p) draws, and the generator is
        # left in the same state, so trial streams match choice's bit for bit.
        cycle = InteractionGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        for graph, kernel in ((InteractionGraph.line(4), "forest"), (cycle, "half-table")):
            model = IsingModel(graph)
            assert model.kernel == kernel
            setup = np.random.default_rng(graph.dimension)
            x = setup.uniform(-0.5, 0.5, graph.dimension)
            inversion = setup.uniform(-0.5, 0.5, graph.dimension)
            for measurement in (FULL_BASIS, TWO_OUTCOME):
                spec = ExperimentSpec(IQLE, 7.3, inversion, measurement)
                dist = np.clip(model.outcome_distribution(x, spec), 0.0, None)
                for seed in range(250):
                    ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
                    outcome = sample_outcome(model, x, spec, ours)
                    assert outcome == reference.choice(dist.size, p=dist / dist.sum())
                    assert ours.random() == reference.random()

    def test_outcome_in_declared_space(self):
        rng = np.random.default_rng(3)
        model = IsingModel(InteractionGraph.line(4))
        x = rng.uniform(-0.5, 0.5, 3)
        for measurement, count in ((FULL_BASIS, 16), (TWO_OUTCOME, 2)):
            spec = ExperimentSpec(QLE, 1.3, measurement=measurement)
            outcomes = {sample_outcome(model, x, spec, rng) for _ in range(300)}
            assert all(0 <= o < count for o in outcomes)


def one_coupling_model():
    """The one-coupling echo: the 2-qubit pair."""
    return IsingModel(InteractionGraph.line(2))


def sampled_estimate(model, x, spec, target, n_samp, rng):
    """Frequency of `target` among `n_samp` simulated shots at coupling x."""
    evaluator = LikelihoodEvaluator(model, "sampled", n_samp)
    return float(evaluator.likelihood_many(target, [[x]], spec, rng=rng)[0])


class TestEstimateLikelihoodSampled:
    def test_certain_outcome(self):
        rng = np.random.default_rng(4)
        model = one_coupling_model()
        spec = ExperimentSpec(IQLE, 5.0, [0.2], TWO_OUTCOME)
        for n_samp in (1, 10, 1000):
            assert sampled_estimate(model, 0.2, spec, 0, n_samp, rng) == 1.0

    def test_impossible_outcome_floored(self):
        rng = np.random.default_rng(5)
        model = one_coupling_model()
        spec = ExperimentSpec(IQLE, 5.0, [0.2], TWO_OUTCOME)
        assert sampled_estimate(model, 0.2, spec, 1, 100, rng) == LIKELIHOOD_FLOOR

    def test_binomial_concentration(self):
        # p = 0.5, n_samp = 1e4: the estimate lands within 0.025 with
        # probability >= 0.999 (five binomial sigmas).
        rng = np.random.default_rng(6)
        model = one_coupling_model()
        # 2 (x - x_inv) t = pi/2 gives p = 1/2 for both outcomes
        spec = ExperimentSpec(IQLE, np.pi / 2, [0.0], TWO_OUTCOME)
        for _ in range(20):
            estimate = sampled_estimate(model, 0.5, spec, 0, 10_000, rng)
            assert abs(estimate - 0.5) <= 0.025

    def test_error_shrinks_like_root_n(self):
        # Mean absolute error over 100 repeats should drop by about
        # sqrt(100) = 10 between n_samp = 1e2 and 1e4 (within a factor 2).
        rng = np.random.default_rng(7)
        model = one_coupling_model()
        spec = ExperimentSpec(IQLE, np.pi / 2, [0.0], TWO_OUTCOME)
        maes = []
        for n_samp in (100, 10_000):
            errors = [
                abs(sampled_estimate(model, 0.5, spec, 0, n_samp, rng) - 0.5)
                for _ in range(100)
            ]
            maes.append(np.mean(errors))
        ratio = maes[0] / maes[1]
        assert 5.0 < ratio < 20.0


class TestLikelihoodEvaluator:
    def test_exact_mode_matches_model(self):
        rng = np.random.default_rng(8)
        graph = InteractionGraph.line(3)
        model = IsingModel(graph)
        xs = rng.uniform(-0.5, 0.5, (20, graph.dimension))
        spec = ExperimentSpec(QLE, 2.0)
        evaluator = LikelihoodEvaluator(model)
        np.testing.assert_array_equal(
            evaluator.likelihood_many(1, xs, spec), model.likelihood_many(1, xs, spec)
        )

    def test_sampled_mode_unbiased(self):
        rng = np.random.default_rng(9)
        model = one_coupling_model()
        spec = ExperimentSpec(IQLE, np.pi / 2, [0.0], TWO_OUTCOME)
        evaluator = LikelihoodEvaluator(model, mode="sampled", n_samp=400)
        xs = np.full((2000, 1), 0.5)  # exact likelihood 0.5 each
        estimates = evaluator.likelihood_many(0, xs, spec, rng=rng)
        assert abs(estimates.mean() - 0.5) < 5 * 0.5 / np.sqrt(400 * 2000)

    def test_noisy_mode_clips(self):
        rng = np.random.default_rng(10)
        model = one_coupling_model()
        spec = ExperimentSpec(IQLE, 1.0, [0.3], TWO_OUTCOME)
        evaluator = LikelihoodEvaluator(model, mode="noisy_exact", noise=0.5)
        values = evaluator.likelihood_many(0, np.full((5000, 1), 0.3), spec, rng=rng)
        assert np.all(values <= 1.0) and np.all(values >= LIKELIHOOD_FLOOR)

    @pytest.mark.parametrize("seed, noise", [(13, 0.05), (14, 0.3), (15, 2.0)])
    def test_noisy_mode_draws(self, seed, noise):
        # One normal draw per particle, clipped once: the output and the
        # generator state after the call are pinned bit for bit.
        graph = InteractionGraph.line(3)
        model = IsingModel(graph)
        xs = np.random.default_rng(seed + 100).uniform(-0.5, 0.5, (500, graph.dimension))
        spec = ExperimentSpec(IQLE, 7.0, [0.1, -0.2], FULL_BASIS)
        exact = model.likelihood_many(3, xs, spec)
        rng = np.random.default_rng(seed)
        values = LikelihoodEvaluator(model, "noisy_exact", noise=noise).likelihood_many(
            3, xs, spec, rng=rng
        )
        reference_rng = np.random.default_rng(seed)
        reference = np.clip(exact + reference_rng.normal(0, noise, xs.shape[0]),
                            LIKELIHOOD_FLOOR, 1.0)
        np.testing.assert_array_equal(values, reference)
        assert rng.random() == reference_rng.random()

    @pytest.mark.parametrize("graph", [InteractionGraph.line(4), InteractionGraph.complete(4)])
    def test_noisy_mode_matches_written_out_sum_on_a_cloud(self, graph):
        # The noise is drawn into its own array and the exact values added
        # to it; addition commutes, so this is the written-out formula bit
        # for bit, on a cloud's coupling-major positions as on rows.
        model = IsingModel(graph)
        positions = np.random.default_rng(16).uniform(-0.5, 0.5, (2000, graph.dimension))
        cloud = ParticleCloud(positions, np.full(2000, 1 / 2000))
        spec = ExperimentSpec(IQLE, 9.0, np.full(graph.dimension, 0.05), FULL_BASIS)
        for noise in (0.0, 0.1, 0.7):
            evaluator = LikelihoodEvaluator(model, "noisy_exact", noise=noise)
            for outcome in (0, 5, 9):
                rng, reference_rng = np.random.default_rng(17), np.random.default_rng(17)
                values = evaluator.likelihood_many(outcome, cloud.positions, spec, rng=rng)
                exact = model.likelihood_many(outcome, positions, spec)
                if noise > 0:
                    exact = exact + reference_rng.normal(0.0, noise, cloud.size)
                reference = np.clip(exact, LIKELIHOOD_FLOOR, 1.0)
                assert values.tobytes() == reference.tobytes()
                assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_stochastic_modes_require_rng(self):
        model = one_coupling_model()
        spec = ExperimentSpec(QLE, 1.0)
        for evaluator in (
            LikelihoodEvaluator(model, mode="sampled", n_samp=10),
            LikelihoodEvaluator(model, mode="noisy_exact", noise=0.1),
        ):
            with pytest.raises(ValueError):
                evaluator.likelihood_many(0, [[0.1]], spec)

    def test_noiseless_noisy_mode_is_exact_without_rng(self):
        model = IsingModel(InteractionGraph.complete(3))
        xs = np.random.default_rng(18).uniform(-0.5, 0.5, (50, 3))
        spec = ExperimentSpec(IQLE, 4.0, [0.1, 0.2, -0.1], FULL_BASIS)
        evaluator = LikelihoodEvaluator(model, "noisy_exact", noise=0.0)
        assert (evaluator.likelihood_many(5, xs, spec).tobytes()
                == model.likelihood_many(5, xs, spec).tobytes())

    def test_calls_per_update(self):
        model = one_coupling_model()
        assert LikelihoodEvaluator(model).calls_per_update(500) == 500
        assert LikelihoodEvaluator(model, mode="noisy_exact", noise=0.1).calls_per_update(500) == 500
        assert LikelihoodEvaluator(model, mode="sampled", n_samp=32).calls_per_update(500) == 16_000

    def test_defaults_are_the_schema_defaults(self):
        evaluator = LikelihoodEvaluator(one_coupling_model(), "sampled")
        assert evaluator.n_samp == 100 and evaluator.noise == 0.0
        assert LikelihoodEvaluator(one_coupling_model()).mode == "exact"

    @pytest.mark.parametrize("settings, field", [
        ({"mode": "dense"}, "mode"),
        ({"mode": None}, "mode"),
        ({"n_samp": 0}, "n_samp"),
        ({"mode": "exact", "n_samp": -1}, "n_samp"),
        ({"n_samp": 2.5}, "n_samp"),
        ({"n_samp": True}, "n_samp"),
        ({"noise": -0.1}, "noise"),
        ({"noise": math.nan}, "noise"),
        ({"noise": math.inf}, "noise"),
        ({"noise": "0.1"}, "noise"),
    ])
    def test_values_the_schema_rejects_are_rejected(self, settings, field):
        settings = {"mode": "noisy_exact" if field == "noise" else "sampled", **settings}
        with pytest.raises(SchemaError, match=f"^{field}: "):
            LikelihoodEvaluator(one_coupling_model(), **settings)
