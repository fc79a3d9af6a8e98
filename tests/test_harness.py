"""Unit tests for trial orchestration, aggregation, and decay fitting."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from hamlearn.config import (EvaluatorConfig, ExperimentConfig, ModelConfig, ResampleConfig,
                             RunConfig, model_graph)
from hamlearn.design import PghConfig, pgh
from hamlearn.errors import DegenerateCloud, InsufficientData, SchemaError
from hamlearn.harness import (
    ExperimentRecord,
    LossTrajectory,
    build_model,
    draw_prior_cloud,
    draw_truth,
    fit_decay,
    fit_two_segment,
    run_ensemble,
    run_trial,
    scaling_study,
    summarize_losses,
    trial_seeds_for,
    trial_steps,
)
from hamlearn.models import IQLE, TWO_OUTCOME, ExperimentSpec, IsingModel
from hamlearn.simulate import LikelihoodEvaluator
from hamlearn.smc import bayes_update, effective_sample_size, posterior_mean, quadratic_loss


def single_param_config(**overrides):
    defaults = dict(
        model=ModelConfig(kind="single"),
        experiment=ExperimentConfig(kind=IQLE, measurement=TWO_OUTCOME),
        particles=500,
        n_experiments=30,
        trials=3,
        seed=11,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestFitDecay:
    def test_exact_exponential(self):
        series = [(k, 2.0 * math.exp(-0.1 * k)) for k in range(50)]
        fit = fit_decay(series, window=0.0)
        assert fit.amplitude == pytest.approx(2.0, rel=1e-9)
        assert fit.gamma == pytest.approx(0.1, rel=1e-9)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        series = [(k, 0.5) for k in range(20)]
        fit = fit_decay(series, window=0.0)
        assert fit.gamma == pytest.approx(0.0, abs=1e-12)

    def test_noisy_synthetic(self):
        rng = np.random.default_rng(0)
        series = [
            (k, math.exp(-0.23 * k) * rng.lognormal(0.0, 0.1)) for k in range(200)
        ]
        fit = fit_decay(series, window=0.1)
        assert fit.gamma == pytest.approx(0.23, abs=0.02)

    def test_window_drops_transient(self):
        # flat head followed by a clean decay: the default window must skip
        # enough of the head for the fit to see mostly decay
        series = [(k, 1.0) for k in range(10)] + [
            (k, math.exp(-0.2 * (k - 10))) for k in range(10, 100)
        ]
        fit = fit_decay(series, window=0.1)
        assert fit.window[0] == 10

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            fit_decay([(0, 1.0), (1, 0.5), (2, 0.0), (3, 0.0)], window=0.0)


def synthetic_kink(rng=None):
    """Loss falling at rate 0.3 for 40 steps, then at 0.05.

    With an `rng`, each point gets independent ln-loss noise of std 0.3.
    """
    series = [(k, 50.0 * math.exp(-0.3 * k)) for k in range(40)] + [
        (k, 50.0 * math.exp(-0.3 * 40) * math.exp(-0.05 * (k - 40)))
        for k in range(40, 120)
    ]
    if rng is None:
        return series
    return [(k, loss * rng.lognormal(0.0, 0.3)) for k, loss in series]


def break_removes_most_misfit(fit):
    """Two-regime criterion of acceptance check A8: RSS_single / RSS_two >= 4.

    Written as r2_two - r2_one >= 0.75 (1 - r2_one), so a perfect single line
    (r2_one = 1) cannot divide by zero.
    """
    return fit.r2_combined - fit.r2_single >= 0.75 * (1.0 - fit.r2_single)


class TestFitTwoSegment:
    def test_synthetic_kink(self):
        fit = fit_two_segment(synthetic_kink())
        assert abs(fit.break_index - 40) <= 1
        assert fit.left.gamma == pytest.approx(0.3, abs=0.01)
        assert fit.right.gamma == pytest.approx(0.05, abs=0.01)
        assert fit.r2_combined > fit.r2_single

    def test_straight_line_gains_nothing(self):
        series = [(k, math.exp(-0.1 * k)) for k in range(60)]
        fit = fit_two_segment(series)
        assert fit.r2_combined == pytest.approx(fit.r2_single, abs=1e-9)

    def test_misfit_criterion_separates_kink_from_noisy_exponential(self):
        # Control for the A8 gate: with ln-loss noise 0.3, the best break in a
        # single exponential only fits noise and must fail, while the kink
        # under the same noise must pass.
        rng = np.random.default_rng(12)
        single = [(k, 50.0 * math.exp(-0.1 * k) * rng.lognormal(0.0, 0.3)) for k in range(120)]
        assert not break_removes_most_misfit(fit_two_segment(single))
        assert break_removes_most_misfit(fit_two_segment(synthetic_kink(rng)))


class TestRunTrial:
    def test_zero_experiments(self):
        # A trial of no experiments is not a config the schema admits.
        with pytest.raises(SchemaError) as info:
            single_param_config(n_experiments=0)
        assert str(info.value) == "n_experiments: must be at least 1, got 0"

    @staticmethod
    def _improved_trials(designer=None):
        # Trials out of 100 (seeds 1000-1099) whose final loss beats the
        # median of their first five.  The loss after one datum alone is
        # heavy-tailed (a lucky first draw can sit orders of magnitude below
        # the median), so it would make trials that learn count as
        # regressions.
        config = single_param_config(particles=2000, n_experiments=50)
        model = build_model(config.model)
        improved = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            trajectory = run_trial(config, [0.0], rng, model=model, designer=designer)
            losses = trajectory.losses()
            improved += losses[-1] < np.median(losses[:5])
        return improved

    def test_loss_regression_statistical(self):
        # Box-center truth, exact evaluation: the loss must shrink in at
        # least 95 of 100 seeded trials.
        assert self._improved_trials() >= 95

    def test_loss_regression_control_without_information(self):
        # Control: at t = 0 every outcome has likelihood one under every
        # hypothesis, so nothing is learned and the criterion must fail.
        def blind_designer(cloud, rng):
            return ExperimentSpec(IQLE, 0.0, cloud.positions[0], TWO_OUTCOME)

        assert self._improved_trials(blind_designer) < 95

    def test_echo_designer_concentrates_posterior(self):
        # Pin the inversion at the truth (maximal-information limit) and
        # check the loss decreases run over run in the median.
        config = single_param_config(particles=1000, n_experiments=40)
        model = build_model(config.model)
        truth = np.array([0.2])
        pgh_cfg = PghConfig(kind=IQLE, measurement=TWO_OUTCOME)

        def echo_designer(cloud, rng):
            spec = pgh(cloud, pgh_cfg, rng)
            return ExperimentSpec(IQLE, spec.time, truth, TWO_OUTCOME)

        finals, starts = [], []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            trajectory = run_trial(config, truth, rng, model=model, designer=echo_designer)
            losses = trajectory.losses()
            starts.append(np.median(losses[:5]))
            finals.append(np.median(losses[-5:]))
        assert np.median(finals) < np.median(starts)

    def test_cost_ledger_exact_mode(self):
        config = single_param_config(particles=128, n_experiments=12)
        rng = np.random.default_rng(2)
        trajectory = run_trial(config, [0.1], rng)
        for index, record in enumerate(trajectory.records):
            assert record.sim_calls == (index + 1) * 128

    def test_cost_ledger_sampled_mode(self):
        config = single_param_config(
            particles=64,
            n_experiments=5,
            evaluator=EvaluatorConfig(mode="sampled", n_samp=7),
        )
        rng = np.random.default_rng(3)
        trajectory = run_trial(config, [0.1], rng)
        assert [r.sim_calls for r in trajectory.records] == [k * 64 * 7 for k in range(1, 6)]

    def test_ess_equals_count_after_resample(self):
        config = single_param_config(particles=300, n_experiments=60)
        rng = np.random.default_rng(4)
        trajectory = run_trial(config, [0.15], rng)
        resampled = [r for r in trajectory.records if r.resampled]
        assert resampled, "expected at least one resampling event"
        for record in resampled:
            assert record.ess == pytest.approx(300.0)

    def test_truth_dimension_checked(self):
        config = single_param_config()
        with pytest.raises(Exception):
            run_trial(config, [0.1, 0.2], np.random.default_rng(5))


class TestTrialSteps:
    @pytest.mark.parametrize("overrides, calls_per_update", [
        ({}, 300),
        ({"evaluator": EvaluatorConfig(mode="sampled", n_samp=20), "bitflip_alpha": 0.05},
         300 * 20),
    ], ids=["exact", "sampled-bitflip"])
    def test_run_trial_reduces_the_step_stream(self, overrides, calls_per_update):
        config = single_param_config(particles=300, n_experiments=40, **overrides)
        model = build_model(config.model)
        records = run_trial(config, [0.15], np.random.default_rng(9), model=model).records
        steps = list(trial_steps(config, [0.15], np.random.default_rng(9), model=model))
        assert len(steps) == 40 and any(step.resampled for step in steps)
        assert records == tuple(
            ExperimentRecord(
                loss=quadratic_loss(posterior_mean(step.cloud), [0.15]),
                ess=step.ess,
                resampled=step.resampled,
                time=step.spec.time,
                sim_calls=(index + 1) * calls_per_update,
                skipped=step.skipped,
            )
            for index, step in enumerate(steps)
        )

    @pytest.mark.parametrize("threshold", [0.2, 0.5, 0.8])
    def test_resamples_exactly_when_the_update_ess_is_below_threshold(self, threshold):
        # The exact evaluator draws nothing, so rescoring each step's datum
        # on the cloud it was designed from repeats the loop's update.
        config = single_param_config(
            particles=400, n_experiments=40, resample=ResampleConfig(threshold=threshold)
        )
        model = build_model(config.model)
        evaluator = LikelihoodEvaluator(model)
        prior = draw_prior_cloud(config, model, np.random.default_rng(10))
        steps = list(trial_steps(config, [0.15], np.random.default_rng(10), model=model))
        before = [prior] + [step.cloud for step in steps[:-1]]
        due = []
        for cloud, step in zip(before, steps):
            update = bayes_update(cloud, step.datum, step.spec, evaluator)
            due.append(update.ess < threshold * config.particles)
            assert step.resampled == due[-1]
            if not step.resampled:
                assert step.ess == update.ess
                assert step.cloud.weights.tobytes() == update.cloud.weights.tobytes()
        assert any(due) and not all(due)

    def test_zero_weight_step_is_skipped_and_keeps_its_cloud(self):
        class BlindAtTimeZero(IsingModel):
            # Every hypothesis scores zero at t = 0, so that update has no weight.
            def likelihood_many(self, outcome, xs, exp):
                values = super().likelihood_many(outcome, xs, exp)
                return values * 0.0 if exp.time == 0.0 else values

        config = single_param_config(particles=200, n_experiments=8)
        model = BlindAtTimeZero(model_graph(config.model))
        pgh_cfg = PghConfig(kind=IQLE, measurement=TWO_OUTCOME)

        def blind_fourth_designer():
            designed = []

            def designer(cloud, rng):
                spec = pgh(cloud, pgh_cfg, rng)
                designed.append(spec)
                if len(designed) == 4:
                    return ExperimentSpec(IQLE, 0.0, spec.inversion, TWO_OUTCOME)
                return spec
            return designer

        steps = list(trial_steps(config, [0.1], np.random.default_rng(11), model=model,
                                 designer=blind_fourth_designer()))
        assert [step.skipped for step in steps] == [k == 3 for k in range(8)]
        assert steps[3].cloud is steps[2].cloud
        assert not steps[3].resampled
        assert steps[3].ess == effective_sample_size(steps[2].cloud)
        records = run_trial(config, [0.1], np.random.default_rng(11), model=model,
                            designer=blind_fourth_designer()).records
        assert [r.skipped for r in records] == [k == 3 for k in range(8)]
        assert records[3].loss == records[2].loss


    @pytest.mark.parametrize("collapse_at", [0, 1, 5])
    def test_a_collapsed_cloud_ends_the_stream(self, collapse_at):
        config = single_param_config(particles=200, n_experiments=8)
        pgh_cfg = PghConfig(kind=IQLE, measurement=TWO_OUTCOME)

        def collapsing_designer():
            designed = []

            def designer(cloud, rng):
                if len(designed) == collapse_at:
                    raise DegenerateCloud("collapsed")
                designed.append(pgh(cloud, pgh_cfg, rng))
                return designed[-1]
            return designer

        steps = list(trial_steps(config, [0.1], np.random.default_rng(12),
                                 designer=collapsing_designer()))
        assert len(steps) == collapse_at
        records = run_trial(config, [0.1], np.random.default_rng(12),
                            designer=collapsing_designer()).records
        assert len(records) == collapse_at
        assert [r.time for r in records] == [step.spec.time for step in steps]


class TestDrawTruthAndPrior:
    def test_fixed_truth(self):
        config = single_param_config(truth=(0.3,))
        model = build_model(config.model)
        truth = draw_truth(config, model, np.random.default_rng(6))
        np.testing.assert_array_equal(truth, [0.3])

    def test_uniform_truth_in_box(self):
        config = RunConfig(model=ModelConfig(kind="ising", graph="line", n=4))
        model = build_model(config.model)
        rng = np.random.default_rng(7)
        for _ in range(50):
            truth = draw_truth(config, model, rng)
            assert truth.shape == (3,)
            assert np.all(truth >= -0.5) and np.all(truth <= 0.5)

    def test_degenerate_truth_nearly_shared(self):
        config = RunConfig(
            model=ModelConfig(
                kind="ising", graph="complete", n=4, box=(0.0, 100.0),
                degenerate_couplings=True,
            )
        )
        model = build_model(config.model)
        rng = np.random.default_rng(8)
        truth = draw_truth(config, model, rng)
        assert np.ptp(truth) < 0.1  # couplings agree to the jitter scale
        assert np.all(truth >= 0.0) and np.all(truth <= 100.0)

    def test_degenerate_prior_cloud_matches_structure(self):
        config = RunConfig(
            model=ModelConfig(
                kind="ising", graph="complete", n=4, box=(0.0, 100.0),
                degenerate_couplings=True,
            ),
            particles=4000,
        )
        model = build_model(config.model)
        cloud = draw_prior_cloud(config, model, np.random.default_rng(9))
        spreads = np.ptp(cloud.positions, axis=1)
        assert np.median(spreads) < 0.1  # each particle sits near the diagonal
        assert np.ptp(cloud.positions[:, 0]) > 50.0  # shared value spans the box
        assert np.all(cloud.positions >= 0.0) and np.all(cloud.positions <= 100.0)
        # A box as narrow as the jitter puts many raw draws outside it; like
        # the truth, the prior cloud must be clipped back in.
        narrow = RunConfig(
            model=ModelConfig(
                kind="ising", graph="complete", n=4, box=(0.0, 0.02),
                degenerate_couplings=True,
            ),
            particles=4000,
        )
        cloud = draw_prior_cloud(narrow, build_model(narrow.model), np.random.default_rng(9))
        assert np.all(cloud.positions >= 0.0) and np.all(cloud.positions <= 0.02)

    @staticmethod
    def _written_out_draws(config, model, rng):
        # The truth and the prior cloud as two separately written formulas,
        # drawn from the box tiled per edge.
        d, size = model.dimension, config.particles
        box = np.tile(config.model.box, (d, 1))
        if config.model.degenerate_couplings:
            shared = rng.uniform(box[0, 0], box[0, 1])
            truth = np.clip(shared + rng.normal(0.0, 1e-2, size=d), box[:, 0], box[:, 1])
            shared = rng.uniform(box[0, 0], box[0, 1], size=size)
            positions = shared[:, None] + rng.normal(0.0, 1e-2, size=(size, d))
            positions = np.clip(positions, box[:, 0], box[:, 1])
        else:
            truth = rng.uniform(box[:, 0], box[:, 1], size=d)
            positions = rng.uniform(box[:, 0], box[:, 1], size=(size, d))
        return truth, positions

    @pytest.mark.parametrize("degenerate, box", [(False, (-0.5, 0.5)), (True, (0.0, 0.02)),
                                                 (True, (0.0, 1.0))])
    def test_draws_match_written_out_formulas(self, degenerate, box):
        # Bit for bit, and the generator ends in the same state, so a trial's
        # stream does not move.
        config = RunConfig(
            model=ModelConfig(kind="ising", graph="complete", n=4, box=box,
                              degenerate_couplings=degenerate),
            particles=300,
        )
        model = build_model(config.model)
        for seed in range(20):
            ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            truth = draw_truth(config, model, ours)
            cloud = draw_prior_cloud(config, model, ours)
            expected_truth, expected_positions = self._written_out_draws(config, model, reference)
            np.testing.assert_array_equal(truth, expected_truth)
            np.testing.assert_array_equal(cloud.positions, expected_positions)
            np.testing.assert_array_equal(cloud.weights, np.full(300, 1.0 / 300))
            assert ours.random() == reference.random()


class TestUniformCloud:
    def test_inside_box_and_normalized(self):
        rng = np.random.default_rng(11)
        config = RunConfig(model=ModelConfig(graph="line", n=3, box=(5.0, 6.0)), particles=500)
        cloud = draw_prior_cloud(config, build_model(config.model), rng)
        assert cloud.dimension == 2
        assert np.all(cloud.positions >= 5.0) and np.all(cloud.positions <= 6.0)
        assert abs(cloud.weights.sum() - 1.0) < 1e-12

    def test_cloud_arrays_read_only(self):
        rng = np.random.default_rng(12)
        config = RunConfig(model=ModelConfig(kind="single", box=(0.0, 1.0)), particles=10)
        cloud = draw_prior_cloud(config, build_model(config.model), rng)
        with pytest.raises(ValueError):
            cloud.weights[0] = 2.0
        with pytest.raises(ValueError):
            cloud.positions[0, 0] = 2.0


class TestRunEnsemble:
    def test_single_trial_percentiles_collapse(self):
        config = single_param_config(trials=1)
        result = run_ensemble(config)
        losses = result.trajectories[0].losses()
        np.testing.assert_allclose(result.summary[:, 1], losses)
        np.testing.assert_allclose(result.summary[:, 2], losses)
        np.testing.assert_allclose(result.summary[:, 3], losses)

    def test_percentile_ordering(self):
        config = single_param_config(trials=5)
        result = run_ensemble(config)
        assert np.all(result.summary[:, 1] <= result.summary[:, 2])
        assert np.all(result.summary[:, 2] <= result.summary[:, 3])

    def test_deterministic_given_seed(self):
        config = single_param_config(trials=3, seed=123)
        first = run_ensemble(config)
        second = run_ensemble(config)
        for a, b in zip(first.trajectories, second.trajectories):
            np.testing.assert_array_equal(a.losses(), b.losses())
        np.testing.assert_array_equal(first.summary, second.summary)

    def test_permuting_seeds_permutes_trajectories(self):
        config = single_param_config(trials=4, seed=5)
        seeds = list(trial_seeds_for(config))
        base = run_ensemble(config, trial_seeds=seeds)
        permutation = [2, 0, 3, 1]
        shuffled = run_ensemble(config, trial_seeds=[seeds[i] for i in permutation])
        for new_idx, old_idx in enumerate(permutation):
            np.testing.assert_array_equal(
                shuffled.trajectories[new_idx].losses(),
                base.trajectories[old_idx].losses(),
            )

    def test_inline_runs_skip_the_process_pool(self):
        # The pool module is imported only when a pool starts.
        code = ("import sys, hamlearn.cli, hamlearn.harness; "
                "print('concurrent.futures.process' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert out.strip() == "False"

    def test_parallel_matches_serial(self):
        config = single_param_config(trials=4, seed=21)
        serial = run_ensemble(config, threads=1)
        parallel = run_ensemble(config, threads=2)
        for a, b in zip(serial.trajectories, parallel.trajectories):
            np.testing.assert_array_equal(a.losses(), b.losses())


def _mallopt_loads() -> bool:
    import ctypes

    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return True


def _run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout


class TestKeepFreedHeap:
    """`cli.main` keeps freed heap memory for reuse, once per process, where
    glibc's `mallopt` loads; each test runs in a fresh interpreter, because
    the setting lasts for the life of a process."""

    @pytest.mark.skipif(not _mallopt_loads(), reason="mallopt cannot be loaded here")
    def test_warm_round_reuses_freed_memory(self, tmp_path):
        # Without the setting, each step faults freed numpy temporaries back
        # in: a warm round of this config makes over 3000 minor faults.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "model": {"graph": "complete", "n": 4}, "particles": 5000,
            "n_experiments": 20, "trials": 1, "seed": 3,
        }))
        argv = ["learn", "--config", str(config), "--out", str(tmp_path / "out")]
        code = (
            "import contextlib, io, resource\n"
            "from hamlearn import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            f"    assert cli.main({argv!r}) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        assert int(_run_python(code)) < 1000

    @pytest.mark.parametrize("missing", ["symbol", "library"])
    def test_cli_runs_without_mallopt(self, tmp_path, missing):
        # "symbol": a C library without mallopt (macOS, musl); "library": no
        # handle to the process's C library at all (Windows).
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "model": {"kind": "single"}, "particles": 200, "n_experiments": 5, "trials": 1,
        }))
        argv = ["learn", "--config", str(config), "--out", str(tmp_path / "out")]
        code = (
            "import contextlib, ctypes, io\n"
            "class NoMallopt:\n"
            "    def __init__(self, name):\n"
            f"        if {missing!r} == 'library':\n"
            "            raise TypeError(name)\n"
            "ctypes.CDLL = NoMallopt\n"
            "from hamlearn import cli, harness\n"
            "print(harness._keep_freed_heap.cache_info().misses)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n"
            f"    assert cli.main({argv!r}) == 0\n"
            "print(harness._keep_freed_heap(), harness._keep_freed_heap.cache_info().misses)\n"
        )
        # Not run on import; run once for two commands; a no-op without mallopt.
        assert _run_python(code).split() == ["0", "False", "1"]


def make_trajectory(losses):
    # A record's index is its position in the trajectory.
    records = tuple(
        ExperimentRecord(loss, 1.0, False, 1.0, i, False)
        for i, loss in enumerate(losses)
    )
    return LossTrajectory(records)


class TestSummarizeLosses:
    def test_uneven_lengths(self):
        summary = summarize_losses([make_trajectory([4.0, 2.0]), make_trajectory([8.0])])
        assert summary.shape == (2, 4)
        assert summary[0, 2] == pytest.approx(6.0)
        assert summary[1, 2] == pytest.approx(2.0)  # only the longer trial

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_per_index_percentiles(self, seed):
        # The reference is one percentile call per experiment index, over the
        # trials that reached it.  The first trial converged early; on odd
        # seeds another converged before its first experiment.
        rng = np.random.default_rng(seed)
        lengths = [int(rng.integers(1, 8))] + list(rng.integers(8, 30, int(rng.integers(2, 8))))
        if seed % 2:
            lengths.append(0)
        trajectories = [make_trajectory(rng.lognormal(-3.0, 2.0, n)) for n in lengths]
        summary = summarize_losses(trajectories)
        length = max(lengths)
        assert summary.shape == (length, 4)
        for index in range(length):
            values = [t.records[index].loss for t in trajectories if len(t) > index]
            assert summary[index, 0] == index
            np.testing.assert_array_equal(summary[index, 1:],
                                          np.percentile(values, [25.0, 50.0, 75.0]))

    def test_no_trials(self):
        assert summarize_losses([]).shape == (0, 4)


class TestScalingStudy:
    def test_single_param_model_ignores_system_size(self):
        config = single_param_config(trials=2, n_experiments=25)
        rows, results = scaling_study(config, [2, 3, 4])
        assert [row.dimension for row in rows] == [1, 1, 1]
        assert all(row.trials_fit == 2 for row in rows)
        assert len(results) == 3

    def test_requires_two_sizes(self):
        with pytest.raises(ValueError):
            scaling_study(single_param_config(), [3])
