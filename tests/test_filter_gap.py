"""The filter gap: the particle filter's loss against the exact posterior's.

On one coupling the exact posterior of a trial's data is a product of
closed-form likelihoods.  The reference here scores them on a dense grid
over the prior box, reading each step's experiment and datum from
`trial_steps`; it shares no kernel code with the filter, because it scores
with `single_param_likelihood`, not `likelihood_many`.  The test is a
report: it prints the median per-trial ratio of the filter's loss to the
exact posterior's loss and gates nothing.

Run with `pytest tests/test_filter_gap.py -s` to see the line.
"""

import time
from dataclasses import replace

import numpy as np

from hamlearn.config import ModelConfig, ResampleConfig, RunConfig
from hamlearn.harness import build_model, draw_truth, trial_seeds_for, trial_steps
from hamlearn.models import single_param_likelihood
from hamlearn.smc import posterior_mean, quadratic_loss

CHECKPOINTS = (10, 20, 40)
SEED_BLOCKS = (31, 41, 51)
GRID_POINTS = 200_001
# Full-basis outcomes of the 2-qubit pair: D = 1 and D = 2 have probability
# zero, and D = 3 (both qubits flipped) is the one-coupling outcome d = 1.
ECHO_OUTCOME = {0: 0, 3: 1}

CONFIG = RunConfig(
    model=ModelConfig(graph="line", n=2, box=(-0.5, 0.5)),
    particles=2000,
    resample=ResampleConfig(a=0.9),
    n_experiments=max(CHECKPOINTS),
    trials=8,
)


def filter_and_exact_losses(config: RunConfig, trial_seed: int):
    """(filter loss, exact loss) at each checkpoint one trial reaches.

    The trial is the one `run_ensemble` runs for `trial_seed`.  The exact
    posterior is the uniform prior on a grid over the box times every
    datum's likelihood, kept as a log density so that it cannot underflow.
    """
    rng = np.random.default_rng(trial_seed)
    model = build_model(config.model)
    truth = draw_truth(config, model, rng)
    grid = np.linspace(*config.model.box, GRID_POINTS)
    log_density = np.zeros(GRID_POINTS)
    losses = []
    for count, step in enumerate(trial_steps(config, truth, rng, model), start=1):
        likelihood = single_param_likelihood(
            ECHO_OUTCOME[step.datum], grid, step.spec.inversion[0], step.spec.time
        )
        with np.errstate(divide="ignore"):
            log_density += np.log(likelihood)
        if count in CHECKPOINTS:
            weights = np.exp(log_density - log_density.max())
            exact_mean = float(grid @ weights / weights.sum())
            losses.append((
                quadratic_loss(posterior_mean(step.cloud), truth),
                quadratic_loss([exact_mean], truth),
            ))
    return losses


def test_filter_loss_over_exact_posterior_loss_report():
    started = time.perf_counter()
    rows = {count: [] for count in CHECKPOINTS}
    for block in SEED_BLOCKS:
        ratios = {count: [] for count in CHECKPOINTS}
        for trial_seed in trial_seeds_for(replace(CONFIG, seed=block)):
            for count, (filtered, exact) in zip(
                CHECKPOINTS, filter_and_exact_losses(CONFIG, trial_seed)
            ):
                ratios[count].append(filtered / exact)
        for count in CHECKPOINTS:
            rows[count].append(f"{np.median(ratios[count]):.1f}" if ratios[count] else "-")
    table = "; ".join(f"after {count}: {' / '.join(rows[count])}" for count in CHECKPOINTS)
    print(
        f"[filter gap] median filter/exact loss, line(2) full-basis IQLE, "
        f"{CONFIG.particles} particles, {CONFIG.trials} trials per seed block "
        f"{'/'.join(map(str, SEED_BLOCKS))}: {table} "
        f"({time.perf_counter() - started:.1f}s)"
    )
