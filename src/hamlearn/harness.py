"""Batch orchestration of learning trials.

`trial_steps` is the one trial loop: design an experiment from the posterior,
draw an outcome at the hidden truth, reweight, resample when the effective
sample size sags, and yield a `Step`.  `run_trial` reduces the steps to loss
records.  Ensembles run trials on independent RNG streams and aggregate loss
percentiles; decay-exponent fits summarize how fast the loss shrinks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .config import ModelConfig, RunConfig, model_graph
from .design import PghConfig, pgh
from .errors import DegenerateCloud, InsufficientData, ZeroTotalWeight
from .models import TWO_OUTCOME, ExperimentSpec, IsingModel
from .simulate import LikelihoodEvaluator, sample_outcome
from .smc import (
    ParticleCloud,
    bayes_update,
    effective_sample_size,
    liu_west_resample,
    posterior_mean,
    quadratic_loss,
)


@dataclass(frozen=True)
class ExperimentRecord:
    """One completed experiment inside a trial; its index is its position."""

    loss: float
    ess: float
    resampled: bool
    time: float
    sim_calls: int
    skipped: bool = False


@dataclass(frozen=True)
class LossTrajectory:
    """Per-experiment records for one trial."""

    records: Tuple[ExperimentRecord, ...]

    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of loss ~ amplitude * exp(-gamma * index)."""

    amplitude: float
    gamma: float
    r2: float
    window: Tuple[int, int]


@dataclass(frozen=True)
class TwoSegmentFit:
    """Piecewise log-linear fit with a single break point."""

    left: DecayFit
    right: DecayFit
    break_index: int
    r2_combined: float
    r2_single: float


@dataclass(frozen=True)
class EnsembleResult:
    trajectories: Tuple[LossTrajectory, ...]
    summary: np.ndarray  # columns: index, p25, p50, p75
    fits: Tuple[Optional[DecayFit], ...]
    config: RunConfig
    trial_seeds: Tuple[int, ...]


def build_model(model_config: ModelConfig) -> IsingModel:
    """Instantiate the likelihood model described by a config block."""
    return IsingModel(model_graph(model_config))


# Per-edge jitter applied to near-degenerate prior draws (variance 1e-4).
DEGENERATE_JITTER_STD = 1e-2


def draw_prior(
    config: RunConfig, model: IsingModel, size: int, rng: np.random.Generator
) -> np.ndarray:
    """`size` coupling vectors drawn from the config's prior, shape (size, d).

    Plain runs draw every coupling uniformly on the box.  Near-degenerate
    runs draw one shared value per row uniformly on the box and add small
    Gaussian jitter per edge, clipped back into the box, so the learning
    problem is effectively one-dimensional until the shared value is pinned
    down.
    """
    low, high = config.model.box
    if not config.model.degenerate_couplings:
        return rng.uniform(low, high, size=(size, model.dimension))
    shared = rng.uniform(low, high, size=(size, 1))
    positions = shared + rng.normal(0.0, DEGENERATE_JITTER_STD, size=(size, model.dimension))
    return np.clip(positions, low, high)


def draw_truth(config: RunConfig, model: IsingModel, rng: np.random.Generator) -> np.ndarray:
    """The configured true coupling vector, or one draw from the prior."""
    if config.truth is not None:
        return np.asarray(config.truth, dtype=float)
    return draw_prior(config, model, 1, rng)[0]


def draw_prior_cloud(
    config: RunConfig, model: IsingModel, rng: np.random.Generator
) -> ParticleCloud:
    """Initial particle cloud: `config.particles` prior draws, uniform weights."""
    positions = draw_prior(config, model, config.particles, rng)
    return ParticleCloud(positions, np.full(config.particles, 1.0 / config.particles))


class Step(NamedTuple):
    """One experiment: its design, the datum, and the filter's state after it."""

    spec: ExperimentSpec
    datum: int
    cloud: ParticleCloud
    ess: float
    resampled: bool
    skipped: bool


def trial_steps(
    config: RunConfig,
    truth,
    rng: np.random.Generator,
    model: Optional[IsingModel] = None,
    designer: Optional[Callable] = None,
) -> Iterator[Step]:
    """The trial loop: one `Step` per experiment, up to `config.n_experiments`.

    `designer(cloud, rng) -> ExperimentSpec` defaults to the particle guess
    heuristic.  A zero-total-weight update is a skipped step that keeps its
    cloud; a collapsed cloud ends the stream early.
    """
    model = model if model is not None else build_model(config.model)
    evaluator = LikelihoodEvaluator(model, **vars(config.evaluator))
    if designer is None:
        pgh_cfg = PghConfig(**vars(config.pgh), **vars(config.experiment))
        designer = lambda cloud, stream: pgh(cloud, pgh_cfg, stream)
    cloud = draw_prior_cloud(config, model, rng)
    for _ in range(config.n_experiments):
        try:
            spec = designer(cloud, rng)
        except DegenerateCloud:
            return
        datum = sample_outcome(model, truth, spec, rng)
        if config.bitflip_alpha > 0 and spec.measurement == TWO_OUTCOME:
            if rng.random() < config.bitflip_alpha:
                datum = 1 - datum
        try:
            cloud, ess = bayes_update(cloud, datum, spec, evaluator, rng=rng)
        except ZeroTotalWeight:
            yield Step(spec, datum, cloud, effective_sample_size(cloud), False, True)
            continue
        resampled = ess < config.resample.threshold * cloud.size
        if resampled:
            cloud = liu_west_resample(cloud, config.resample.a, rng)
            ess = effective_sample_size(cloud)
        yield Step(spec, datum, cloud, ess, resampled, False)


def run_trial(
    config: RunConfig,
    truth,
    rng: np.random.Generator,
    model: Optional[IsingModel] = None,
    designer: Optional[Callable] = None,
) -> LossTrajectory:
    """Reduce one trial's `trial_steps` to one record per step."""
    model = model if model is not None else build_model(config.model)
    evaluator = LikelihoodEvaluator(model, **vars(config.evaluator))
    per_update = evaluator.calls_per_update(config.particles)
    records: List[ExperimentRecord] = []
    for step in trial_steps(config, truth, rng, model, designer):
        records.append(ExperimentRecord(
            loss=quadratic_loss(posterior_mean(step.cloud), truth),
            ess=step.ess,
            resampled=step.resampled,
            time=step.spec.time,
            sim_calls=(len(records) + 1) * per_update,
            skipped=step.skipped,
        ))
        del step  # hold no step's cloud while the loop computes the next step
    return LossTrajectory(tuple(records))


@functools.cache
def _keep_freed_heap() -> bool:
    """Keep freed heap memory in this process for reuse; run once per process.

    By default glibc returns each freed numpy temporary of a few hundred KB
    to the kernel, by unmapping it or trimming the heap top, and the next
    step of a trial faults the same pages back in, zeroed.  Raising the mmap
    threshold to 32 MiB (glibc's ceiling on 64-bit) and the trim threshold
    to 64 MiB keeps them in the heap.  Returns whether both settings took;
    a no-op returning False wherever `mallopt` cannot be loaded (macOS,
    musl, Windows).  `cli.main` calls it, and so does each worker process
    of `run_ensemble`'s pool.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    trim = mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD in glibc's malloc.h
    mmap = mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    return trim == mmap == 1


def _run_one_seeded_trial(args) -> LossTrajectory:
    config, seed = args
    rng = np.random.default_rng(seed)
    model = build_model(config.model)
    truth = draw_truth(config, model, rng)
    return run_trial(config, truth, rng, model=model)


def trial_seeds_for(config: RunConfig) -> Tuple[int, ...]:
    """Per-trial integer seeds derived deterministically from the master seed."""
    words = np.random.SeedSequence(config.seed).generate_state(config.trials, dtype=np.uint64)
    return tuple(int(w) for w in words)


def run_ensemble(
    config: RunConfig,
    threads: int = 1,
    trial_seeds: Optional[Sequence[int]] = None,
) -> EnsembleResult:
    """Run `config.trials` independent trials and aggregate loss percentiles.

    Each trial owns one integer seed; its truth draw and every random choice
    inside the trial come from that seed's stream, so a trajectory is a pure
    function of (config, seed) and permuting seeds permutes trajectories.
    `threads` counts worker processes (0 means one per CPU, 1 means inline).
    """
    if trial_seeds is None:
        trial_seeds = trial_seeds_for(config)
    if len(trial_seeds) != config.trials:
        raise ValueError(f"need {config.trials} trial seeds, got {len(trial_seeds)}")
    jobs = [(config, seed) for seed in trial_seeds]
    if threads == 1 or config.trials == 1:
        trajectories = [_run_one_seeded_trial(job) for job in jobs]
    else:
        # Imported only when a pool starts: inline runs skip its start-up cost.
        from concurrent.futures import ProcessPoolExecutor

        workers = threads if threads > 0 else None
        with ProcessPoolExecutor(max_workers=workers, initializer=_keep_freed_heap) as pool:
            trajectories = list(pool.map(_run_one_seeded_trial, jobs))

    summary = summarize_losses(trajectories)
    fits = []
    for trajectory in trajectories:
        try:
            fits.append(fit_decay(enumerate(trajectory.losses()), window=config.fit_window))
        except InsufficientData:
            fits.append(None)
    return EnsembleResult(
        tuple(trajectories), summary, tuple(fits), config, tuple(trial_seeds)
    )


def summarize_losses(trajectories: Sequence[LossTrajectory]) -> np.ndarray:
    """Rows (index, p25, p50, p75) across trials, linear-interpolated."""
    lengths = [len(t) for t in trajectories]
    length = max(lengths, default=0)
    shared = min(lengths, default=0)
    rows = np.empty((length, 4))
    rows[:, 0] = np.arange(length)
    # One call over the indices every trial reached; only the ragged tail,
    # past the trials that converged early, goes index by index.
    if shared:
        losses = np.array([[r.loss for r in t.records[:shared]] for t in trajectories])
        rows[:shared, 1:] = np.percentile(losses, [25.0, 50.0, 75.0], axis=0).T
    for index in range(shared, length):
        values = [t.records[index].loss for t in trajectories if len(t) > index]
        rows[index, 1:] = np.percentile(values, [25.0, 50.0, 75.0])
    return rows


def _window_points(series, window: float):
    points = [(int(i), float(loss)) for i, loss in series]
    start = int(math.floor(window * len(points)))
    usable = [(i, loss) for i, loss in points[start:] if loss > 0]
    if len(usable) < 5:
        raise InsufficientData(
            f"{len(usable)} positive points after the transient window; need 5"
        )
    indices = np.array([i for i, _ in usable], dtype=float)
    logs = np.log(np.array([loss for _, loss in usable]))
    return indices, logs


def _line_fit(indices: np.ndarray, logs: np.ndarray) -> Tuple[DecayFit, float]:
    """The least-squares line through (index, ln loss) as a DecayFit, and its residual."""
    slope, intercept = np.polyfit(indices, logs, 1)
    predicted = slope * indices + intercept
    residual = float(np.sum((logs - predicted) ** 2))
    total = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if total == 0.0 else 1.0 - residual / total
    fit = DecayFit(
        amplitude=float(np.exp(intercept)),
        gamma=float(-slope),
        r2=float(r2),
        window=(int(indices[0]), int(indices[-1])),
    )
    return fit, residual


def fit_decay(series, window: float = 0.1) -> DecayFit:
    """Fit ln(loss) vs experiment index with the leading transient dropped.

    `window` is the fraction of leading experiments excluded before the
    least-squares line fit; at least 5 positive-loss points must remain.
    """
    return _line_fit(*_window_points(series, window))[0]


def fit_two_segment(series, window: float = 0.0, min_points: int = 5) -> TwoSegmentFit:
    """Best single-break piecewise log-linear fit of a loss series.

    Scans every break position leaving at least `min_points` on each side,
    refits both sides, and keeps the break with the highest combined r^2
    (computed against the pooled variance, so it is directly comparable to
    the single-line r^2 also returned).
    """
    indices, logs = _window_points(series, window)
    if indices.size < 2 * min_points:
        raise InsufficientData(
            f"{indices.size} points cannot support two segments of {min_points}"
        )
    r2_single = _line_fit(indices, logs)[0].r2
    total = float(np.sum((logs - logs.mean()) ** 2))

    best = None
    for cut in range(min_points, indices.size - min_points + 1):
        left, left_residual = _line_fit(indices[:cut], logs[:cut])
        right, right_residual = _line_fit(indices[cut:], logs[cut:])
        residual = left_residual + right_residual
        r2_combined = 1.0 if total == 0.0 else 1.0 - residual / total
        if best is None or r2_combined > best[0]:
            best = (r2_combined, cut, left, right)

    r2_combined, cut, left, right = best
    return TwoSegmentFit(
        left=left,
        right=right,
        break_index=int(indices[cut]),
        r2_combined=float(r2_combined),
        r2_single=float(r2_single),
    )


@dataclass(frozen=True)
class ScalingRow:
    n: int
    dimension: int
    median_gamma: float
    trials_fit: int


def scaling_study(
    base_config: RunConfig, n_values: Sequence[int], threads: int = 1
) -> Tuple[List[ScalingRow], List[EnsembleResult]]:
    """Median decay exponent versus model dimension across system sizes.

    Each size runs a full ensemble (with a size-specific sub-seed) and the
    per-trial decay exponents are reduced to their median.
    """
    if len(n_values) < 2:
        raise ValueError("need at least two system sizes")
    rows: List[ScalingRow] = []
    results: List[EnsembleResult] = []
    children = np.random.SeedSequence(base_config.seed).spawn(len(n_values))
    for child, n in zip(children, n_values):
        config = replace(
            base_config,
            model=replace(base_config.model, n=int(n)),
            seed=int(child.generate_state(1, dtype=np.uint64)[0]),
        )
        result = run_ensemble(config, threads=threads)
        gammas = [fit.gamma for fit in result.fits if fit is not None]
        if not gammas:
            raise InsufficientData(f"no usable decay fits at n={n}")
        rows.append(
            ScalingRow(
                n=int(n),
                dimension=model_graph(config.model).dimension,
                median_gamma=float(np.median(gammas)),
                trials_fit=len(gammas),
            )
        )
        results.append(result)
    return rows, results
