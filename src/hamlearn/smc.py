"""Particle-filter representation of the posterior over coupling parameters.

The posterior over coupling vectors is approximated by a weighted cloud of
point hypotheses (particles).  Operations never mutate a cloud: they return
new clouds, and the arrays held by a cloud are marked read-only so one cloud
can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionMismatch, ZeroTotalWeight

# Resampling rejects weights further than this from summing to one, as
# numpy's Generator.choice does.
_CHOICE_SUM_TOL = float(np.sqrt(np.finfo(np.float64).eps))


@dataclass(frozen=True)
class ParticleCloud:
    """Weighted set {(w_j, x_j)} of point hypotheses in parameter space.

    Attributes
    ----------
    positions : ndarray, shape (size, dimension)
        One coupling vector per particle.  A 1-D array is accepted and
        treated as a single-coupling cloud of shape (size, 1).
    weights : ndarray, shape (size,)
        Nonnegative probability masses.  The constructor does not require
        them to sum to one; public operations return normalized clouds,
        whose weights sum to one within 1e-12, also after 200 successive
        updates with likelihoods down to `models.LIKELIHOOD_FLOOR`.
    """

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=float)
        if positions.ndim == 1:
            positions = positions.reshape(-1, 1)
        if positions.ndim != 2 or positions.shape[0] < 1 or positions.shape[1] < 1:
            raise ValueError("positions must be a nonempty (size, dimension) array")
        weights = np.asarray(self.weights, dtype=float).ravel()
        if weights.shape[0] != positions.shape[0]:
            raise DimensionMismatch(
                f"{weights.shape[0]} weights for {positions.shape[0]} particles"
            )
        if not np.all(np.isfinite(positions)):
            raise ValueError("particle positions must be finite")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise ValueError("weights must be finite and nonnegative")
        positions = positions.copy()
        weights = weights.copy()
        positions.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self) -> int:
        return self.positions.shape[0]

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]


class BayesUpdate(NamedTuple):
    cloud: ParticleCloud
    ess: float
    resample_due: bool


def uniform_cloud(box, size: int, rng: np.random.Generator) -> ParticleCloud:
    """Draw `size` particles i.i.d. uniform over a (d, 2) box, uniform weights."""
    box = np.atleast_2d(np.asarray(box, dtype=float))
    if box.shape[1] != 2 or np.any(box[:, 0] > box[:, 1]):
        raise ValueError("box must be a (d, 2) array of [low, high] bounds")
    if size < 1:
        raise ValueError("size must be at least 1")
    positions = rng.uniform(box[:, 0], box[:, 1], size=(size, box.shape[0]))
    return ParticleCloud(positions, np.full(size, 1.0 / size))


def bayes_update(
    cloud: ParticleCloud,
    outcome: int,
    exp,
    model,
    rng: Optional[np.random.Generator] = None,
    resample_threshold: float = 0.5,
) -> BayesUpdate:
    """Reweight the cloud by the likelihood of `outcome` and renormalize.

    `model` must provide `likelihood_many(outcome, positions, exp, rng=rng)`;
    stochastic likelihood evaluators consume `rng`, exact models ignore it.
    Raises ZeroTotalWeight (leaving `cloud` untouched) when every particle is
    assigned zero likelihood; the caller decides whether to discard the datum.
    The returned flag reports whether the post-update effective sample size
    fell below ``resample_threshold * cloud.size``.
    """
    likelihoods = np.asarray(
        model.likelihood_many(outcome, cloud.positions, exp, rng=rng), dtype=float
    ).ravel()
    if likelihoods.shape[0] != cloud.size:
        raise DimensionMismatch("model returned wrong number of likelihoods")
    raw = cloud.weights * likelihoods
    total = float(np.sum(raw))
    if total <= 0.0:
        raise ZeroTotalWeight("outcome has zero likelihood under every hypothesis")
    updated = ParticleCloud(cloud.positions, raw / total)
    ess = effective_sample_size(updated)
    return BayesUpdate(updated, ess, ess < resample_threshold * updated.size)


def effective_sample_size(cloud: ParticleCloud) -> float:
    """Return 1 / sum(w_j^2), clipped into [1, size] against roundoff."""
    ess = 1.0 / float(np.sum(cloud.weights**2))
    return float(min(max(ess, 1.0), cloud.size))


def posterior_mean(cloud: ParticleCloud) -> np.ndarray:
    """Weighted mean of the particle positions."""
    return cloud.weights @ cloud.positions


def posterior_covariance(cloud: ParticleCloud) -> np.ndarray:
    """Weighted covariance of the particle positions (symmetric PSD)."""
    return _covariance_about(cloud, posterior_mean(cloud))


def _covariance_about(cloud: ParticleCloud, mean: np.ndarray) -> np.ndarray:
    centered = cloud.positions - mean
    cov = (centered * cloud.weights[:, None]).T @ centered
    return 0.5 * (cov + cov.T)


def quadratic_loss(estimate, truth) -> float:
    """Squared 2-norm error ||estimate - truth||^2."""
    estimate = np.asarray(estimate, dtype=float).ravel()
    truth = np.asarray(truth, dtype=float).ravel()
    if estimate.shape != truth.shape:
        raise DimensionMismatch(
            f"estimate has dimension {estimate.shape[0]}, truth {truth.shape[0]}"
        )
    diff = estimate - truth
    return float(diff @ diff)


def _regularization_eps(cov: np.ndarray) -> float:
    # Late-stage clouds collapse; a trace-scaled floor keeps the Cholesky
    # factor well defined without visibly perturbing healthy covariances.
    d = cov.shape[0]
    return 1e-12 * max(1.0, float(np.trace(cov)) / d)


def _cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    d = cov.shape[0]
    eps = _regularization_eps(cov)
    for _ in range(16):
        try:
            return np.linalg.cholesky(cov + eps * np.eye(d))
        except np.linalg.LinAlgError:
            eps *= 10.0
    raise np.linalg.LinAlgError("covariance could not be regularized")


def liu_west_resample(
    cloud: ParticleCloud, a: float = 0.9, rng: Optional[np.random.Generator] = None
) -> ParticleCloud:
    """Moment-preserving resample of the cloud.

    Parents are drawn multinomially by weight; each offspring is sampled from
    a Gaussian centered at ``a * parent + (1 - a) * mean`` with covariance
    ``(1 - a^2) * Cov``, so the cloud's mean and covariance are preserved in
    expectation.  All new weights equal 1/size.  With a = 1 the offspring are
    exact copies of their parents.
    """
    if rng is None:
        raise ValueError("liu_west_resample requires an explicit rng")
    if not 0.0 <= a <= 1.0:
        raise ValueError("mixing parameter a must lie in [0, 1]")
    n, d = cloud.size, cloud.dimension
    parents = np.take(cloud.positions, _draw_parents(cloud.weights, rng), axis=0)
    uniform = np.full(n, 1.0 / n)
    if a == 1.0:
        return ParticleCloud(parents, uniform)
    mean = posterior_mean(cloud)
    scale = np.sqrt(1.0 - a * a) * _cholesky_with_jitter(_covariance_about(cloud, mean))
    # a * parent + (1 - a) * mean + kick, built in place in the parents' array
    parents *= a
    parents += (1.0 - a) * mean
    parents += rng.standard_normal((n, d)) @ scale.T
    return ParticleCloud(parents, uniform)


def weight_cdf(weights: np.ndarray) -> np.ndarray:
    """Normalized cumulative sum of `weights`, as ``Generator.choice`` builds it.

    ``weight_cdf(w).searchsorted(rng.random(), side="right")`` is then the
    draw of ``rng.choice(n, p=w)``.  Raises ValueError, as choice does, when
    the weights do not sum to one.
    """
    cdf = np.cumsum(weights)
    if abs(cdf[-1] - 1.0) > _CHOICE_SUM_TOL:
        raise ValueError("probabilities do not sum to 1")
    cdf /= cdf[-1]
    return cdf


def _draw_parents(weights: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Multinomial parent indices: the draws of ``rng.choice(n, n, p=weights)``.

    The same uniforms are located in the same normalized cumulative sum, but
    in sorted order, which keeps the binary searches cache-friendly; the
    results are scattered back to draw order.
    """
    cdf = weight_cdf(weights)
    uniforms = rng.random(weights.shape[0])
    order = np.argsort(uniforms)
    picks = np.empty(weights.shape[0], dtype=np.intp)
    picks[order] = np.searchsorted(cdf, uniforms[order], side="right")
    return picks
