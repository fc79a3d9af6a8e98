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

_EPS = float(np.finfo(np.float64).eps)
# `weight_cdf` rejects weights further than this from summing to one, as
# numpy's Generator.choice does.
_CHOICE_SUM_TOL = float(np.sqrt(_EPS))


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

    The positions are stored coupling-major: ``positions.T`` is a
    C-contiguous (dimension, size) array, one row per coupling, so the
    resampler, the moments and the kernels broadcast over contiguous
    particles.  A read-only float64 array in that layout whose data cannot
    change under the cloud is shared, not copied: an update shares its
    positions with the cloud it came from.  Other arrays are copied once into
    that layout.
    """

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        positions = np.asarray(self.positions, dtype=float)
        if positions.ndim == 1:
            positions = positions.reshape(-1, 1)
        if positions.ndim != 2 or positions.shape[0] < 1 or positions.shape[1] < 1:
            raise ValueError("positions must be a nonempty (size, dimension) array")
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1:
            weights = weights.ravel()
        if weights.shape[0] != positions.shape[0]:
            raise DimensionMismatch(
                f"{weights.shape[0]} weights for {positions.shape[0]} particles"
            )
        if not np.all(np.isfinite(positions)):
            raise ValueError("particle positions must be finite")
        _check_weights(weights)
        object.__setattr__(self, "positions", _frozen(positions))
        object.__setattr__(self, "weights", _frozen(weights))

    @property
    def size(self) -> int:
        return self.positions.shape[0]

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]


def _check_weights(weights: np.ndarray) -> None:
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ValueError("weights must be finite and nonnegative")


def _frozen(array: np.ndarray) -> np.ndarray:
    """`array` if it is read-only, F-contiguous and its data cannot change,
    else a frozen F-ordered copy.

    The data cannot change when the array owns it, or when it is a view (such
    as the ``.T`` of a resampler's (dimension, size) array) of a read-only
    array that owns it.  A 1-D array is both C- and F-contiguous.
    """
    flags = array.flags
    base = array.base
    if flags.writeable or not flags.f_contiguous or not (
        flags.owndata
        or (isinstance(base, np.ndarray) and base.flags.owndata and not base.flags.writeable)
    ):
        array = array.copy(order="F")
        array.setflags(write=False)
    return array


def _freeze(array: np.ndarray) -> np.ndarray:
    """Mark read-only, in place, a fresh array that nothing else references,
    so that a cloud built on it, or on the ``.T`` of a (dimension, size)
    array, shares it instead of copying it."""
    array.setflags(write=False)
    return array


def _reweighted(cloud: ParticleCloud, weights: np.ndarray) -> ParticleCloud:
    """`cloud`'s positions with fresh `weights`.  The positions were checked
    and frozen when `cloud` was built, so only the weights are checked."""
    _check_weights(weights)
    updated = object.__new__(ParticleCloud)
    object.__setattr__(updated, "positions", cloud.positions)
    object.__setattr__(updated, "weights", _freeze(weights))
    return updated


class BayesUpdate(NamedTuple):
    cloud: ParticleCloud
    ess: float


def bayes_update(
    cloud: ParticleCloud,
    outcome: int,
    exp,
    model,
    rng: Optional[np.random.Generator] = None,
) -> BayesUpdate:
    """Reweight the cloud by the likelihood of `outcome` and renormalize.

    `model` must provide `likelihood_many(outcome, positions, exp, rng=rng)`;
    stochastic likelihood evaluators consume `rng`, exact models ignore it.
    Raises ZeroTotalWeight (leaving `cloud` untouched) when every particle is
    assigned zero likelihood; the caller decides whether to discard the datum.
    Returns the new cloud and its effective sample size.
    """
    likelihoods = np.asarray(
        model.likelihood_many(outcome, cloud.positions, exp, rng=rng), dtype=float
    ).ravel()
    if likelihoods.shape[0] != cloud.size:
        raise DimensionMismatch("model returned wrong number of likelihoods")
    weights = cloud.weights * likelihoods
    total = float(np.sum(weights))
    if total <= 0.0:
        raise ZeroTotalWeight("outcome has zero likelihood under every hypothesis")
    weights /= total
    updated = _reweighted(cloud, weights)
    return BayesUpdate(updated, effective_sample_size(updated))


def effective_sample_size(cloud: ParticleCloud) -> float:
    """Return 1 / sum(w_j^2), clipped into [1, size] against roundoff."""
    ess = 1.0 / float(np.sum(cloud.weights**2))
    return float(min(max(ess, 1.0), cloud.size))


def posterior_mean(cloud: ParticleCloud) -> np.ndarray:
    """Weighted mean of the particle positions."""
    return cloud.positions.T @ cloud.weights


def posterior_covariance(cloud: ParticleCloud) -> np.ndarray:
    """Weighted covariance of the particle positions (symmetric PSD)."""
    return _moments(cloud)[1]


def _moments(cloud: ParticleCloud):
    """Weighted mean and covariance, skipping weights below eps/size: they
    hold under eps of the mass, so the mean moves by at most eps * max|x| and
    the covariance by about eps * max|x - mean|^2."""
    weights = cloud.weights
    weights = np.where(weights < _EPS / weights.shape[0], 0.0, weights)
    rows = cloud.positions.T  # (dimension, size), one contiguous row per coupling
    mean = rows @ weights
    centered = rows - mean[:, None]
    cov = (centered * weights) @ centered.T
    return mean, 0.5 * (cov + cov.T)


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


def _cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    # Late-stage clouds collapse; a trace-scaled floor keeps the Cholesky
    # factor well defined without visibly perturbing healthy covariances.
    d = cov.shape[0]
    eps = 1e-12 * max(1.0, float(np.trace(cov)) / d)
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

    Parents are a systematic draw (Douc & Cappe 2005): one uniform u puts the
    points (k + 1 - u) / n, k < n, on the weights' cumulative sum, so particle
    j gets N_j offspring with |N_j - n w_j| < 1 and zero weights get none, in
    O(n) and with less variance than a multinomial draw.  Each offspring is
    sampled from a Gaussian centered at ``a * parent + (1 - a) * mean`` with
    covariance ``(1 - a^2) * Cov``, which preserves the mean and covariance in
    expectation.  The moments skip weights below eps/size, such as the ghosts
    near 1e-303 that floored likelihoods leave, whose products are subnormal
    and slow.  All new weights equal 1/size; with a = 1 the offspring are
    exact copies of their parents.
    """
    if rng is None:
        raise ValueError("liu_west_resample requires an explicit rng")
    if not 0.0 <= a <= 1.0:
        raise ValueError("mixing parameter a must lie in [0, 1]")
    n = cloud.size
    edges = np.floor(n * weight_cdf(cloud.weights) + rng.random())
    np.minimum(edges, n, out=edges)  # n + u rounds up to n + 1 for u near 1
    counts = np.diff(edges, prepend=0.0).astype(np.intp)
    # (dimension, n): one contiguous row of offspring per coupling.
    parents = cloud.positions.T.take(np.repeat(np.arange(n), counts), axis=1)
    del edges, counts  # freed before the moments, to keep the peak memory down
    uniform = _freeze(np.full(n, 1.0 / n))
    if a == 1.0:
        return ParticleCloud(_freeze(parents).T, uniform)
    mean, cov = _moments(cloud)
    scale = np.sqrt(1.0 - a * a) * _cholesky_with_jitter(cov)
    # a * parent + (1 - a) * mean + kick, in place in the parents' array.  The
    # normals are drawn row-major, one row per offspring, as
    # standard_normal((n, d)) always drew them; drawing into a coupling-major
    # array would fill it in memory order and hand each offspring other kicks.
    parents *= a
    parents += ((1.0 - a) * mean)[:, None]
    parents += scale @ rng.standard_normal((n, cloud.dimension)).T
    return ParticleCloud(_freeze(parents).T, uniform)


def weight_cdf(weights: np.ndarray) -> np.ndarray:
    """Normalized cumulative sum of `weights`, as ``Generator.choice`` builds it.

    ``weight_cdf(w).searchsorted(rng.random(), side="right")`` is the draw of
    ``rng.choice(n, p=w)`` (PGH and the outcome at the truth); the resampler
    lays its systematic points on it.  Raises ValueError, as choice does, when
    weights do not sum to one or their sum is NaN.
    """
    cdf = np.cumsum(weights)
    if not abs(cdf[-1] - 1.0) <= _CHOICE_SUM_TOL:
        raise ValueError("probabilities do not sum to 1")
    cdf /= cdf[-1]
    return cdf

