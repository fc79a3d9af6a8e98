"""References the tests check the package against, in a module pytest does not
collect: quadrature of the one-coupling posterior moments (the closed forms of
`hamlearn.risk`), the risk envelope (A1, A3) and a two-regime fit (A8)."""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from hamlearn.errors import InsufficientData
from hamlearn.harness import DecayFit, _line_fit, _window_points
from hamlearn.models import bitflip_wrap, single_param_likelihood

# Quadrature covers mu +/- 10 sigma; the Gaussian tail beyond that is ~1e-23.
_QUAD_HALF_WIDTH = 10.0
_QUAD_EPSREL = 1e-10
_QUAD_LIMIT = 200


class QuadratureFailure(ArithmeticError):
    """Adaptive quadrature could not reach the requested tolerance."""


def _quad(f, lo: float, hi: float) -> float:
    with warnings.catch_warnings():
        # non-convergence is reported through QuadratureFailure instead
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, err = integrate.quad(f, lo, hi, epsabs=1e-14, epsrel=_QUAD_EPSREL,
                                    limit=_QUAD_LIMIT)
    if err > max(1e-12, 1e-6 * abs(value)):
        raise QuadratureFailure(
            f"quadrature error estimate {err:.3e} too large for value {value:.6e}"
        )
    return value


def _quadrature_moments(prior, x_inv: float, t: float):
    """Per-outcome (mass, E[x * L], E[x^2 * L]), by adaptive quadrature.

    Only the outcome-0 integrals are computed; outcome 1 follows from the
    complements mass_1 = 1 - mass_0, etc., because the two likelihoods sum
    to one pointwise.
    """
    lo = prior.mu - _QUAD_HALF_WIDTH * prior.sigma
    hi = prior.mu + _QUAD_HALF_WIDTH * prior.sigma

    def weighted(x: float) -> float:
        z = (x - prior.mu) / prior.sigma
        pdf = math.exp(-0.5 * z * z) / (prior.sigma * math.sqrt(2.0 * math.pi))
        return single_param_likelihood(0, x, x_inv, t) * pdf

    mass = _quad(weighted, lo, hi)
    first = _quad(lambda x: x * weighted(x), lo, hi)
    second = _quad(lambda x: x * x * weighted(x), lo, hi)
    prior_second = prior.mu**2 + prior.sigma**2
    return (mass, first, second), (1.0 - mass, prior.mu - first, prior_second - second)


def quadrature_posterior_mean_1d(d: int, prior, x_inv: float, t: float) -> float:
    """Posterior mean after observing outcome d in {0, 1}, by quadrature."""
    mass, first, _ = _quadrature_moments(prior, x_inv, t)[d]
    return first / mass


def quadrature_bayes_risk_1d(prior, x_inv: float, t: float, alpha: float = 0.0) -> float:
    """`hamlearn.risk.bayes_risk_1d` by quadrature, for scalar arguments whose
    data masses stay far above the floor below which the package rejects a datum."""
    risk = 0.0
    for mass, first, second in _quadrature_moments(prior, x_inv, t):
        mean = first / mass
        risk += bitflip_wrap(alpha, mass) * (second / mass - mean * mean)
    return risk


def risk_envelope(t, sigma: float):
    """Lower and upper bounds on the noiseless risk at evolution time t."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        u = 4.0 * sigma**2 * t**2
        # u e^{-u} -> 0 as u -> inf, where the product itself is inf * 0
        lower = sigma**2 * (1.0 - np.where(np.isinf(u), 0.0, u * np.exp(-u)))
    upper = np.full_like(lower, sigma**2)
    if lower.ndim == 0:
        return float(lower), float(upper)
    return lower, upper


@dataclass(frozen=True)
class TwoSegmentFit:
    """Piecewise log-linear fit with a single break point."""

    left: DecayFit
    right: DecayFit
    break_index: int
    r2_combined: float
    r2_single: float


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
