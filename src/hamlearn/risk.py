"""Analytic expected-loss analysis for echo experiments.

For the one-coupling model with a Gaussian prior, the posterior mean and the
expected posterior variance (the average-case loss of the optimal
estimator) have closed forms: every moment is a Gaussian integral of a
cosine.  Adaptive quadrature of the same moments is kept as the independent
reference the closed forms are checked against; it loads scipy.integrate on
its first call, so the closed-form scans never import it.  The risk as
a function of evolution time is pinched between sigma^2 and the envelope
sigma^2 (1 - 4 sigma^2 t^2 exp(-4 sigma^2 t^2)), whose minimum sits at
t = 1/(2 sigma) with value (1 - 1/e) sigma^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from .errors import QuadratureFailure
from .models import bitflip_wrap, single_param_likelihood

# Quadrature covers mu +/- 10 sigma; the Gaussian tail beyond that is ~1e-23.
_QUAD_HALF_WIDTH = 10.0
_QUAD_EPSREL = 1e-10
_QUAD_LIMIT = 200
# Below this posterior mass a datum counts as impossible: the update is
# rejected and the posterior keeps the prior moments.
_MASS_FLOOR = 1e-12
# A scan scores at most this many (time, inversion) elements a call, the same
# cap as `IsingModel._chunk_elements`, so its temporaries stay small however
# many times or PGH draws it holds.
_BLOCK_ELEMENTS = 2**16


@dataclass(frozen=True)
class GaussianPrior1D:
    """Normal prior over a single coupling with mean mu and s.d. sigma."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not (self.sigma > 0 and math.isfinite(self.sigma * self.sigma)):
            raise ValueError(f"sigma must be positive with a finite square, got {self.sigma}")
        if not math.isfinite(self.mu * self.mu + self.sigma * self.sigma):
            raise ValueError(f"mu^2 + sigma^2 must be finite, got mu={self.mu}")

    def pdf(self, x: float) -> float:
        z = (x - self.mu) / self.sigma
        return math.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class RiskPoint:
    """One scan sample: inversion coupling, time, bit-flip rate, risk."""

    x_inv: float
    t: float
    alpha: float
    risk: float
    stderr: float = 0.0

    def __post_init__(self):
        if not self.risk >= 0:
            raise ValueError(f"risk must be nonnegative, got {self.risk}")


def __getattr__(name: str):
    # `hamlearn.risk.integrate` still names scipy.integrate, loaded on first
    # access, for code that reaches the quadrature through this module (the
    # benchmark's traced run wraps `integrate.quad` here).
    if name == "integrate":
        from scipy import integrate

        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _quad(f: Callable[[float], float], lo: float, hi: float) -> float:
    # Imported here, not at module scope: scipy.integrate costs about 0.5 s and
    # 40 MB to load, and only the quadrature reference needs it.
    from scipy import integrate

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


def _quadrature_moments(prior: GaussianPrior1D, x_inv: float, t: float):
    """Per-outcome (mass, E[x * L], E[x^2 * L]), by adaptive quadrature.

    Only the outcome-0 integrals are computed; outcome 1 follows from the
    complements mass_1 = 1 - mass_0, etc., because the two likelihoods sum
    to one pointwise.
    """
    lo = prior.mu - _QUAD_HALF_WIDTH * prior.sigma
    hi = prior.mu + _QUAD_HALF_WIDTH * prior.sigma

    def weighted(x: float) -> float:
        return single_param_likelihood(0, x, x_inv, t) * prior.pdf(x)

    mass = _quad(weighted, lo, hi)
    first = _quad(lambda x: x * weighted(x), lo, hi)
    second = _quad(lambda x: x * x * weighted(x), lo, hi)
    prior_second = prior.mu**2 + prior.sigma**2
    return (mass, first, second), (1.0 - mass, prior.mu - first, prior_second - second)


def _per_time(f: Callable[[float], float], values: np.ndarray) -> np.ndarray:
    """`f`, a `math` function, over each element of `values`."""
    return np.array([f(v) for v in values.ravel().tolist()]).reshape(values.shape)


def _closed_form_moments(prior: GaussianPrior1D, x_inv, t):
    """Per-outcome (mass, E[x * L], E[x^2 * L]), exactly and elementwise.

    With omega = 2t, L0 = (1 + cos(omega (x - x_inv))) / 2, and the Gaussian
    characteristic function gives phi = E[exp(i omega (x - x_inv))] =
    exp(i omega (mu - x_inv) - sigma^2 omega^2 / 2), E[x e^{...}] =
    (mu + i sigma^2 omega) phi and E[x^2 e^{...}] = ((mu + i sigma^2 omega)^2
    + sigma^2) phi.  Outcome 1 is built on D = 1 - Re phi, evaluated without
    cancellation, so its small masses at short times keep full precision.
    x_inv and t broadcast against each other.  The two factors that depend on
    t alone, exp(-damping) and expm1(-damping), come from `math`, once per
    element of t: numpy's exp and expm1 differ from math's in the last bit on
    some arguments (its cos and sin do not), and `risk.csv` stays bit-stable.
    """
    mu, var = prior.mu, prior.sigma**2
    with np.errstate(over="ignore"):
        omega = 2.0 * np.asarray(t, dtype=float)
        damping = 0.5 * var * omega * omega
    envelope = _per_time(math.exp, -damping)
    decay = _per_time(math.expm1, -damping)
    # Once the envelope underflows the data carry no information.  A zero
    # frequency there keeps every moment finite: shift^2 would overflow to inf
    # and multiply the zero envelope.
    omega = np.where(envelope > 0.0, omega, 0.0)
    phase = omega * (mu - np.asarray(x_inv, dtype=float))
    re_phi = envelope * np.cos(phase)
    im_phi = envelope * np.sin(phase)
    d = -decay + 2.0 * envelope * np.sin(0.5 * phase) ** 2
    prior_second = mu * mu + var
    shift = var * omega  # sigma^2 omega
    return (
        (
            0.5 * (1.0 + re_phi),
            0.5 * (mu + mu * re_phi - shift * im_phi),
            0.5 * (prior_second + (prior_second - shift * shift) * re_phi
                   - 2.0 * mu * shift * im_phi),
        ),
        (
            0.5 * d,
            0.5 * (mu * d + shift * im_phi),
            0.5 * (prior_second * d + shift * shift * re_phi + 2.0 * mu * shift * im_phi),
        ),
    )


def _posterior_moments(prior: GaussianPrior1D, x_inv, t, raw_moments=_closed_form_moments):
    """Per-outcome (mass, posterior mean, posterior variance), elementwise.

    A datum whose mass falls below the floor is treated as rejected: the
    posterior keeps the prior mean and variance.
    """
    results = []
    for mass, first, second in raw_moments(prior, x_inv, t):
        rejected = np.asarray(mass) <= _MASS_FLOOR
        kept = np.where(rejected, 1.0, mass)
        mean = first / kept
        variance = np.maximum(second / kept - mean * mean, 0.0)
        results.append((np.maximum(mass, 0.0), np.where(rejected, prior.mu, mean),
                        np.where(rejected, prior.sigma**2, variance)))
    return results


def _posterior_mean(d: int, prior: GaussianPrior1D, x_inv: float, t: float, raw_moments) -> float:
    if d not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    return float(_posterior_moments(prior, x_inv, t, raw_moments)[d][1])


def posterior_mean_1d(d: int, prior: GaussianPrior1D, x_inv: float, t: float) -> float:
    """Posterior mean after observing outcome d in {0, 1}, in closed form."""
    return _posterior_mean(d, prior, x_inv, t, _closed_form_moments)


def quadrature_posterior_mean_1d(d: int, prior: GaussianPrior1D, x_inv: float, t: float) -> float:
    """Posterior mean by adaptive quadrature; reference for the closed form."""
    return _posterior_mean(d, prior, x_inv, t, _quadrature_moments)


def _risk(prior: GaussianPrior1D, x_inv, t, alpha: float, raw_moments):
    # `bitflip_wrap` rejects an alpha outside [0, 0.5].
    (mass0, _, variance0), (mass1, _, variance1) = _posterior_moments(
        prior, x_inv, t, raw_moments)
    risk = bitflip_wrap(alpha, mass0) * variance0 + bitflip_wrap(alpha, mass1) * variance1
    return float(risk) if np.ndim(risk) == 0 else risk


def bayes_risk_1d(prior: GaussianPrior1D, x_inv, t, alpha: float = 0.0):
    """Expected posterior variance after one experiment, in closed form.

    The posterior is always computed with the noiseless model; when alpha > 0
    the outcome probabilities are taken from the bit-flipped data
    distribution instead, modeling an inference engine blind to the noise.
    x_inv and t may be arrays that broadcast against each other; the risk is
    then an array of their broadcast shape, and a float for scalars.  Scalar
    and array calls agree bit for bit.  Once the Gaussian envelope
    exp(-2 sigma^2 t^2) underflows, the risk is the prior variance.
    """
    return _risk(prior, x_inv, t, alpha, _closed_form_moments)


def quadrature_bayes_risk_1d(
    prior: GaussianPrior1D, x_inv: float, t: float, alpha: float = 0.0
) -> float:
    """`bayes_risk_1d` by adaptive quadrature, for scalar arguments; reference
    for the closed form."""
    return _risk(prior, x_inv, t, alpha, _quadrature_moments)


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


def optimal_time(sigma: float) -> float:
    """Evolution time minimizing the risk envelope's lower bound."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    return 1.0 / (2.0 * sigma)


def risk_scan(
    prior: GaussianPrior1D,
    strategy: Union[str, float],
    t_grid: Sequence[float],
    alpha: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    pgh_draws: int = 1000,
) -> List[RiskPoint]:
    """Evaluate the risk across a time grid for one inversion strategy.

    Strategies: "none" (inversion coupling 0, i.e. plain forward evolution),
    "mean_plus_sigma" / "mean_minus_sigma" (offset from the prior mean), a
    float (fixed inversion coupling), or "pgh" (inversion drawn from the
    prior; the reported risk is the average over `pgh_draws` draws with its
    standard error).  Times must be finite and nonnegative.

    Each time is a row of inversions: one, or `pgh_draws` draws taken row by
    row from `rng`.  Whole rows are scored with one `bayes_risk_1d` call per
    block of at most `_BLOCK_ELEMENTS` elements; a larger row is scored in
    chunks and reduced once complete.  Each row equals, bit for bit, the
    scalar calls of its inversions.
    """
    times = np.array([float(t) for t in t_grid])
    if times.size == 0:
        raise ValueError("t_grid must be nonempty")
    bad = ~(np.isfinite(times) & (times >= 0))
    if bad.any():
        raise ValueError(f"t must be finite and nonnegative, got {times[bad][0]}")
    if strategy == "pgh":
        if rng is None:
            raise ValueError("the pgh strategy requires an rng")
        if pgh_draws < 2:
            raise ValueError("the pgh strategy needs at least 2 draws for its standard error")
        width = pgh_draws
    elif strategy == "none":
        x_inv, width = 0.0, 1
    elif strategy == "mean_plus_sigma":
        x_inv, width = prior.mu + prior.sigma, 1
    elif strategy == "mean_minus_sigma":
        x_inv, width = prior.mu - prior.sigma, 1
    elif isinstance(strategy, (int, float)):
        x_inv, width = float(strategy), 1
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    rows = max(1, _BLOCK_ELEMENTS // width)
    chunk = min(width, _BLOCK_ELEMENTS)
    points: List[RiskPoint] = []
    for start in range(0, times.size, rows):
        block = times[start : start + rows, None]
        risks = np.empty((len(block), width))
        for lo in range(0, width, chunk):
            hi = min(lo + chunk, width)
            # One (rows, draws) draw fills row-major: the draws of separate rows.
            inversions = (rng.normal(prior.mu, prior.sigma, size=(len(block), hi - lo))
                          if strategy == "pgh" else x_inv)
            risks[:, lo:hi] = bayes_risk_1d(prior, inversions, block, alpha)
        if strategy == "pgh":
            stderrs = risks.std(axis=1, ddof=1) / math.sqrt(pgh_draws)
            points += [RiskPoint(float("nan"), t, alpha, risk, stderr) for t, risk, stderr
                       in zip(block[:, 0].tolist(), risks.mean(axis=1).tolist(),
                              stderrs.tolist())]
        else:
            points += [RiskPoint(x_inv, t, alpha, risk)
                       for t, risk in zip(block[:, 0].tolist(), risks[:, 0].tolist())]
    return points
