"""Analytic expected-loss analysis for echo experiments.

For the one-coupling model with a Gaussian prior, the posterior mean and the
expected posterior variance (the average-case loss of the optimal
estimator) have closed forms: every moment is a Gaussian integral of a
cosine, so no scan integrates numerically.  The risk as a function of
evolution time is pinched between sigma^2 and the envelope
sigma^2 (1 - 4 sigma^2 t^2 exp(-4 sigma^2 t^2)), whose minimum sits at
t = 1/(2 sigma) with value (1 - 1/e) sigma^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from .errors import SchemaError
from .models import CHUNK_ELEMENTS, bitflip_wrap

# Below this posterior mass a datum counts as impossible: the update is
# rejected and the posterior keeps the prior moments.
_MASS_FLOOR = 1e-12


@dataclass(frozen=True)
class GaussianPrior1D:
    """Normal prior over a single coupling with mean mu and s.d. sigma.

    A value it cannot serve raises SchemaError, whose message starts with the
    field it names.
    """

    mu: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma * self.sigma)):
            raise SchemaError(f"sigma: must be positive with a finite square, got {self.sigma}")
        if not math.isfinite(self.mu):
            raise SchemaError(f"mu: must be finite, got {self.mu}")
        if not math.isfinite(self.mu * self.mu + self.sigma * self.sigma):
            raise SchemaError(f"mu: mu^2 + sigma^2 must be finite, got {self.mu}")


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
    # The package's one import of scipy.integrate, loaded on first access.
    # No scan integrates numerically; this stays for the benchmark, whose
    # traced `risk.quad` layer wraps `hamlearn.risk:integrate.quad`, a target
    # that resolves here.
    if name == "integrate":
        from scipy import integrate

        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    x_inv and t broadcast against each other.  A phase omega (mu - x_inv) that
    overflows where the envelope is nonzero raises ValueError, naming the
    inversion and the time.  The two factors that depend on
    t alone, exp(-damping) and expm1(-damping), come from `math`, once per
    element of t: numpy's exp and expm1 differ from math's in the last bit on
    some arguments (its cos and sin do not), and `risk.csv` stays bit-stable.
    """
    mu, var = prior.mu, prior.sigma**2
    with np.errstate(over="ignore", invalid="ignore"):
        omega = 2.0 * np.asarray(t, dtype=float)
        damping = 0.5 * var * omega * omega
        envelope = _per_time(math.exp, -damping)
        decay = _per_time(math.expm1, -damping)
        # Once the envelope underflows the data carry no information.  A zero
        # frequency there keeps every moment finite: shift^2 would overflow to
        # inf and multiply the zero envelope.  A NaN envelope (an underflowed
        # sigma^2 times an infinite omega^2) keeps omega, and the phase check
        # below rejects it.
        omega = np.where(envelope == 0.0, 0.0, omega)
        phase = omega * (mu - np.asarray(x_inv, dtype=float))
    bad = ~np.isfinite(phase)
    if bad.any():
        x_bad, t_bad = (np.broadcast_to(v, phase.shape)[bad][0] for v in (x_inv, t))
        raise ValueError(f"the phase of inversion {x_bad} overflows at t = {t_bad}")
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


def _posterior_moments(prior: GaussianPrior1D, x_inv, t):
    """Per-outcome (mass, posterior mean, posterior variance), elementwise.

    A datum whose mass falls below the floor is treated as rejected: the
    posterior keeps the prior mean and variance.
    """
    results = []
    for mass, first, second in _closed_form_moments(prior, x_inv, t):
        rejected = np.asarray(mass) <= _MASS_FLOOR
        kept = np.where(rejected, 1.0, mass)
        mean = first / kept
        variance = np.maximum(second / kept - mean * mean, 0.0)
        results.append((np.maximum(mass, 0.0), np.where(rejected, prior.mu, mean),
                        np.where(rejected, prior.sigma**2, variance)))
    return results


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
    # `bitflip_wrap` rejects an alpha outside [0, 0.5].
    (mass0, _, variance0), (mass1, _, variance1) = _posterior_moments(prior, x_inv, t)
    risk = bitflip_wrap(alpha, mass0) * variance0 + bitflip_wrap(alpha, mass1) * variance1
    return float(risk) if np.ndim(risk) == 0 else risk


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
    block of at most `models.CHUNK_ELEMENTS` elements; a larger row is scored
    in chunks and reduced once complete.  Each row equals, bit for bit, the
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

    rows = max(1, CHUNK_ELEMENTS // width)
    chunk = min(width, CHUNK_ELEMENTS)
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
