"""Both sides of the learning loop's hardware.

The untrusted system is played by `sample_outcome`, which draws real data at
the hidden true couplings.  The trusted simulator is played by
`LikelihoodEvaluator`, the one place likelihoods are estimated: it scores
hypotheses exactly, by the frequency of the outcome among `n_samp` simulated
shots (one binomial draw per particle), or by an exact value blurred by
Gaussian noise (a cheap stand-in for finite-sample estimation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import LIKELIHOOD_FLOOR, ExperimentSpec, IsingModel
from .smc import weight_cdf

EXACT = "exact"
SAMPLED = "sampled"
NOISY_EXACT = "noisy_exact"
EVALUATOR_MODES = (EXACT, SAMPLED, NOISY_EXACT)


@dataclass(frozen=True)
class LikelihoodEvaluator:
    """Trusted-simulator front end for likelihood evaluation.

    Modes: `exact` returns the model likelihood; `sampled` replaces it with
    the frequency of the target outcome among `n_samp` simulated shots;
    `noisy_exact` adds zero-mean Gaussian noise of s.d. `noise` and clips.
    Values lie in [LIKELIHOOD_FLOOR, 1], as the model's do.  Only stochastic
    modes need an `rng`; `noisy_exact` with noise 0 is exact and needs none.
    """

    model: IsingModel
    mode: str = EXACT
    n_samp: int = 1
    noise: float = 0.0

    def __post_init__(self):
        if self.mode not in EVALUATOR_MODES:
            raise ValueError(f"unknown evaluator mode {self.mode!r}")
        if self.mode == SAMPLED and self.n_samp < 1:
            raise ValueError("sampled mode needs n_samp >= 1")
        if self.mode == NOISY_EXACT and self.noise < 0:
            raise ValueError("noise standard deviation must be nonnegative")

    def likelihood_many(
        self,
        outcome: int,
        xs,
        exp: ExperimentSpec,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        exact = self.model.likelihood_many(outcome, xs, exp)
        if self.mode == EXACT or (self.mode == NOISY_EXACT and self.noise == 0):
            return exact
        if rng is None:
            raise ValueError(f"{self.mode} evaluation requires an explicit rng")
        if self.mode == SAMPLED:
            counts = rng.binomial(self.n_samp, exact)
            return np.clip(counts / self.n_samp, LIKELIHOOD_FLOOR, 1.0)
        # noise + exact is exact + noise bit for bit; built in the draw's array.
        noisy = rng.normal(0.0, self.noise, size=exact.shape)
        noisy += exact
        return np.clip(noisy, LIKELIHOOD_FLOOR, 1.0, out=noisy)

    def calls_per_update(self, n_particles: int) -> int:
        """Simulator invocations consumed by one weight update."""
        if self.mode == SAMPLED:
            return n_particles * self.n_samp
        return n_particles


def sample_outcome(
    model: IsingModel,
    truth,
    exp: ExperimentSpec,
    rng: np.random.Generator,
) -> int:
    """Draw one measurement outcome at the hidden true couplings."""
    dist = np.asarray(model.outcome_distribution(truth, exp), dtype=float)
    dist = np.clip(dist, 0.0, None)
    return int(weight_cdf(dist / dist.sum()).searchsorted(rng.random(), side="right"))
