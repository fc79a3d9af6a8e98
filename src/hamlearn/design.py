"""Adaptive experiment selection from the current posterior cloud.

The particle guess heuristic draws the inversion couplings from the
posterior itself and sets the evolution time to the reciprocal distance
between two posterior draws, so experiments automatically lengthen as the
posterior sharpens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCloud
from .models import EXPERIMENT_KINDS, FULL_BASIS, IQLE, MEASUREMENT_MODES, ExperimentSpec
from .smc import ParticleCloud, weight_cdf


@dataclass(frozen=True)
class PghConfig:
    """Free constants of the particle guess heuristic.

    `t_max` caps the emitted time (a collapsed cloud would otherwise request
    an unbounded evolution), `min_separation` is the floor below which two
    draws count as the same position, and `max_redraws` bounds the attempts
    to find a second, distinct draw.
    """

    kind: str = IQLE
    t_max: float = 1e6
    min_separation: float = 1e-12
    max_redraws: int = 100
    measurement: str = FULL_BASIS

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.measurement not in MEASUREMENT_MODES:
            raise ValueError(f"unknown measurement mode {self.measurement!r}")
        if not self.t_max > 0:
            raise ValueError("t_max must be positive")
        if not self.min_separation > 0:
            raise ValueError("min_separation must be positive")
        if self.max_redraws < 1:
            raise ValueError("max_redraws must be at least 1")


def pgh(cloud: ParticleCloud, cfg: PghConfig, rng: np.random.Generator) -> ExperimentSpec:
    """Design one experiment by sampling the posterior cloud.

    The inversion couplings are one weight-proportional draw; the time is
    min(t_max, 1 / ||second draw - first draw||), where the second draw is
    redrawn (up to `max_redraws` times) until it is distinct from the first.
    CLE/QLE experiments discard the inversion but keep the chosen time.
    Raises DegenerateCloud when the cloud has collapsed (all positions equal,
    or every redraw landed on the first draw's position).
    """
    if np.all(cloud.positions == cloud.positions[0]):
        raise DegenerateCloud("all particles occupy one position")
    # Each draw is rng.choice(size, p=weights), without re-summing the weights.
    cdf = weight_cdf(cloud.weights)
    first = cloud.positions[cdf.searchsorted(rng.random(), side="right")]
    distance = 0.0
    for _ in range(cfg.max_redraws):
        second = cloud.positions[cdf.searchsorted(rng.random(), side="right")]
        distance = float(np.linalg.norm(second - first))
        if distance >= cfg.min_separation:
            break
    else:
        raise DegenerateCloud(
            f"no distinct second draw within {cfg.max_redraws} attempts"
        )
    time = min(cfg.t_max, 1.0 / distance)
    inversion = first if cfg.kind == IQLE else None
    return ExperimentSpec(cfg.kind, time, inversion, cfg.measurement)
