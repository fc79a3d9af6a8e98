"""Adaptive experiment selection from the current posterior cloud.

The particle guess heuristic draws the inversion couplings from the
posterior itself and sets the evolution time to the reciprocal distance
between two posterior draws, so experiments automatically lengthen as the
posterior sharpens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, PghSettings, check_fields
from .errors import DegenerateCloud
from .models import IQLE, ExperimentSpec
from .smc import ParticleCloud, weight_cdf


@dataclass(frozen=True)
class PghConfig(PghSettings, ExperimentConfig):
    """The particle guess heuristic's constants and the experiment it designs.

    The fields, defaults and bounds are those of the run config's `pgh` and
    `experiment` sections, checked when built.  `t_max` caps the emitted time
    (a collapsed cloud would otherwise request an unbounded evolution),
    `min_separation` is the floor below which two draws count as the same
    position, and `max_redraws` bounds the attempts to find a second,
    distinct draw.
    """

    __post_init__ = check_fields


def pgh(cloud: ParticleCloud, cfg: PghConfig, rng: np.random.Generator) -> ExperimentSpec:
    """Design one experiment by sampling the posterior cloud.

    The inversion couplings are one weight-proportional draw; the time is
    min(t_max, 1 / ||second draw - first draw||), where the second draw is
    redrawn (up to `max_redraws` times) until it is distinct from the first.
    CLE/QLE experiments discard the inversion but keep the chosen time.
    Raises DegenerateCloud when the cloud has collapsed (all positions equal,
    or every redraw landed on the first draw's position).
    """
    positions = cloud.positions
    # The first coupling column is a cheap screen: the full compare runs only
    # when that column is constant.
    if (np.all(positions[:, 0] == positions[0, 0])
            and np.all(positions == positions[0])):
        raise DegenerateCloud("all particles occupy one position")
    # Each draw is rng.choice(size, p=weights), without re-summing the weights.
    cdf = weight_cdf(cloud.weights)
    first = positions[cdf.searchsorted(rng.random(), side="right")]
    distance = 0.0
    for _ in range(cfg.max_redraws):
        second = positions[cdf.searchsorted(rng.random(), side="right")]
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
