"""Reference computations that share no code with the program under test.

Each function here recomputes, by a different and slower route, a quantity
the program produces: the Ising echo likelihood by explicit spins and parity
characters (no Walsh-Hadamard transform), the one-coupling expected
posterior variance by a dense Simpson grid (no adaptive quadrature), loss
percentiles by sorting, and the log-linear decay fit in closed form.
"""

from __future__ import annotations

import math

import numpy as np


class BruteForceIsing:
    """Outcome distribution of the echo experiment on one interaction graph.

    Bit k of a state index is qubit k and its spin is s_k = 1 - 2 bit_k.  The
    amplitude of X-basis outcome D is 2^-n sum_z (-1)^{popcount(D & z)}
    exp(-i dE(z) t), with dE(z) = sum_(i,j) delta_ij s_i s_j.
    """

    def __init__(self, n: int, edges):
        self.n = n
        self.edges = [tuple(edge) for edge in edges]
        states = range(2**n)
        self.spins = np.array([[1.0 - 2.0 * ((z >> k) & 1) for k in range(n)] for z in states])
        self.characters = np.array(
            [[-1.0 if bin(d & z).count("1") % 2 else 1.0 for z in states] for d in states]
        )

    def distributions(self, deltas, t: float) -> np.ndarray:
        """Rows of P(D) over all 2^n outcomes, one row per coupling offset."""
        deltas = np.atleast_2d(np.asarray(deltas, dtype=float))
        energy = np.zeros((deltas.shape[0], 2**self.n))
        for e, (i, j) in enumerate(self.edges):
            energy += deltas[:, e, None] * (self.spins[:, i] * self.spins[:, j])[None, :]
        amplitudes = np.exp(-1j * energy * t) @ self.characters.T / 2**self.n
        return np.abs(amplitudes) ** 2

    def likelihoods(self, particles, inversion, t: float, two_outcome: bool) -> np.ndarray:
        """(particles, outcomes) table of outcome probabilities."""
        particles = np.atleast_2d(np.asarray(particles, dtype=float))
        deltas = particles if inversion is None else particles - np.asarray(inversion)[None, :]
        dist = self.distributions(deltas, t)
        if two_outcome:
            return np.stack([dist[:, 0], 1.0 - dist[:, 0]], axis=1)
        return dist


def _simpson(values: np.ndarray, step: float) -> float:
    """Composite Simpson rule over an odd number of equally spaced samples."""
    return float(step / 3.0 * (
        values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()
    ))


def dense_grid_risk(mu: float, sigma: float, x_inv: float, t: float, alpha: float,
                    points: int = 200_001) -> float:
    """Expected posterior variance after one echo datum, on a dense grid.

    The posterior uses the noiseless likelihood cos^2 or sin^2 of
    (x - x_inv) t; the outcome masses that weight the two posterior
    variances are bit-flipped at rate alpha, as for an inference engine
    blind to the noise.  The grid spans mu +/- 10 sigma.
    """
    x = np.linspace(mu - 10.0 * sigma, mu + 10.0 * sigma, points)
    step = x[1] - x[0]
    prior = np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    stay = np.cos((x - x_inv) * t) ** 2
    risk = 0.0
    for likelihood in (stay, 1.0 - stay):
        joint = likelihood * prior
        mass = _simpson(joint, step)
        mean = _simpson(x * joint, step) / mass
        variance = _simpson((x - mean) ** 2 * joint, step) / mass
        risk += (alpha + (1.0 - 2.0 * alpha) * mass) * variance
    return risk


def envelope(t: float, sigma: float):
    """Bounds [sigma^2 (1 - u e^-u), sigma^2] on the noiseless risk, u = 4 sigma^2 t^2."""
    u = 4.0 * sigma**2 * t**2
    return sigma**2 * (1.0 - u * math.exp(-u)), sigma**2


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile of a list, by sorting."""
    ordered = sorted(values)
    position = q / 100.0 * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def log_linear_fit(indices, losses, window: float):
    """Closed-form least squares of ln(loss) on index, leading fraction dropped.

    Returns (amplitude, gamma, r2) for loss ~ amplitude exp(-gamma index), or
    None when fewer than five positive losses remain after the window.
    """
    start = math.floor(window * len(losses))
    pairs = [(float(i), math.log(v)) for i, v in zip(indices[start:], losses[start:]) if v > 0]
    if len(pairs) < 5:
        return None
    xs = np.array([p[0] for p in pairs])
    ys = np.array([p[1] for p in pairs])
    x_mean, y_mean = xs.mean(), ys.mean()
    slope = float(((xs - x_mean) * (ys - y_mean)).sum() / ((xs - x_mean) ** 2).sum())
    intercept = y_mean - slope * x_mean
    residual = float(((ys - (slope * xs + intercept)) ** 2).sum())
    total = float(((ys - y_mean) ** 2).sum())
    r2 = 1.0 if total == 0.0 else 1.0 - residual / total
    return math.exp(intercept), -slope, r2
