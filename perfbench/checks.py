"""Output checks.  Each returns a list of problems; an empty list passes.

The checks compare the program's outputs with the references in
`reference.py` or with a property the method must have.  They take plain
data, so `selftest.py` can feed them broken outputs and see them fail.
"""

from __future__ import annotations

import math

from reference import dense_grid_risk, envelope, log_linear_fit, percentile

LIKELIHOOD_TOL = 1e-9
# Percentiles and fits are recomputed by another route from the same
# 17-digit numbers, so only last-bit rounding separates them.
PERCENTILE_RTOL = 1e-12
FIT_RTOL = 1e-8
# The dense grid agrees with the adaptive quadrature to about 1e-12.
GRID_RTOL = 1e-8
# Rounding slack on the envelope bounds, relative to sigma^2.
ENVELOPE_SLACK = 1e-9


def likelihood_problems(samples, likelihood, brute) -> list:
    """Program likelihoods against the brute force, every outcome.

    `samples` holds (spec, particles) pairs; `likelihood(outcome, particles,
    spec)` is the program's vectorised likelihood.
    """
    worst = 0.0
    for spec, particles in samples:
        table = brute.likelihoods(particles, spec.inversion, spec.time,
                                  spec.measurement == "two")
        for outcome in range(table.shape[1]):
            gap = abs(likelihood(outcome, particles, spec) - table[:, outcome]).max()
            worst = max(worst, float(gap))
    if worst > LIKELIHOOD_TOL:
        return [f"likelihood differs from the brute force by {worst:.3e} (> {LIKELIHOOD_TOL})"]
    return []


def median_curve(loss_series) -> list:
    """Median loss per experiment index across trials of unequal length."""
    length = max(len(series) for series in loss_series)
    return [percentile([s[i] for s in loss_series if len(s) > i], 50.0) for i in range(length)]


def decay_problems(medians, window: float = 0.1) -> list:
    """The median loss must fall exponentially: a positive fitted rate, and
    the last tenth of the run at least ten times below the first tenth
    (geometric means)."""
    fit = log_linear_fit(list(range(len(medians))), list(medians), window)
    if fit is None:
        return ["median loss series too short or not positive"]
    tenth = max(1, len(medians) // 10)
    head = sum(math.log(v) for v in medians[:tenth]) / tenth
    tail = sum(math.log(v) for v in medians[-tenth:]) / tenth
    problems = []
    if not fit[1] > 0:
        problems.append(f"median loss does not decay: fitted rate {fit[1]:.3e}")
    if not tail < head - math.log(10.0):
        problems.append(
            f"median loss fell only {math.exp(head - tail):.3g}x from the first to the last tenth"
        )
    return problems


def ess_problems(ess_values, particles: int) -> list:
    bad = [e for e in ess_values if not 1.0 <= e <= particles]
    return [f"{len(bad)} ESS values outside [1, {particles}], e.g. {bad[0]!r}"] if bad else []


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def summary_problems(summary_rows, trajectories) -> list:
    """summary.csv rows (index, p25, p50, p75) against percentiles of the
    per-trial losses in trajectories.jsonl."""
    problems = []
    for row in summary_rows:
        index = int(row[0])
        values = [s[index] for s in trajectories if len(s) > index]
        for q, value in zip((25.0, 50.0, 75.0), row[1:]):
            if not _close(value, percentile(values, q), PERCENTILE_RTOL):
                problems.append(f"summary p{q:g} at index {index}: {float(value)!r}")
    if len(summary_rows) != max(len(s) for s in trajectories):
        problems.append(f"summary has {len(summary_rows)} rows")
    return problems[:5]


def fit_problems(fit_rows, trajectories, window: float) -> list:
    """fits.csv rows (A, gamma, r2) against the closed-form fit per trial."""
    problems = []
    if len(fit_rows) != len(trajectories):
        return [f"{len(fit_rows)} fits for {len(trajectories)} trials"]
    for trial, (row, losses) in enumerate(zip(fit_rows, trajectories)):
        mine = log_linear_fit(list(range(len(losses))), losses, window)
        if mine is None:
            if not all(math.isnan(v) for v in row):
                problems.append(f"trial {trial}: fit reported where none is possible")
            continue
        amplitude, gamma, r2 = row
        if not (_close(amplitude, mine[0], FIT_RTOL) and _close(gamma, mine[1], FIT_RTOL)
                and abs(r2 - mine[2]) <= FIT_RTOL):
            problems.append(f"trial {trial}: fit {row} vs {mine}")
    return problems[:5]


def envelope_problems(rows, sigma: float) -> list:
    """Every noiseless risk lies in [sigma^2 (1 - u e^-u), sigma^2]."""
    slack = ENVELOPE_SLACK * sigma**2
    problems = []
    for row in rows:
        if row["alpha"] != 0.0:
            continue
        lower, upper = envelope(row["t"], sigma)
        if not lower - slack <= row["risk"] <= upper + slack:
            problems.append(f"risk {row['risk']!r} at t={row['t']!r} outside [{lower}, {upper}]")
    return problems[:5]


def grid_problems(rows, mu: float, sigma: float) -> list:
    """Fixed-offset risks against the dense-grid integral."""
    problems = []
    for row in rows:
        expected = dense_grid_risk(mu, sigma, row["x_inv"], row["t"], row["alpha"])
        if not _close(row["risk"], expected, GRID_RTOL):
            problems.append(f"risk {row['risk']!r} vs dense grid {expected!r} at t={row['t']!r}")
    return problems
