"""Show that the output checks can fail.

    python3 perfbench/selftest.py

Each check first sees a correct output and must pass it, then sees the same
output broken in one way and must reject it:

- likelihoods scaled by 1 + 1e-6;
- a loss series that does not decay;
- a risk placed outside the envelope, or moved off the dense-grid value;
- a summary percentile moved in its ninth digit, a fitted rate in its seventh.

It also checks that BENCHMARK.json lists the per-layer metrics the traced
run prints.  Exits 1 if any check accepts a broken output.
"""

import json
import os
import sys

from run import ROOT, load_program


def expect(label: str, problems: list, should_fail: bool) -> bool:
    ok = bool(problems) == should_fail
    verdict = "rejects" if problems else "accepts"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: check {verdict}"
          + (f" ({problems[0]})" if problems else ""))
    return ok


def main() -> int:
    load_program()
    import numpy as np
    from hamlearn.models import FULL_BASIS, IQLE, ExperimentSpec, InteractionGraph, IsingModel
    from hamlearn.risk import GaussianPrior1D, bayes_risk_1d

    import checks
    import layers
    from reference import BruteForceIsing, envelope, log_linear_fit, percentile

    results = []
    rng = np.random.default_rng(0)

    graph = InteractionGraph.complete(4)
    model = IsingModel(graph)
    brute = BruteForceIsing(graph.n, graph.edges)
    truth = rng.uniform(-0.5, 0.5, graph.dimension)
    samples = []
    for t in (0.7, 35.0, 2.4e3, 8.5e5):
        inversion = truth + rng.normal(0.0, 1.0 / t, graph.dimension)
        particles = truth + rng.normal(0.0, 1.0 / t, (8, graph.dimension))
        samples.append((ExperimentSpec(IQLE, t, inversion, FULL_BASIS), particles))

    def scaled(outcome, particles, spec):
        return model.likelihood_many(outcome, particles, spec) * (1.0 + 1e-6)

    results.append(expect("likelihood", checks.likelihood_problems(
        samples, model.likelihood_many, brute), False))
    results.append(expect("likelihood scaled by 1 + 1e-6", checks.likelihood_problems(
        samples, scaled, brute), True))

    index = np.arange(200)
    decaying = list(0.5 * np.exp(-0.06 * index + rng.normal(0.0, 0.3, 200)))
    flat = list(0.5 * np.exp(rng.normal(0.0, 0.3, 200)))
    results.append(expect("decaying losses", checks.decay_problems(decaying), False))
    results.append(expect("losses that do not decay", checks.decay_problems(flat), True))

    mu, sigma = 0.5, 0.1
    prior = GaussianPrior1D(mu, sigma)
    rows = [{"x_inv": mu + sigma, "t": t, "alpha": 0.0,
             "risk": bayes_risk_1d(prior, mu + sigma, t, 0.0)} for t in (1.6, 5.0, 12.0, 40.0)]
    results.append(expect("risks", checks.envelope_problems(rows, sigma)
                          + checks.grid_problems(rows, mu, sigma), False))
    lower, upper = envelope(5.0, sigma)
    outside = [dict(row) for row in rows]
    outside[1]["risk"] = lower * (1.0 - 1e-6)
    results.append(expect("risk below the envelope", checks.envelope_problems(outside, sigma), True))
    outside[1]["risk"] = upper * (1.0 + 1e-6)
    results.append(expect("risk above the envelope", checks.envelope_problems(outside, sigma), True))
    moved = [dict(row) for row in rows]
    moved[2]["risk"] *= 1.0 + 1e-6
    results.append(expect("risk moved off the dense grid", checks.grid_problems(moved, mu, sigma), True))

    losses = [list(np.exp(-0.05 * index[:100] + rng.normal(0.0, 0.5, 100))) for _ in range(8)]
    summary = [[i] + [percentile([s[i] for s in losses], q) for q in (25, 50, 75)]
               for i in range(100)]
    fits = [list(log_linear_fit(list(range(100)), s, 0.1)) for s in losses]
    results.append(expect("summary and fits", checks.summary_problems(summary, losses)
                          + checks.fit_problems(fits, losses, 0.1), False))
    summary[40][2] *= 1.0 + 1e-9
    fits[3][1] *= 1.0 + 1e-7
    results.append(expect("summary percentile moved", checks.summary_problems(summary, losses), True))
    results.append(expect("fitted rate moved", checks.fit_problems(fits, losses, 0.1), True))

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        listed = [(m["name"], m["unit"]) for m in json.load(handle)["per_layer"]]
    printed = [(name, unit) for name, unit, _, _ in layers.METRICS]
    results.append(expect("per-layer metrics of BENCHMARK.json",
                          [] if listed == printed else [f"{listed} != {printed}"], False))

    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
