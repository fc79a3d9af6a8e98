"""Where the traced run cuts the program into layers, and the per-layer metrics.

Each target is an attribute through which the program calls a layer.  The
harness reaches the particle filter and the designer through names it
imported (`hamlearn.harness.pgh` and so on), so those names are wrapped
rather than the defining modules: a call from inside `smc` (for example
`effective_sample_size` within `bayes_update`) is not a layer boundary.
"""

from __future__ import annotations

import os

from spans import median_or_zero


def _count_integrand(args, kwargs, span):
    function, *rest = args

    def counted(x, *extra):
        span["value"] += 1
        return function(x, *extra)

    return (counted, *rest), kwargs


TARGETS = (
    ("hamlearn.models:IsingModel.likelihood_many", "models.likelihood_many",
     lambda args, kwargs, result: len(result), None),
    ("hamlearn.models:IsingModel.outcome_distribution", "models.outcome_distribution", None, None),
    ("hamlearn.harness:sample_outcome", "simulate.sample_outcome", None, None),
    ("hamlearn.simulate:LikelihoodEvaluator.likelihood_many", "simulate.evaluator", None, None),
    ("hamlearn.harness:bayes_update", "smc.bayes_update", None, None),
    ("hamlearn.harness:liu_west_resample", "smc.liu_west_resample", None, None),
    ("hamlearn.harness:posterior_mean", "smc.estimate", None, None),
    ("hamlearn.harness:effective_sample_size", "smc.estimate", None, None),
    ("hamlearn.harness:quadratic_loss", "smc.estimate", None, None),
    ("hamlearn.harness:pgh", "design.pgh", None, None),
    ("hamlearn.harness:run_trial", "harness.run_trial", None, None),
    ("hamlearn.harness:run_ensemble", "harness.run_ensemble", None, None),
    ("hamlearn.cli:run_ensemble", "harness.run_ensemble", None, None),
    ("hamlearn.cli:emit_results", "output.emit_results",
     lambda args, kwargs, result: sum(os.path.getsize(p) for p in result.values()), None),
    ("hamlearn.risk:bayes_risk_1d", "risk.bayes_risk_1d", None, None),
    ("hamlearn.risk:integrate.quad", "risk.quad", None, _count_integrand),
)


def install(tracer) -> None:
    for target, name, measure, adapt in TARGETS:
        tracer.wrap(target, name, measure=measure, adapt=adapt)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# (metric, unit, spans it is made from, value from the span totals and context).
# Times named `.s` are self time (span minus its child spans) summed over
# the traced run, except risk.bayes_risk_1d.s, which includes its quadrature.
METRICS = (
    ("models.likelihood_many.s", "s", ["models.likelihood_many"],
     lambda t, c: t["models.likelihood_many"]["self_s"]),
    ("models.likelihood_many.calls", "count", ["models.likelihood_many"],
     lambda t, c: t["models.likelihood_many"]["calls"]),
    ("models.likelihood_many.particles_per_s", "1/s", ["models.likelihood_many"],
     lambda t, c: _ratio(t["models.likelihood_many"]["value"], t["models.likelihood_many"]["s"])),
    ("models.outcome_distribution.s", "s", ["models.outcome_distribution"],
     lambda t, c: t["models.outcome_distribution"]["self_s"]),
    ("simulate.sample_outcome.s", "s", ["simulate.sample_outcome"],
     lambda t, c: t["simulate.sample_outcome"]["self_s"]),
    ("simulate.evaluator.s", "s", ["simulate.evaluator"],
     lambda t, c: t["simulate.evaluator"]["self_s"]),
    ("smc.bayes_update.s", "s", ["smc.bayes_update"],
     lambda t, c: t["smc.bayes_update"]["self_s"]),
    ("smc.liu_west_resample.s", "s", ["smc.liu_west_resample"],
     lambda t, c: t["smc.liu_west_resample"]["self_s"]),
    ("smc.liu_west_resample.calls", "count", ["smc.liu_west_resample"],
     lambda t, c: t["smc.liu_west_resample"]["calls"]),
    ("smc.estimate.s", "s", ["smc.estimate"], lambda t, c: t["smc.estimate"]["self_s"]),
    ("design.pgh.s", "s", ["design.pgh"], lambda t, c: t["design.pgh"]["self_s"]),
    ("design.pgh.calls", "count", ["design.pgh"], lambda t, c: t["design.pgh"]["calls"]),
    ("harness.run_trial.s", "s", ["harness.run_trial"],
     lambda t, c: t["harness.run_trial"]["self_s"]),
    ("harness.run_trial.p50_s", "s", ["harness.run_trial"],
     lambda t, c: median_or_zero(t["harness.run_trial"]["durations"])),
    ("harness.run_ensemble.s", "s", ["harness.run_ensemble"],
     lambda t, c: t["harness.run_ensemble"]["self_s"]),
    ("harness.pool.busy_ratio", "ratio", ["harness.run_trial", "harness.run_ensemble"],
     lambda t, c: _ratio(t["harness.run_trial"]["s"],
                         c["workers"] * t["harness.run_ensemble"]["s"])),
    ("output.emit_results.s", "s", ["output.emit_results"],
     lambda t, c: t["output.emit_results"]["self_s"]),
    ("output.bytes", "B", ["output.emit_results"], lambda t, c: t["output.emit_results"]["value"]),
    ("setup.import_s", "s", [], lambda t, c: c["import_s"]),
    ("setup.build_s", "s", [], lambda t, c: c["build_s"]),
    ("risk.bayes_risk_1d.s", "s", ["risk.bayes_risk_1d"],
     lambda t, c: t["risk.bayes_risk_1d"]["s"]),
    ("risk.bayes_risk_1d.calls", "count", ["risk.bayes_risk_1d"],
     lambda t, c: t["risk.bayes_risk_1d"]["calls"]),
    ("risk.quad.calls", "count", ["risk.quad"], lambda t, c: t["risk.quad"]["calls"]),
    ("risk.integrand_evals", "count", ["risk.quad"], lambda t, c: t["risk.quad"]["value"]),
    ("trace.ops_per_s", "1/s", [], lambda t, c: c["traced_ops_per_s"]),
    ("trace.overhead", "ratio", [], lambda t, c: c["untraced_ops_per_s"] / c["traced_ops_per_s"] - 1.0),
)

_EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "value": 0, "durations": []}


def per_layer(totals: dict, context: dict, missing_spans: set) -> dict:
    """Metric name -> {"value", "unit"}; a layer that did not run reads 0,
    a layer whose wrapper could not be installed reads null."""
    spans = {name for _, name, _, _ in TARGETS}
    filled = {name: totals.get(name, _EMPTY) for name in spans}
    metrics = {}
    for name, unit, needs, value in METRICS:
        known = not missing_spans.intersection(needs)
        metrics[name] = {"value": value(filled, context) if known else None, "unit": unit}
    return metrics
