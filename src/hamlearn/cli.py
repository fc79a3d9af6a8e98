"""Command-line entry points.

Subcommands: `learn` runs an ensemble from a config file, `risk` scans the
one-coupling expected loss over evolution times, `scaling` sweeps system
sizes and reports median decay exponents, `validate` cross-checks the fast
likelihood path against the brute-force reference, and `fit` refits a decay
exponent to an existing summary CSV.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from .config import RunConfig, check_as_field, parse_config
from .errors import HamlearnError, SchemaError
from .harness import _keep_freed_heap, fit_decay, run_ensemble, scaling_study
from .models import (
    FULL_BASIS,
    IQLE,
    TWO_OUTCOME,
    ExperimentSpec,
    InteractionGraph,
    IsingModel,
    dense_oracle_distribution,
    single_param_likelihood,
)
from .output import emit_results, format_float, write_csv, write_fits_csv


def _read_text(flag: str, path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{flag}: {exc}") from None


def _load_config(args) -> RunConfig:
    config = parse_config(_read_text("--config", args.config))
    overrides = {name: getattr(args, name) for name in ("seed", "trials", "out")
                 if getattr(args, name) is not None}
    # Overridden fields, and --threads, pass the same schema checks as the config file's.
    config = replace(config, **overrides)
    _check_at_least("--threads", args.threads, 0)
    return config


def _check_at_least(flag: str, value: int, minimum: int) -> None:
    if value < minimum:
        raise SchemaError(f"{flag}: must be at least {minimum}, got {value}")


def _cmd_learn(args) -> int:
    config = _load_config(args)
    out_dir = config.out or "results"
    result = run_ensemble(config, threads=args.threads)
    paths = emit_results(result, out_dir)
    medians = result.summary[:, 2]
    gammas = [fit.gamma for fit in result.fits if fit is not None]
    print(f"ran {config.trials} trials x {config.n_experiments} experiments")
    if medians.size:
        print(f"median loss: first {format_float(medians[0])}, last {format_float(medians[-1])}")
    if gammas:
        print(f"median decay exponent: {format_float(float(np.median(gammas)))}")
    print("wrote " + ", ".join(sorted(paths.values())))
    return 0


def _check_risk_args(args) -> None:
    if not (args.sigma > 0 and np.isfinite(args.sigma * args.sigma)):
        raise SchemaError(f"--sigma: must be positive with a finite square, got {args.sigma}")
    check_as_field("bitflip_alpha", args.alpha, "--alpha")
    _check_at_least("--points", args.points, 1)
    check_as_field("seed", args.seed, "--seed")
    for flag, value in (("--mu", args.mu), ("--x-inv", args.x_inv)):
        if not np.isfinite(value):
            raise SchemaError(f"{flag}: must be finite, got {value}")
    if not np.isfinite(args.mu * args.mu + args.sigma * args.sigma):
        raise SchemaError(f"--mu: mu^2 + sigma^2 must be finite, got {args.mu}")
    if args.t_max is not None and not (np.isfinite(args.t_max) and args.t_max > 0):
        raise SchemaError(f"--t-max: must be positive and finite, got {args.t_max}")
    if args.strategy == "pgh" and args.pgh_draws < 2:
        raise SchemaError(
            f"--pgh-draws: the pgh strategy needs at least 2 draws, got {args.pgh_draws}"
        )


def _cmd_risk(args) -> int:
    _check_risk_args(args)
    from .risk import GaussianPrior1D, optimal_time, risk_scan

    prior = GaussianPrior1D(args.mu, args.sigma)
    t_opt = optimal_time(args.sigma)
    t_max = args.t_max if args.t_max is not None else 4.0 / args.sigma
    grid = np.linspace(t_max / args.points, t_max, args.points)
    strategy = args.strategy if args.strategy != "fixed" else args.x_inv
    rng = np.random.default_rng(args.seed)
    try:
        points = risk_scan(prior, strategy, grid, alpha=args.alpha, rng=rng,
                           pgh_draws=args.pgh_draws)
    except ValueError as exc:  # the flags passed, but a phase overflows on the grid
        flag = "--x-inv" if args.strategy == "fixed" else "--t-max"
        raise SchemaError(f"{flag}: {exc}") from None
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "risk.csv")
    write_csv(path, ("x_inv", "t", "alpha", "risk", "stderr"),
              [(p.x_inv, p.t, p.alpha, p.risk, p.stderr) for p in points])
    best = min(points, key=lambda p: p.risk)
    print(f"optimal-envelope time for sigma={args.sigma}: {format_float(t_opt)}")
    print(f"grid minimum risk {format_float(best.risk)} at t={format_float(best.t)}")
    print(f"wrote {path}")
    return 0


def _check_scaling_sizes(config: RunConfig, sizes) -> None:
    if len(set(sizes)) < max(2, len(sizes)):
        raise SchemaError(f"--n: need at least two distinct system sizes, got {sizes}")
    for n in sizes:
        # Each size passes the same schema checks as the config file's model block.
        try:
            replace(config, model=replace(config.model, n=n))
        except SchemaError as exc:
            raise SchemaError(f"--n: {exc}") from None


def _cmd_scaling(args) -> int:
    config = _load_config(args)
    _check_scaling_sizes(config, args.n)
    out_dir = config.out or "results"
    rows, results = scaling_study(config, args.n, threads=args.threads)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "scaling.csv")
    write_csv(path, ("n", "d", "median_gamma", "trials_fit"),
              [(row.n, row.dimension, row.median_gamma, row.trials_fit) for row in rows])
    for row, result in zip(rows, results):
        emit_results(result, os.path.join(out_dir, f"n={row.n}"))
        print(f"n={row.n} d={row.dimension} median gamma {format_float(row.median_gamma)}")
    print(f"wrote {path}")
    return 0


def _cmd_fit(args) -> int:
    check_as_field("fit_window", args.window, "--window")
    reader = csv.DictReader(_read_text("--input", args.input).splitlines())
    if args.column not in (reader.fieldnames or ()):
        raise SchemaError(f"--column: {args.column!r} not found in {args.input}")
    series = []
    for k, row in enumerate(reader, start=1):
        cells = row[reader.fieldnames[0]], row[args.column]
        try:
            index, value = map(float, cells)  # a short row reads None: TypeError
        except (TypeError, ValueError):
            index = np.nan
        if not index.is_integer() or (series and index <= series[-1][0]):
            raise SchemaError(f"--input: row {k}: the first column must hold strictly increasing "
                              f"integers and {args.column!r} numbers, got {cells}")
        series.append((int(index), value))
    fit = fit_decay(series, window=args.window)
    print(
        f"A={format_float(fit.amplitude)} gamma={format_float(fit.gamma)} "
        f"r2={format_float(fit.r2)} window={fit.window[0]}..{fit.window[1]}"
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_fits_csv(os.path.join(args.out, "fits.csv"), [fit])
        print(f"wrote {os.path.join(args.out, 'fits.csv')}")
    return 0


def oracle_sweep(rng: np.random.Generator, instances: int):
    """Worst gaps of `outcome_distribution` and of `likelihood` (every outcome)
    to `dense_oracle_distribution`, over `instances` random IQLE experiments
    per small graph in both measurement modes, and each graph's kernel."""
    graphs = [(f"{maker.__name__}({n})", maker(n)) for n in (2, 3, 4, 5)
              for maker in (InteractionGraph.complete, InteractionGraph.line)]
    graphs += [("5-cycle", InteractionGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))),
               ("(0,1),(2,3) on 5 qubits", InteractionGraph(5, ((0, 1), (2, 3))))]
    worst = worst_kernel = 0.0
    kernels = []
    for label, graph in graphs:
        model = IsingModel(graph)
        kernels.append(f"{label} {model.kernel}")
        for _ in range(instances):
            x = rng.uniform(-0.5, 0.5, graph.dimension)
            inversion = rng.uniform(-0.5, 0.5, graph.dimension)
            t = rng.uniform(0.001, 100.0)
            for measurement in (FULL_BASIS, TWO_OUTCOME):
                spec = ExperimentSpec(IQLE, t, inversion, measurement)
                oracle = dense_oracle_distribution(graph, x, spec)
                scores = [model.likelihood(d, x, spec) for d in range(oracle.size)]
                worst_kernel = max(worst_kernel, float(np.max(np.abs(scores - oracle))))
                if measurement == FULL_BASIS:
                    gap = np.max(np.abs(model.outcome_distribution(x, spec) - oracle))
                    worst = max(worst, float(gap))
    return worst, worst_kernel, kernels


def _cmd_validate(args) -> int:
    from .risk import (GaussianPrior1D, bayes_risk_1d, posterior_mean_1d,
                       quadrature_bayes_risk_1d, quadrature_posterior_mean_1d)

    _check_at_least("--instances", args.instances, 1)
    check_as_field("seed", args.seed, "--seed")
    rng = np.random.default_rng(args.seed)
    passed = []

    def report(ok: bool, message: str) -> None:
        passed.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {message}")

    worst, worst_kernel, kernels = oracle_sweep(rng, args.instances)
    report(worst < 1e-9, f"fast path vs dense reference: max gap {worst:.3e}")
    report(worst_kernel < 1e-9, "likelihood kernel vs dense reference, every outcome: "
           f"max gap {worst_kernel:.3e}")
    print("kernels: " + ", ".join(kernels))

    graph = InteractionGraph.complete(4)
    model = IsingModel(graph)
    x = rng.uniform(-0.5, 0.5, graph.dimension)
    echo = model.outcome_distribution(x, ExperimentSpec(IQLE, 11.7, x, FULL_BASIS))
    report(abs(echo[0] - 1.0) < 1e-12,
           f"perfect echo at matching inversion: P = {float(echo[0])!r}")

    pair = IsingModel(InteractionGraph.line(2))
    gap = 0.0
    for _ in range(args.instances):
        x = rng.uniform(-0.5, 0.5)
        inversion = rng.uniform(-0.5, 0.5)
        spec = ExperimentSpec(IQLE, rng.uniform(0.01, 50.0), [inversion], TWO_OUTCOME)
        closed = single_param_likelihood(0, x, inversion, spec.time)
        gap = max(gap, abs(pair.likelihood(0, [x], spec) - closed))
    report(gap < 1e-12, f"2-qubit pair vs one-coupling closed form: max gap {gap:.3e}")

    prior = GaussianPrior1D(0.5, 0.1)
    gap = risk_gap = 0.0
    for _ in range(max(5, args.instances // 20)):
        x_inv = rng.uniform(0.2, 0.8)
        t = rng.uniform(0.5, 20.0)
        for d in (0, 1):
            gap = max(gap, abs(
                posterior_mean_1d(d, prior, x_inv, t)
                - quadrature_posterior_mean_1d(d, prior, x_inv, t)
            ))
        for alpha in (0.0, 0.1):
            risk_gap = max(risk_gap, abs(
                bayes_risk_1d(prior, x_inv, t, alpha)
                - quadrature_bayes_risk_1d(prior, x_inv, t, alpha)
            ) / prior.sigma**2)
    report(gap < 1e-6, f"closed-form posterior mean vs quadrature: max gap {gap:.3e}")
    report(risk_gap < 1e-9,
           f"closed-form risk vs quadrature: max gap {risk_gap:.3e} sigma^2")

    return 0 if all(passed) else 1


# The flags `learn` and `scaling` share, on parent parsers built once a
# process rather than on every `main`, and split where `scaling` puts its --n.
_CONFIG = argparse.ArgumentParser(add_help=False)
_CONFIG.add_argument("--config", required=True, help="path to a JSON run config")
_OVERRIDES = argparse.ArgumentParser(add_help=False)
_OVERRIDES.add_argument("--seed", type=int, default=None, help="override the master seed")
_OVERRIDES.add_argument("--out", default=None, help="override the output directory")
_OVERRIDES.add_argument("--trials", type=int, default=None, help="override the trial count")
_OVERRIDES.add_argument("--threads", type=int, default=1,
                        help="worker processes; 0 means one per CPU")
_SIZES = argparse.ArgumentParser(add_help=False)
_SIZES.add_argument("--n", type=int, nargs="+", required=True, help="system sizes to sweep")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hamlearn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    learn = sub.add_parser("learn", parents=[_CONFIG, _OVERRIDES],
                           help="run a learning ensemble from a config file")
    learn.set_defaults(func=_cmd_learn)

    risk = sub.add_parser("risk", help="scan one-coupling expected loss over times")
    risk.add_argument("--mu", type=float, default=0.5, help="prior mean")
    risk.add_argument("--sigma", type=float, default=0.1, help="prior standard deviation")
    risk.add_argument("--alpha", type=float, default=0.0, help="bit-flip rate of the data")
    risk.add_argument("--strategy", default="mean_plus_sigma",
                      choices=["none", "mean_plus_sigma", "mean_minus_sigma", "pgh", "fixed"])
    risk.add_argument("--x-inv", type=float, default=0.0,
                      help="inversion coupling for the fixed strategy")
    risk.add_argument("--t-max", type=float, default=None,
                      help="largest time on the grid (default 4/sigma)")
    risk.add_argument("--points", type=int, default=50, help="grid size")
    risk.add_argument("--pgh-draws", type=int, default=1000)
    risk.add_argument("--seed", type=int, default=0)
    risk.add_argument("--out", default="results")
    risk.set_defaults(func=_cmd_risk)

    scaling = sub.add_parser("scaling", parents=[_CONFIG, _SIZES, _OVERRIDES],
                             help="median decay exponent vs system size")
    scaling.set_defaults(func=_cmd_scaling)

    validate = sub.add_parser("validate", help="run built-in cross-checks")
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("--instances", type=int, default=100,
                          help="random instances per check")
    validate.set_defaults(func=_cmd_validate)

    fit = sub.add_parser("fit", help="refit a decay exponent to an existing CSV")
    fit.add_argument("--input", required=True, help="CSV with an index column first")
    fit.add_argument("--column", default="p50", help="loss column to fit")
    fit.add_argument("--window", type=float, default=0.1,
                     help="leading fraction of experiments to drop")
    fit.add_argument("--out", default=None)
    fit.set_defaults(func=_cmd_fit)

    return parser


def main(argv=None) -> int:
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HamlearnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
