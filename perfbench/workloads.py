"""The workloads: inputs made from the seed, one round of work, checks.

A round is the unit the timed loop repeats: one `hamlearn learn` through
`cli.main` (complete4 and line6_noisy: one trial; ensemble_serial and
ensemble_pool: 16 short trials), or one set of four `hamlearn risk` scans
(risk_scan).  `round` returns the operations it completed and where it
wrote its outputs; `check` reads them after the timed part.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import replace

import numpy as np

from hamlearn import cli, harness
from hamlearn.config import parse_config_file
from hamlearn.design import PghConfig

import checks
from reference import BruteForceIsing


def round_seed(seed: int, index: int) -> int:
    """Seed of round `index`; rounds of one run share no random stream."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_cli(argv) -> None:
    """Run a hamlearn command with its console report captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"hamlearn exited with status {status}")


class Workload:
    # Rounds of the traced run (fixed work, so its counts repeat) and the
    # fewest rounds a timed run makes.
    rounds = 1
    workers = 1

    def __init__(self, out_dir: str, seed: int):
        self.out_dir = out_dir
        self.seed = seed
        self.config_path = os.path.join(out_dir, "config.json")
        os.makedirs(out_dir, exist_ok=True)
        if hasattr(self, "config"):
            with open(self.config_path, "w", encoding="utf-8") as handle:
                json.dump(self.config, handle)

    def probe_args(self) -> list:
        return ["--config", self.config_path, "--seed", str(round_seed(self.seed, 0))]


def read_csv_floats(path):
    with open(path, encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return [[float(v) for v in row] for row in rows[1:]]


def read_trials(out):
    """Per trial, the experiment records of trajectories.jsonl."""
    trials = {}
    with open(os.path.join(out, "trajectories.jsonl"), encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            trials.setdefault(record["trial"], []).append(record)
    return [trials[k] for k in sorted(trials)]


class Learn(Workload):
    """`hamlearn learn` of one config through `cli.main`; an operation is
    one experiment of one trial."""

    # Experiments of the first trial replayed to collect designed experiments.
    replay = 40

    def round(self, index):
        out = os.path.join(self.out_dir, f"round-{index}")
        run_cli(["learn", "--config", self.config_path, "--out", out,
                 "--seed", str(round_seed(self.seed, index)), "--threads", str(self.workers)])
        with open(os.path.join(out, "trajectories.jsonl"), encoding="utf-8") as handle:
            return sum(1 for _ in handle), out

    def outputs(self, data):
        return [[r["loss"] for r in trial] for out in data for trial in read_trials(out)]

    def check(self, data) -> list:
        config = parse_config_file(self.config_path)
        problems = []
        for out in data:
            trials = read_trials(out)
            losses = [[r["loss"] for r in trial] for trial in trials]
            problems += checks.summary_problems(
                read_csv_floats(os.path.join(out, "summary.csv")), losses)
            fits = [row[1:] for row in read_csv_floats(os.path.join(out, "fits.csv"))]
            problems += checks.fit_problems(fits, losses, config.fit_window)
            problems += checks.ess_problems(
                [r["ess"] for trial in trials for r in trial], config.particles)
        problems += checks.decay_problems(checks.median_curve(self.outputs(data)))
        return problems + self.likelihood_check(config, data[0])

    def likelihood_check(self, config, out) -> list:
        """Replay the first trial's opening experiments with a designer that
        keeps each designed experiment and the cloud it was designed from;
        the replay must repeat the command's losses bit for bit.  Then score
        sampled particles at those experiments, and at the trial's own later
        (longer) times, against the brute force."""
        with open(os.path.join(out, "meta.json"), encoding="utf-8") as handle:
            trial_seed = json.load(handle)["trial_seeds"][0]
        trial = read_trials(out)[0]
        config = replace(config, n_experiments=self.replay)
        rng = np.random.default_rng(trial_seed)
        model = harness.build_model(config.model)
        truth = harness.draw_truth(config, model, rng)
        pgh_config = PghConfig(
            kind=config.experiment.kind, t_max=config.pgh.t_max,
            min_separation=config.pgh.min_separation, max_redraws=config.pgh.max_redraws,
            measurement=config.experiment.measurement)
        designed = []

        def designer(cloud, stream):
            spec = harness.pgh(cloud, pgh_config, stream)
            designed.append((spec, cloud))
            return spec

        replayed = harness.run_trial(config, truth, rng, model=model, designer=designer)
        problems = []
        if replayed.losses().tolist() != [r["loss"] for r in trial[: self.replay]]:
            problems.append("replayed trial does not repeat the command's losses")
        picker = np.random.default_rng([self.seed, 1])
        samples = []
        for spec, cloud in designed[:: self.replay // 10]:
            samples.append((spec, cloud.positions[picker.choice(cloud.size, 8)]))
        late = np.linspace(self.replay, len(trial) - 1, 10).astype(int)
        for (spec, cloud), index in zip(designed[-10:], late):
            longer = replace(spec, time=trial[index]["t"])
            samples.append((longer, cloud.positions[picker.choice(cloud.size, 8)]))
        brute = BruteForceIsing(model.graph.n, model.graph.edges)
        return problems + checks.likelihood_problems(samples, model.likelihood_many, brute)


class Complete4(Learn):
    # Five trials keep the median-loss decay check clear of the trials
    # that lock onto a wrong mode (2 of 60 measured).
    rounds = 5
    config = {"model": {"graph": "complete", "n": 4}, "particles": 5000,
              "n_experiments": 200, "trials": 1}


class Line6Noisy(Learn):
    config = {"model": {"graph": "line", "n": 6}, "particles": 10000, "n_experiments": 200,
              "evaluator": {"mode": "noisy_exact", "noise": 0.1}, "trials": 1}


class EnsembleSerial(Learn):
    config = {"model": {"graph": "complete", "n": 3}, "particles": 1000,
              "n_experiments": 100, "trials": 16}


class EnsemblePool(EnsembleSerial):
    def __init__(self, out_dir, seed):
        super().__init__(out_dir, seed)
        self.workers = nproc()


class RiskScan(Workload):
    """`hamlearn risk` scans of the one-coupling prior; an operation is one
    expected-loss evaluation."""

    mu, sigma = 0.5, 0.1
    points, pgh_draws = 25, 10
    # (label, strategy, bit-flip rate, evaluations per scan)
    scans = (("fixed", "mean_plus_sigma", 0.0, 1), ("fixed_flip", "mean_plus_sigma", 0.1, 1),
             ("pgh", "pgh", 0.0, pgh_draws), ("pgh_flip", "pgh", 0.1, pgh_draws))
    grid_samples = 5

    def probe_args(self):
        return ["--seed", str(round_seed(self.seed, 0))]

    def round(self, index):
        out = os.path.join(self.out_dir, f"round-{index}")
        for label, strategy, alpha, _ in self.scans:
            run_cli(["risk", "--mu", str(self.mu), "--sigma", str(self.sigma),
                     "--strategy", strategy, "--alpha", str(alpha),
                     "--points", str(self.points), "--pgh-draws", str(self.pgh_draws),
                     "--seed", str(round_seed(self.seed, index)),
                     "--out", os.path.join(out, label)])
        return self.points * sum(scan[3] for scan in self.scans), out

    def rows(self, out, label):
        with open(os.path.join(out, label, "risk.csv"), encoding="utf-8") as handle:
            return [{key: float(value) for key, value in row.items()}
                    for row in csv.DictReader(handle)]

    def outputs(self, data):
        return [[row["risk"] for label, *_ in self.scans for row in self.rows(out, label)]
                for out in data]

    def check(self, data) -> list:
        problems = []
        picker = np.random.default_rng([self.seed, 2])
        for out in data:
            for label, _, _, _ in self.scans:
                rows = self.rows(out, label)
                if len(rows) != self.points:
                    problems.append(f"{label}: {len(rows)} rows, expected {self.points}")
                problems += checks.envelope_problems(rows, self.sigma)
                if label.startswith("fixed"):
                    sampled = picker.choice(len(rows), self.grid_samples, replace=False)
                    problems += checks.grid_problems(
                        [rows[i] for i in sampled], self.mu, self.sigma)
        return problems


# The ensembles are left out of BENCHMARK.json: their round rates spread too
# widely to gate (see README.md), but they stay runnable for reference figures.
WORKLOADS = {"complete4": Complete4, "line6_noisy": Line6Noisy, "risk_scan": RiskScan,
             "ensemble_serial": EnsembleSerial, "ensemble_pool": EnsemblePool}
