"""Machine-readable result export: every result file the package writes.

Four files per run: trajectories.jsonl (one record per experiment per
trial), summary.csv (loss percentiles per experiment index), fits.csv
(per-trial decay fits), and meta.json (config echo, versions, seed); the
CLI's risk.csv and scaling.csv go through `write_csv` too.  All floats are
written with 17 significant digits, which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Optional, Sequence

import numpy as np
import scipy

from . import __version__
from .config import RunConfig
from .harness import DecayFit, EnsembleResult, LossTrajectory


def format_float(value: float) -> str:
    return f"{value:.17g}"


def _json_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if value is None:
        return "null"
    return json.dumps(str(value), ensure_ascii=False)


def dumps17(obj, indent: int = 0) -> str:
    """JSON text with floats rendered at 17 significant digits."""
    pad = " " * indent
    child = " " * (indent + 2)
    if isinstance(obj, dict):
        items = ",\n".join(
            f'{child}"{key}": {dumps17(value, indent + 2)}' for key, value in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = ", ".join(dumps17(value, indent) for value in obj)
        return "[" + items + "]"
    return _json_scalar(obj)


def write_trajectories_jsonl(path, trajectories: Sequence[LossTrajectory]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for trial, trajectory in enumerate(trajectories):
            for index, record in enumerate(trajectory.records):
                fields = {
                    "trial": trial,
                    "index": index,
                    "loss": record.loss,
                    "ess": record.ess,
                    "resampled": record.resampled,
                    "t": record.time,
                    "sim_calls": record.sim_calls,
                    "skipped": record.skipped,
                }
                pairs = ", ".join(
                    f'"{key}": {_json_scalar(value)}' for key, value in fields.items()
                )
                handle.write("{" + pairs + "}\n")


def write_csv(path, header: Sequence[str], rows) -> None:
    """A CSV file of `header` and `rows`, every cell through `format_float`
    (which prints small integers as `str` does)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(map(format_float, row)) + "\n")


def write_fits_csv(path, fits: Sequence[Optional[DecayFit]]) -> None:
    write_csv(path, ("trial", "A", "gamma", "r2"),
              [(k, np.nan, np.nan, np.nan) if f is None else (k, f.amplitude, f.gamma, f.r2)
               for k, f in enumerate(fits)])


def write_meta_json(path, config: RunConfig, trial_seeds: Sequence[int]) -> None:
    meta = {
        "config": asdict(config),
        "seed": config.seed,
        "trial_seeds": list(trial_seeds),
        "versions": {
            "hamlearn": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps17(meta) + "\n")


def emit_results(result: EnsembleResult, out_dir) -> dict:
    """Write the four result files into `out_dir`; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "trajectories": os.path.join(out_dir, "trajectories.jsonl"),
        "summary": os.path.join(out_dir, "summary.csv"),
        "fits": os.path.join(out_dir, "fits.csv"),
        "meta": os.path.join(out_dir, "meta.json"),
    }
    write_trajectories_jsonl(paths["trajectories"], result.trajectories)
    write_csv(paths["summary"], ("experiment_index", "p25", "p50", "p75"), result.summary)
    write_fits_csv(paths["fits"], result.fits)
    write_meta_json(paths["meta"], result.config, result.trial_seeds)
    return paths
