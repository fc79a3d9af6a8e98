"""The benchmark's output contract: each run ends in one strict JSON result.

`perfbench/run.py` prints, as the last line of standard output, one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  A reader that
rejects NaN, Infinity and null values must accept it, and the metrics must
be exactly those `BENCHMARK.json` declares.  The traced runs of `risk_scan`
and `line6_noisy` between them reach every per-layer metric; a traced
target that no longer resolves in the program would read null.  Every
gated workload's untraced run is checked as well.
"""

import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} in benchmark output")


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"] for metric in json.load(handle)[kind]}


@pytest.mark.parametrize("workload, trace", [
    ("risk_scan", 1),
    ("line6_noisy", 1),
    ("risk_scan", 0),
    ("complete4", 0),
    ("line6_noisy", 0),
])
def test_last_line_is_a_strict_result(workload, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.strip().splitlines()
    assert lines, run.stderr
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True, run.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0
    metrics = result["metrics"]
    assert set(metrics) == _declared("per_layer" if trace else "end_to_end")
    for name, metric in metrics.items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name
