"""Benchmark of hamlearn: whole learning runs and risk scans, timed and checked.

    python3 perfbench/run.py --workload complete4 --seed 1 --seconds 12 --trace 0

Run from a checkout of the repository; the program is imported from its
`src/` directory.  With `--trace 0` the workload makes its fixed number of
whole rounds and more until `--seconds` have passed, then prints the
end-to-end metrics: `setup_s` (median of several fresh-process set-ups),
`ops_per_s` (median over rounds of operations per second) and
`peak_rss_mb`.  With `--trace 1` it makes the fixed rounds untraced, then
the same rounds with every layer wrapped, and prints the per-layer
metrics.  Either way the outputs are checked after the timed part, and the
last line of standard output is one JSON object: correct, attempted,
failed, metrics.  See README.md."""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PROBES = 3
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_program() -> None:
    """Import hamlearn from this checkout's source, never from elsewhere."""
    package = os.path.join(SRC, "hamlearn", "__init__.py")
    if not os.path.isfile(package):
        sys.exit(f"perfbench: no program source at {package}")
    sys.path.insert(0, SRC)
    import hamlearn

    if os.path.abspath(hamlearn.__file__) != package:
        sys.exit(f"perfbench: imported hamlearn from {hamlearn.__file__}, not {package}")


def run_rounds(workload, seconds=0.0):
    """The workload's fixed number of whole rounds, then more whole rounds
    until `seconds` have passed.  Returns (operations, seconds, data) each."""
    rounds = []
    started = time.perf_counter()
    while len(rounds) < workload.rounds or time.perf_counter() - started < seconds:
        begin = time.perf_counter()
        ops, data = workload.round(len(rounds))
        rounds.append((ops, time.perf_counter() - begin, data))
    return rounds


def probe(name, workload) -> dict:
    """Time one fresh-process set-up, from launch to ready."""
    command = [sys.executable, os.path.join(HERE, "probe.py"), "--workload", name,
               *workload.probe_args()]
    started = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
        status = child.wait()
    if status != 0 or not line:
        raise RuntimeError(f"set-up probe exited with status {status}")
    return {**json.loads(line), "setup_s": ready - started}


def probe_medians(name, workload) -> dict:
    reports = [probe(name, workload) for _ in range(PROBES)]
    return {key: statistics.median(r[key] for r in reports) for key in reports[0]}


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest finished child."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def context(workload) -> dict:
    """Thread settings and versions the run used; BLAS threads are left at
    the library default, so they are recorded, never set."""
    import numpy
    import scipy

    return {"cpus": len(os.sched_getaffinity(0)), "workers": workload.workers,
            "threads": {v: os.environ.get(v) for v in THREAD_VARIABLES},
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def measure(name, workload_class, args, out_dir):
    workload = workload_class(out_dir, args.seed)
    rounds = run_rounds(workload, seconds=args.seconds)
    rss = peak_rss_mb()
    setup = probe_medians(name, workload)
    data = [r[2] for r in rounds]
    problems = workload.check(data)
    ops = sum(r[0] for r in rounds)
    metrics = {
        "setup_s": {"value": setup["setup_s"], "unit": "s"},
        "ops_per_s": {"value": statistics.median(r[0] / r[1] for r in rounds), "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    rates = [round(r[0] / r[1], 3) for r in rounds]
    print(json.dumps({"round_rates": rates, "context": context(workload)}), file=sys.stderr)
    return problems, ops, metrics


def trace(name, workload_class, args, out_dir):
    import layers
    from spans import Tracer, layer_totals

    plain = workload_class(os.path.join(out_dir, "untraced"), args.seed)
    untraced = run_rounds(plain)
    traced_workload = workload_class(os.path.join(out_dir, "traced"), args.seed)
    spill = os.path.join(out_dir, "spill")
    os.makedirs(spill)
    tracer = Tracer(spill)
    layers.install(tracer)
    try:
        traced = run_rounds(traced_workload)
    finally:
        tracer.restore()
    setup = probe_medians(name, plain)

    def rate(rounds):
        return sum(r[0] for r in rounds) / sum(r[1] for r in rounds)

    info = {**setup, "workers": plain.workers,
            "untraced_ops_per_s": rate(untraced), "traced_ops_per_s": rate(traced)}
    metrics = layers.per_layer(layer_totals(tracer.collect()), info, set(tracer.missing))
    for layer, reason in tracer.missing.items():
        print(f"perfbench: layer {layer} missing: {reason}", file=sys.stderr)
    tracer.dump(os.path.join(OUT, f"trace-{name}-seed{args.seed}.json"),
                {"metrics": metrics, "context": context(plain)})

    traced_data = [r[2] for r in traced]
    problems = traced_workload.check(traced_data)
    if traced_workload.outputs(traced_data) != plain.outputs([r[2] for r in untraced]):
        problems.append("traced rounds differ from untraced rounds")
    return problems, sum(r[0] for r in untraced + traced), metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    out_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir)
    try:
        run = trace if args.trace else measure
        problems, ops, metrics = run(args.workload, WORKLOADS[args.workload], args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": ops, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
