"""Set-up probe: import the program and build one workload's starting state.

`run.py` starts this script in a fresh interpreter several times per run and
times it from launch to the JSON line it prints, so the set-up time counts
interpreter start, imports and the build, as a user of `hamlearn` pays them.

    python3 perfbench/probe.py --workload complete4 --config cfg.json --seed 7
"""

import argparse
import json
import os
import sys
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    started = time.perf_counter()
    import numpy as np
    from hamlearn import cli, harness
    from hamlearn.config import parse_config_file
    if args.workload == "risk_scan":
        from hamlearn.risk import GaussianPrior1D
    imported = time.perf_counter()

    if args.workload == "risk_scan":
        options = cli.build_parser().parse_args(
            ["risk", "--mu", "0.5", "--sigma", "0.1", "--seed", str(args.seed)])
        GaussianPrior1D(options.mu, options.sigma)
    else:
        config = parse_config_file(args.config)
        model = harness.build_model(config.model)
        rng = np.random.default_rng(args.seed)
        harness.draw_truth(config, model, rng)
        harness.draw_prior_cloud(config, model, rng)
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - started, "build_s": built - imported}), flush=True)


if __name__ == "__main__":
    main()
