"""Unit tests for config parsing/emission and the command-line interface."""

import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, fields, is_dataclass, replace

import numpy as np
import pytest

from hamlearn.cli import main
from hamlearn.config import ModelConfig, ResampleConfig, RunConfig, parse_config, parse_config_file
from hamlearn.errors import SchemaError
from hamlearn.harness import fit_decay, run_ensemble, scaling_study
from hamlearn.risk import GaussianPrior1D, risk_scan


def emit(config):
    """JSON text of a config, as the golden file is written."""
    return json.dumps(asdict(config), indent=2) + "\n"


class TestParseConfig:
    def test_empty_object_gives_defaults(self):
        config = parse_config("{}")
        assert config == RunConfig()
        assert config.model.graph == "complete"
        assert config.particles == 2000
        assert config.resample.a == 0.9

    def test_unknown_top_level_field_named(self):
        with pytest.raises(SchemaError, match="particels"):
            parse_config('{"particels": 100}')

    def test_unknown_nested_field_named(self):
        with pytest.raises(SchemaError, match="model.qubits"):
            parse_config('{"model": {"qubits": 4}}')

    def test_bad_json_reports_line(self):
        with pytest.raises(SchemaError, match="line 2"):
            parse_config('{\n  "particles": }')

    def test_type_errors_name_field(self):
        with pytest.raises(SchemaError, match="particles"):
            parse_config('{"particles": "many"}')
        with pytest.raises(SchemaError, match="resample.a"):
            parse_config('{"resample": {"a": 1.5}}')
        with pytest.raises(SchemaError, match="bitflip_alpha"):
            parse_config('{"bitflip_alpha": 0.7}')

    def test_explicit_edge_list(self):
        config = parse_config('{"model": {"graph": [[0, 1], [1, 2]], "n": 3}}')
        assert config.model.graph == ((0, 1), (1, 2))

    def test_bounds_enforced(self):
        with pytest.raises(SchemaError, match="model.box"):
            parse_config('{"model": {"box": [1.0, -1.0]}}')
        with pytest.raises(SchemaError, match="trials"):
            parse_config('{"trials": 0}')
        with pytest.raises(SchemaError, match="particles"):
            parse_config('{"particles": 1}')


class TestRoundTrip:
    def test_default_round_trip(self):
        config = RunConfig()
        assert parse_config(emit(config)) == config

    def test_golden_file_round_trip(self):
        golden = os.path.join(os.path.dirname(__file__), "data", "golden_config.json")
        with open(golden) as handle:
            text = handle.read()
        config = parse_config(text)
        assert config.particles == 5000
        assert config.model.n == 4
        assert emit(config) == text
        assert parse_config(emit(config)) == config

    def test_custom_round_trip(self):
        config = parse_config(
            json.dumps(
                {
                    "model": {
                        "kind": "ising",
                        "graph": [[0, 2], [1, 2]],
                        "n": 3,
                        "box": [0.0, 100.0],
                        "degenerate_couplings": True,
                    },
                    "experiment": {"kind": "QLE", "measurement": "two"},
                    "particles": 1234,
                    "resample": {"a": 0.98, "threshold": 0.4},
                    "evaluator": {"mode": "noisy_exact", "noise": 0.1},
                    "bitflip_alpha": 0.05,
                    "n_experiments": 77,
                    "trials": 3,
                    "seed": 99,
                    "out": "somewhere",
                    "pgh": {"t_max": 1e5, "min_separation": 1e-9, "max_redraws": 17},
                    "fit_window": 0.2,
                    "truth": [0.5, 0.25],
                }
            )
        )
        assert parse_config(emit(config)) == config


def leaf_fields(cls=RunConfig, prefix=""):
    """(dotted path, field) for every leaf field of the config schema."""
    for f in fields(cls):
        if is_dataclass(f.default_factory):
            yield from leaf_fields(f.default_factory, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, f


def config_setting(path, value):
    """JSON config text that sets one dotted field path to `value`."""
    for key in reversed(path.split(".")):
        value = {key: value}
    return json.dumps(value)


def built_setting(path, value):
    """A RunConfig built in Python with one dotted field path set to `value`."""
    *sections, name = path.split(".")
    if not sections:
        return RunConfig(**{name: value})
    section = {f.name: f.default_factory for f in fields(RunConfig)}[sections[0]]
    return RunConfig(**{sections[0]: section(**{name: value})})


# One out-of-range value per bounded field and its full message, pinned so
# that a change to the parser keeps the text users see.
OUT_OF_RANGE = {
    "model.n": (1, "model.n: must be at least 2, got 1"),
    "model.box": ([1.0, -1.0], "model.box: low must be below high, got [1.0, -1.0]"),
    "particles": (1, "particles: must be at least 2, got 1"),
    "resample.a": (1.5, "resample.a: must lie in [0, 1], got 1.5"),
    "resample.threshold": (0, "resample.threshold: must lie in (0, 1], got 0.0"),
    "evaluator.n_samp": (0, "evaluator.n_samp: must be at least 1, got 0"),
    "evaluator.noise": (-0.1, "evaluator.noise: must be nonnegative, got -0.1"),
    "bitflip_alpha": (0.7, "bitflip_alpha: must lie in [0, 0.5], got 0.7"),
    "n_experiments": (0, "n_experiments: must be at least 1, got 0"),
    "trials": (0, "trials: must be at least 1, got 0"),
    "seed": (-1, "seed: must be at least 0, got -1"),
    "pgh.t_max": (0, "pgh.t_max: must be positive"),
    "pgh.min_separation": (0, "pgh.min_separation: must be positive"),
    "pgh.max_redraws": (0, "pgh.max_redraws: must be at least 1, got 0"),
    "fit_window": (1.0, "fit_window: must lie in [0, 1), got 1.0"),
}


class TestSchema:
    @pytest.mark.parametrize("path", [path for path, _ in leaf_fields()])
    def test_every_field_rejects_a_wrong_type(self, path):
        with pytest.raises(SchemaError) as info:
            parse_config(config_setting(path, {"not": "a value"}))
        assert str(info.value).startswith(f"{path}: expected ")

    @pytest.mark.parametrize("path", sorted(OUT_OF_RANGE))
    def test_out_of_range_message(self, path):
        value, message = OUT_OF_RANGE[path]
        with pytest.raises(SchemaError) as info:
            parse_config(config_setting(path, value))
        assert str(info.value) == message

    @pytest.mark.parametrize("path", sorted(OUT_OF_RANGE))
    def test_built_config_rejects_out_of_range_like_parser(self, path):
        value, message = OUT_OF_RANGE[path]
        with pytest.raises(SchemaError) as info:
            built_setting(path, value)
        assert str(info.value) == message

    @pytest.mark.parametrize("setting, message", [
        ({"model": {"graph": "complete", "n": 3}, "truth": [0.1, 0.2]},
         "truth: expected length 3, got 2"),
        ({"model": {"kind": "single"}, "truth": [0.1, 0.2, 0.3]},
         "truth: expected length 1, got 3"),
        ({"model": {"graph": "line", "n": 15}}, "model.n: must be at most 14, got 15"),
    ])
    def test_built_config_checks_model_block_like_parser(self, setting, message):
        built = dict(setting, model=ModelConfig(**setting["model"]))
        for build in (lambda: RunConfig(**built), lambda: parse_config(json.dumps(setting))):
            with pytest.raises(SchemaError) as info:
                build()
            assert str(info.value) == message

    def test_built_config_stores_parsed_values(self):
        setting = {"model": {"graph": [[0, 1], [1, 2]], "box": [0, 2]},
                   "resample": {"threshold": 1}, "truth": [1, 0.5]}
        built = RunConfig(model=ModelConfig(graph=[[0, 1], [1, 2]], box=[0, 2]),
                          resample=ResampleConfig(threshold=1), truth=[1, 0.5])
        assert built == parse_config(json.dumps(setting))
        assert built.model.graph == ((0, 1), (1, 2))
        assert built.model.box == (0.0, 2.0) and isinstance(built.resample.threshold, float)
        assert built.truth == (1.0, 0.5)

    def test_out_of_range_table_covers_every_bounded_field(self):
        bounded = {path for path, f in leaf_fields() if f.metadata.get("bound")}
        assert bounded and bounded <= set(OUT_OF_RANGE)

    def test_single_kind_ignores_n(self):
        config = parse_config('{"model": {"kind": "single", "n": 1000}, "truth": [0.1]}')
        assert config.model.n == 1000


def write_config(tmp_path, **extra):
    payload = {
        "model": {"kind": "single"},
        "experiment": {"kind": "IQLE", "measurement": "two"},
        "particles": 200,
        "n_experiments": 15,
        "trials": 2,
        "seed": 3,
    }
    payload.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestCli:
    def test_learn_writes_outputs(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        out_dir = str(tmp_path / "results")
        assert main(["learn", "--config", config_path, "--out", out_dir]) == 0
        for name in ("trajectories.jsonl", "summary.csv", "fits.csv", "meta.json"):
            assert os.path.exists(os.path.join(out_dir, name))
        captured = capsys.readouterr()
        assert "median loss" in captured.out

    def test_learn_deterministic_output_bytes(self, tmp_path):
        # A rerun of the same command rewrites all four files byte for byte
        # (meta.json echoes the output directory, so both runs share it).
        config_path = write_config(tmp_path)
        out_dir = str(tmp_path / "results")
        names = ("trajectories.jsonl", "summary.csv", "fits.csv", "meta.json")
        runs = []
        for _ in range(2):
            assert main(["learn", "--config", config_path, "--out", out_dir]) == 0
            runs.append({name: (tmp_path / "results" / name).read_bytes() for name in names})
        for name in names:
            assert runs[0][name] == runs[1][name], name

    def test_learn_trials_override(self, tmp_path):
        config_path = write_config(tmp_path)
        out_dir = str(tmp_path / "results")
        assert main(["learn", "--config", config_path, "--out", out_dir, "--trials", "1"]) == 0
        with open(os.path.join(out_dir, "fits.csv")) as handle:
            assert len(handle.readlines()) == 2  # header + one trial

    @pytest.mark.parametrize("command", ["learn", "scaling"])
    @pytest.mark.parametrize("flag, value, field", [
        ("--trials", "0", "trials"),
        ("--trials", "-3", "trials"),
        ("--seed", "-1", "seed"),
        ("--threads", "-3", "--threads"),
    ])
    def test_overrides_pass_schema_checks(self, tmp_path, capsys, command, flag, value, field):
        config_path = write_config(tmp_path)
        out_dir = str(tmp_path / "results")
        argv = [command, "--config", config_path, "--out", out_dir, flag, value]
        if command == "scaling":
            argv += ["--n", "2", "3"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")
        assert not os.path.exists(out_dir)

    @pytest.mark.parametrize("setting, path", [
        ({"model": {"box": [-math.inf, 0]}}, "model.box[0]"),
        ({"model": {"graph": "complete", "n": 3}, "truth": [math.nan, 0, 0]}, "truth[0]"),
        ({"pgh": {"min_separation": math.inf}}, "pgh.min_separation"),
        ({"pgh": {"t_max": math.inf}}, "pgh.t_max"),
        ({"evaluator": {"noise": math.inf}}, "evaluator.noise"),
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, setting, path):
        # json.dumps writes inf and nan as the Infinity and NaN that json.loads reads.
        self.assert_learn_rejects(tmp_path, capsys, setting, path)

    @pytest.mark.parametrize("setting, path", [
        ({"model": {"graph": [[0, 5]], "n": 3}}, "model.graph"),
        ({"model": {"graph": [[1, 0]], "n": 3}}, "model.graph"),
        ({"model": {"graph": [[0, 1], [0, 1]], "n": 3}}, "model.graph"),
        ({"model": {"graph": "complete", "n": 3}, "truth": [0.1, 0.2]}, "truth"),
        ({"model": {"kind": "single"}, "truth": [0.1, 0.2, 0.3]}, "truth"),
        ({"model": {"graph": "line", "n": 15}}, "model.n"),
    ])
    def test_model_block_checked_as_a_whole(self, tmp_path, capsys, setting, path):
        self.assert_learn_rejects(tmp_path, capsys, setting, path)

    @pytest.mark.parametrize("graph, message", [
        ([[0, 1.7], ["1", 2.9]], "model.graph[0][1]: expected an integer, got 1.7"),
        ([[0, 1], ["1", 2]], "model.graph[1][0]: expected an integer, got '1'"),
        ([[True, 1]], "model.graph[0][0]: expected an integer, got True"),
        ([[0, 1.0]], "model.graph[0][1]: expected an integer, got 1.0"),
    ], ids=["float", "string", "boolean", "integral-float"])
    def test_edge_endpoints_must_be_json_integers(self, tmp_path, capsys, graph, message):
        # int() would read each of these as some valid-looking edge list.
        config_path = write_config(tmp_path, model={"graph": graph, "n": 3})
        out_dir = str(tmp_path / "results")
        assert main(["learn", "--config", config_path, "--out", out_dir]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.path.exists(out_dir)

    @staticmethod
    def assert_learn_rejects(tmp_path, capsys, setting, path):
        config_path = write_config(tmp_path, **setting)
        out_dir = str(tmp_path / "results")
        assert main(["learn", "--config", config_path, "--out", out_dir]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert not os.path.exists(out_dir)

    def test_scaling_sizes_pass_model_checks(self, tmp_path, capsys):
        config_path = write_config(tmp_path, model={"graph": "line"})
        out_dir = str(tmp_path / "results")
        argv = ["scaling", "--config", config_path, "--out", out_dir, "--n", "3", "15"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: --n: model.n: must be at most 14")
        assert not os.path.exists(out_dir)

    @pytest.mark.parametrize("flags, named", [
        (["--strategy", "pgh", "--pgh-draws", "0"], "--pgh-draws"),
        (["--strategy", "pgh", "--pgh-draws", "1"], "--pgh-draws"),
        (["--points", "0"], "--points"),
        (["--sigma", "0"], "--sigma"),
        (["--alpha", "0.7"], "--alpha"),
        (["--mu", "inf"], "--mu"),
        (["--mu", "nan"], "--mu"),
        (["--strategy", "fixed", "--x-inv", "inf"], "--x-inv"),
        (["--strategy", "fixed", "--x-inv", "nan"], "--x-inv"),
        (["--seed", "-1"], "--seed"),
        (["--sigma", "inf"], "--sigma"),
        (["--sigma", "1e200"], "--sigma"),
        (["--mu", "1e200"], "--mu"),
        (["--strategy", "fixed", "--x-inv", "3e306"], "--x-inv"),
        (["--strategy", "fixed", "--sigma", "1e-300", "--x-inv", "1e10"], "--x-inv"),
    ])
    def test_risk_rejects_unservable_flags(self, tmp_path, capsys, flags, named):
        out_dir = str(tmp_path / "risk")
        assert main(["risk", "--out", out_dir] + flags) == 2
        assert capsys.readouterr().err.startswith(f"error: {named}: ")
        assert not os.path.exists(out_dir)

    @pytest.mark.parametrize("flags", [
        ["--strategy", "fixed", "--x-inv", "2e306"],
        ["--strategy", "fixed", "--t-max", "1e300", "--x-inv", "1e307"],
    ])
    def test_risk_serves_huge_inversions_whose_phase_stays_finite(self, tmp_path, flags):
        # The phase omega (mu - x_inv) stays finite wherever the envelope is nonzero.
        out_dir = tmp_path / "risk"
        assert main(["risk", "--out", str(out_dir)] + flags) == 0
        rows = (out_dir / "risk.csv").read_text().splitlines()[1:]
        assert len(rows) == 50 and all(math.isfinite(float(r.split(",")[3])) for r in rows)

    @pytest.mark.parametrize("value", ["-1", "0", "inf", "nan"])
    def test_risk_rejects_unservable_t_max(self, tmp_path, capsys, value):
        out_dir = str(tmp_path / "risk")
        assert main(["risk", "--out", out_dir, "--t-max", value]) == 2
        assert capsys.readouterr().err.startswith("error: --t-max: ")
        assert not os.path.exists(out_dir)

    @pytest.mark.parametrize("sizes", [["1", "2"], ["3", "0"]])
    def test_scaling_sizes_pass_schema_checks(self, tmp_path, capsys, sizes):
        config_path = write_config(tmp_path)
        out_dir = str(tmp_path / "results")
        assert main(["scaling", "--config", config_path, "--out", out_dir, "--n"] + sizes) == 2
        assert capsys.readouterr().err.startswith("error: --n: model.n: ")
        assert not os.path.exists(out_dir)

    def test_scaling_needs_two_sizes(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        out_dir = str(tmp_path / "results")
        assert main(["scaling", "--config", config_path, "--out", out_dir, "--n", "5"]) == 2
        assert capsys.readouterr().err.startswith("error: --n: ")
        assert not os.path.exists(out_dir)

    @pytest.mark.parametrize("sizes", [["2", "2"], ["2", "3", "2"]])
    def test_scaling_rejects_repeated_sizes(self, tmp_path, capsys, sizes):
        # Each size writes one row and one result directory of its own.
        config_path = write_config(tmp_path, model={"graph": "line"})
        out_dir = str(tmp_path / "results")
        assert main(["scaling", "--config", config_path, "--out", out_dir, "--n"] + sizes) == 2
        assert capsys.readouterr().err.startswith("error: --n: need at least two distinct ")
        assert not os.path.exists(out_dir)

    def test_risk_scan_csv(self, tmp_path, capsys):
        out_dir = str(tmp_path / "risk")
        assert main([
            "risk", "--mu", "0.5", "--sigma", "0.1", "--strategy", "none",
            "--points", "5", "--out", out_dir,
        ]) == 0
        with open(os.path.join(out_dir, "risk.csv")) as handle:
            lines = handle.read().strip().splitlines()
        assert lines[0] == "x_inv,t,alpha,risk,stderr"
        assert len(lines) == 6

    # The expected texts below are built from the returned objects with the
    # 17-significant-digit rules of the original hand-written writers.

    @staticmethod
    def summary_text(summary):
        return "experiment_index,p25,p50,p75\n" + "".join(
            f"{int(r[0])},{r[1]:.17g},{r[2]:.17g},{r[3]:.17g}\n" for r in summary)

    @staticmethod
    def fits_text(fits):
        return "trial,A,gamma,r2\n" + "".join(
            f"{k},nan,nan,nan\n" if fit is None
            else f"{k},{fit.amplitude:.17g},{fit.gamma:.17g},{fit.r2:.17g}\n"
            for k, fit in enumerate(fits))

    def test_risk_csv_text(self, tmp_path):
        out_dir = tmp_path / "risk"
        assert main(["risk", "--strategy", "fixed", "--x-inv", "0.37", "--alpha", "0.1",
                     "--points", "7", "--out", str(out_dir)]) == 0
        t_max = 4.0 / 0.1
        points = risk_scan(GaussianPrior1D(0.5, 0.1), 0.37,
                           np.linspace(t_max / 7, t_max, 7), alpha=0.1)
        assert (out_dir / "risk.csv").read_text() == "x_inv,t,alpha,risk,stderr\n" + "".join(
            f"{p.x_inv:.17g},{p.t:.17g},{p.alpha:.17g},{p.risk:.17g},{p.stderr:.17g}\n"
            for p in points)

    def test_learn_without_enough_points_writes_nan_fits(self, tmp_path):
        config_path = write_config(tmp_path, n_experiments=4)
        out_dir = tmp_path / "results"
        assert main(["learn", "--config", config_path, "--out", str(out_dir)]) == 0
        result = run_ensemble(replace(parse_config_file(config_path), out=str(out_dir)))
        assert result.fits == (None, None)
        assert (out_dir / "fits.csv").read_text() == self.fits_text(result.fits)
        assert self.fits_text(result.fits) == "trial,A,gamma,r2\n0,nan,nan,nan\n1,nan,nan,nan\n"
        assert (out_dir / "summary.csv").read_text() == self.summary_text(result.summary)

    def test_scaling_writes_csv_and_one_directory_per_size(self, tmp_path, capsys):
        config_path = write_config(tmp_path, model={"graph": "line"}, n_experiments=12)
        out_dir = tmp_path / "results"
        argv = ["scaling", "--config", config_path, "--out", str(out_dir), "--n", "2", "3"]
        assert main(argv) == 0
        config = replace(parse_config_file(config_path), out=str(out_dir))
        rows, results = scaling_study(config, [2, 3])
        assert (out_dir / "scaling.csv").read_text() == "n,d,median_gamma,trials_fit\n" + "".join(
            f"{r.n},{r.dimension},{r.median_gamma:.17g},{r.trials_fit}\n" for r in rows)
        assert sorted(os.listdir(out_dir)) == ["n=2", "n=3", "scaling.csv"]
        for row, result in zip(rows, results):
            size_dir = out_dir / f"n={row.n}"
            assert sorted(os.listdir(size_dir)) == [
                "fits.csv", "meta.json", "summary.csv", "trajectories.jsonl"]
            assert (size_dir / "summary.csv").read_text() == self.summary_text(result.summary)
            assert (size_dir / "fits.csv").read_text() == self.fits_text(result.fits)
        assert capsys.readouterr().out.endswith(f"wrote {out_dir / 'scaling.csv'}\n")

    def test_fit_out_writes_fits_csv(self, tmp_path):
        path = self.write_summary(tmp_path)
        out_dir = tmp_path / "fit"
        assert main(["fit", "--input", path, "--window", "0.2", "--out", str(out_dir)]) == 0
        series = [(k, 2.0 * np.exp(-0.1 * k)) for k in range(40)]
        fit = fit_decay([(k, float(f"{v}")) for k, v in series], window=0.2)
        assert (out_dir / "fits.csv").read_text() == self.fits_text([fit])

    @staticmethod
    def write_summary(tmp_path):
        path = tmp_path / "summary.csv"
        rows = ["experiment_index,p25,p50,p75"]
        for k in range(40):
            value = 2.0 * np.exp(-0.1 * k)
            rows.append(f"{k},{value},{value},{value}")
        path.write_text("\n".join(rows) + "\n")
        return str(path)

    def test_fit_refits_summary(self, tmp_path, capsys):
        path = self.write_summary(tmp_path)
        assert main(["fit", "--input", path, "--column", "p50", "--window", "0.0"]) == 0
        out = capsys.readouterr().out
        gamma = float(out.split("gamma=")[1].split()[0])
        assert gamma == pytest.approx(0.1, rel=1e-9)

    def test_fit_skips_an_infinite_loss(self, tmp_path, capsys):
        rows = [f"{k},{'inf' if k == 7 else repr(2.0 * math.exp(-0.1 * k))}" for k in range(20)]
        (tmp_path / "summary.csv").write_text("\n".join(["k,p50"] + rows) + "\n")
        assert main(["fit", "--input", str(tmp_path / "summary.csv")]) == 0
        gamma = float(capsys.readouterr().out.split("gamma=")[1].split()[0])
        assert gamma == pytest.approx(0.1, rel=1e-9)

    @pytest.mark.parametrize("argv, named", [
        (["validate", "--instances", "0"], "--instances"),
        (["validate", "--instances", "-5"], "--instances"),
        (["validate", "--seed", "-1"], "--seed"),
        (["fit", "--window", "-0.5"], "--window"),
        (["fit", "--window", "1"], "--window"),
        (["fit", "--window", "nan"], "--window"),
        (["fit", "--window", "inf"], "--window"),
    ])
    def test_validate_and_fit_reject_unservable_flags(self, tmp_path, capsys, argv, named):
        # No check reports on instances it never ran, and no fit runs on
        # a window it cannot serve.
        out_dir = tmp_path / "fit"
        if argv[0] == "fit":
            argv = argv + ["--input", self.write_summary(tmp_path), "--out", str(out_dir)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {named}: ")
        assert captured.out == ""
        assert not os.path.exists(out_dir)

    def test_fit_rejects_a_risk_csv(self, tmp_path, capsys):
        # A fixed-strategy risk.csv repeats its x_inv in the first column.
        assert main(["risk", "--strategy", "fixed", "--x-inv", "0.37",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "fit"
        argv = ["fit", "--input", str(tmp_path / "risk.csv"), "--column", "risk",
                "--out", str(out_dir)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --input: row 1: the first column must hold ")
        assert captured.out == ""
        assert not os.path.exists(out_dir)

    @pytest.mark.parametrize("text, column, named", [
        ("k,p50\n0,1\n0,0.5\n", "p50", "--input"),
        ("k,p50\n1,1\n0,0.5\n", "p50", "--input"),
        ("k,p50\n0,1\n1.5,0.5\n", "p50", "--input"),
        ("k,p50\n0,1\nnan,0.5\n", "p50", "--input"),
        ("k,p50\n0,1\ntwo,0.5\n", "p50", "--input"),
        ("k,p50\n0,1\n1,half\n", "p50", "--input"),
        ("k,p50\n0,1\n1\n", "p50", "--input"),
        ("k,p50\n0,1\n", "zz", "--column"),
        ("", "p50", "--column"),
    ], ids=["repeated", "decreasing", "fraction", "nan-index", "word-index", "word-value",
            "short-row", "missing-column", "empty-file"])
    def test_fit_rejects_input_it_cannot_fit(self, tmp_path, capsys, text, column, named):
        path = tmp_path / "input.csv"
        path.write_text(text)
        out_dir = tmp_path / "fit"
        argv = ["fit", "--input", str(path), "--column", column, "--out", str(out_dir)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {named}: ")
        assert captured.out == ""
        assert not os.path.exists(out_dir)

    @pytest.mark.parametrize("command, flag", [("learn", "--config"), ("scaling", "--config"),
                                               ("fit", "--input")])
    def test_unreadable_files_are_named_by_their_flag(self, tmp_path, capsys, command, flag):
        out_dir = tmp_path / "results"
        argv = [command, flag, str(tmp_path / "nope"), "--out", str(out_dir)]
        if command == "scaling":
            argv += ["--n", "2", "3"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: [Errno 2] ")
        assert not os.path.exists(out_dir)

    def test_validate_passes(self, capsys):
        assert main(["validate", "--instances", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out
        assert "line(5) forest" in out and "complete(5) half-table" in out

    def test_cli_import_skips_scipy_submodules(self):
        # scipy.stats and scipy.integrate cost about a second to import;
        # `hamlearn learn` needs neither, so only the commands that do load them.
        code = ("import sys, hamlearn.cli; "
                "print([m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules])")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert out.strip() == "[]"

    def test_schema_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"unknown_field": 1}')
        assert main(["learn", "--config", str(path)]) == 2
        assert "unknown_field" in capsys.readouterr().err

    def test_meta_echoes_config(self, tmp_path):
        config_path = write_config(tmp_path)
        out_dir = str(tmp_path / "results")
        assert main(["learn", "--config", config_path, "--out", out_dir]) == 0
        with open(os.path.join(out_dir, "meta.json")) as handle:
            meta = json.load(handle)
        assert meta["config"]["particles"] == 200
        assert meta["config"]["model"]["kind"] == "single"
        assert "numpy" in meta["versions"]
        assert len(meta["trial_seeds"]) == 2

    def test_meta_escapes_control_characters(self, tmp_path):
        config_path = write_config(tmp_path)
        out_dir = str(tmp_path / "o\tu\nt")
        assert main(["learn", "--config", config_path, "--out", out_dir]) == 0
        with open(os.path.join(out_dir, "meta.json")) as handle:
            assert json.load(handle)["config"]["out"] == out_dir
