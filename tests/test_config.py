"""Unit tests for config parsing/emission and the command-line interface."""

import json
import math
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from hamlearn.cli import main
from hamlearn.config import RunConfig, emit_config, parse_config
from hamlearn.errors import SchemaError


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
        assert parse_config(emit_config(config)) == config

    def test_golden_file_round_trip(self):
        golden = os.path.join(os.path.dirname(__file__), "data", "golden_config.json")
        with open(golden) as handle:
            text = handle.read()
        config = parse_config(text)
        assert config.particles == 5000
        assert config.model.n == 4
        assert emit_config(config) == text
        assert parse_config(emit_config(config)) == config

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
        assert parse_config(emit_config(config)) == config


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
    ])
    def test_risk_rejects_unservable_flags(self, tmp_path, capsys, flags, named):
        out_dir = str(tmp_path / "risk")
        assert main(["risk", "--out", out_dir] + flags) == 2
        assert capsys.readouterr().err.startswith(f"error: {named}: ")
        assert not os.path.exists(out_dir)

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

    def test_fit_refits_summary(self, tmp_path, capsys):
        path = tmp_path / "summary.csv"
        rows = ["experiment_index,p25,p50,p75"]
        for k in range(40):
            value = 2.0 * np.exp(-0.1 * k)
            rows.append(f"{k},{value},{value},{value}")
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit", "--input", str(path), "--column", "p50", "--window", "0.0"]) == 0
        out = capsys.readouterr().out
        gamma = float(out.split("gamma=")[1].split()[0])
        assert gamma == pytest.approx(0.1, rel=1e-9)

    def test_validate_passes(self, capsys):
        assert main(["validate", "--instances", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
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
