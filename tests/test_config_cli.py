"""Config validation, artifact contracts, CLI subcommands and exit codes."""

import copy
import csv
import json
import math
from pathlib import Path

import pytest

from seva.cli import main
from seva.config import ConfigError, config_hash, load_config, resolve_config
from seva.committed import committed_config
from seva.runner import RHO_SWEEP, SIGMA_SCALE_SWEEP, ablation_cells, execute_run

SMALL = {
    "master_seed": 5,
    "seeds": [0],
    "world": {"n_classes": 4, "d_in": 8},
    "network": {"feature_dim": 8, "n_layers": 2, "groups": 2},
    "stream": {"batch_size": 16, "n_batches": 6},
    "methods": [{"kind": "no_adapt"}, {"kind": "seva", "lr": 0.02}],
    "mc": {"n_instances": 4, "n_samples": 2000, "fast_n_samples": 500},
}


# The CSV schemas, pinned here because the runner writes each header from
# the keys of its first row.
SUMMARY_HEADER = [
    "method",
    "kind",
    "seed",
    "n_samples",
    "batch_size",
    "accuracy",
    "clean_accuracy",
    "mean_loss",
    "n_selected",
    "n_updates",
    "selection_precision",
    "selection_recall",
    "selection_f1",
    "n_forward",
    "n_backward",
    "n_optimizer_steps",
    "n_calibration_forward",
    "config_hash",
    "calib_wall_time",
    "stream_wall_time",
]
ABLATION_HEADER = ["cell", "param", "value", "seed", "accuracy", "selection_f1", "n_selected"]
TIMING_HEADER = [
    "method",
    "rounds",
    "accuracy",
    "n_forward",
    "n_backward",
    "n_optimizer_steps",
    "total_wall_time",
    "mean_step_ms",
]


def header_of(path):
    """The first line of a CSV file, split into its column names."""
    return path.read_text(encoding="utf-8").splitlines()[0].split(",")


def write_config(tmp_path, tree, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tree))
    return path


class TestConfigResolution:
    def test_documented_defaults(self):
        cfg = resolve_config({})
        method = cfg.tree["methods"][0]
        assert method["sigma_scale"] == 1.5
        assert method["threshold_rho"] == 1.0
        assert method["momentum"] == 0.9
        assert cfg.tree["stream"]["batch_size"] == 64
        assert cfg.tree["calibration_samples"] == 128

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'wrold'"):
            resolve_config({"wrold": {}})

    def test_unknown_nested_key_names_full_path(self):
        with pytest.raises(ConfigError, match="unknown key 'world.n_classs'"):
            resolve_config({"world": {"n_classs": 5}})

    def test_unknown_method_key(self):
        with pytest.raises(ConfigError, match=r"methods\[0\].learning_rate"):
            resolve_config({"methods": [{"kind": "tent", "learning_rate": 0.1}]})

    def test_bad_method_kind_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown method kind"):
            resolve_config({"methods": [{"kind": "sar"}]})

    def test_null_rho_means_no_threshold(self):
        cfg = resolve_config({"methods": [{"kind": "seva", "threshold_rho": None}]})
        _, method = cfg.methods()[0]
        assert math.isinf(method.threshold_rho)

    def test_infinite_rho_resolves_to_null(self):
        cfg = resolve_config({"methods": [{"kind": "seva", "threshold_rho": math.inf}]})
        assert cfg.tree["methods"][0]["threshold_rho"] is None
        assert math.isinf(cfg.methods()[0][1].threshold_rho)
        assert config_hash(cfg) == config_hash(resolve_config({"methods": [{"kind": "seva", "threshold_rho": None}]}))

    def test_hash_ignores_out_dir(self):
        a = resolve_config({"out_dir": "x"})
        b = resolve_config({"out_dir": "y"})
        assert config_hash(a) == config_hash(b)
        c = resolve_config({"master_seed": 9})
        assert config_hash(a) != config_hash(c)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_file_exit_two_names_path(self, tmp_path, capsys, kind):
        path = tmp_path / "cfg"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe" + json.dumps(SMALL).encode("utf-16-le"))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid config:") and str(path) in err

    def test_duplicate_key_exit_two_names_key(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        path.write_text('{"stream": {"n_batches": 3, "n_batches": 2}}')
        with pytest.raises(ConfigError, match="duplicate key 'n_batches'"):
            load_config(path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("invalid config: duplicate key 'n_batches'")



def leaf_paths(tree, prefix=()):
    """Every leaf path of a resolved tree; a list of objects contributes the
    leaves of its first entry."""
    for key, value in tree.items():
        path = prefix + (key,)
        if isinstance(value, dict):
            yield from leaf_paths(value, path)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            yield from leaf_paths(value[0], path + (0,))
        else:
            yield path


def non_finite_leaves(tree, prefix=()):
    """Paths of the float leaves that are NaN or infinite, lists included."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, value in items:
        path = prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from non_finite_leaves(value, path)
        elif isinstance(value, float) and not math.isfinite(value):
            yield path


DEFAULT_TREE = resolve_config({}).tree
NO_ADAPT_TREE = resolve_config({"methods": [{"kind": "no_adapt"}]}).tree  # a kind that never updates
FUZZ_VALUES = [None, math.nan, math.inf, -math.inf, -1, -1.0, 0, 0.0, True, "x", [], {}]


def assert_rejects_or_resolves_finite(tree, path):
    for value in FUZZ_VALUES:
        raw = copy.deepcopy(tree)
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        try:
            cfg = resolve_config(raw)
        except ConfigError:
            continue
        bad = list(non_finite_leaves(cfg.tree))
        assert bad == [], f"{value!r} at {path} resolved with non-finite leaves {bad}"
        json.dumps(cfg.tree, allow_nan=False)  # strict JSON, as resolved_config.json is written


class TestConfigFuzz:
    """One leaf at a time set to each hostile value: resolve_config either
    raises ConfigError or returns a tree whose float leaves are all finite, so
    that it dumps as strict JSON (an infinite threshold_rho resolves to null,
    which means unbounded)."""

    def test_paths_cover_list_entries(self):
        paths = set(leaf_paths(DEFAULT_TREE))
        assert ("methods", 0, "momentum") in paths
        assert ("stream", "corruption", "specs", 0, "severity") in paths
        assert ("seeds",) in paths

    @pytest.mark.parametrize(
        "path", list(leaf_paths(DEFAULT_TREE)), ids=lambda p: ".".join(map(str, p))
    )
    def test_rejects_or_resolves_finite(self, path):
        assert_rejects_or_resolves_finite(DEFAULT_TREE, path)

    @pytest.mark.parametrize(
        "path", [p for p in leaf_paths(NO_ADAPT_TREE) if p[0] == "methods"], ids=lambda p: ".".join(map(str, p))
    )
    def test_a_no_adapt_entry_rejects_or_resolves_finite(self, path):
        assert_rejects_or_resolves_finite(NO_ADAPT_TREE, path)


class TestRunArtifacts:
    def test_summary_schema_is_versioned(self, tmp_path):
        execute_run(resolve_config(SMALL), tmp_path)
        assert header_of(tmp_path / "summary.csv") == SUMMARY_HEADER

    def test_run_writes_expected_artifacts(self, tmp_path):
        cfg = resolve_config(SMALL)
        result = execute_run(cfg, tmp_path)
        assert (tmp_path / "resolved_config.json").exists()
        assert (tmp_path / "summary.csv").exists()
        assert len(result["traces"]) == 2
        with (tmp_path / "summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["00_no_adapt", "01_seva"]
        assert list(rows[0].keys()) == SUMMARY_HEADER

    def test_resolved_config_reproduces_run(self, tmp_path):
        cfg = resolve_config(SMALL)
        execute_run(cfg, tmp_path / "a")
        resolved = json.loads((tmp_path / "a" / "resolved_config.json").read_text())
        cfg2 = resolve_config(resolved)
        execute_run(cfg2, tmp_path / "b")
        for p in sorted((tmp_path / "a").glob("*.jsonl")):
            assert p.read_bytes() == (tmp_path / "b" / p.name).read_bytes()

    def test_deterministic_columns_stable_across_reruns(self, tmp_path):
        cfg = resolve_config(SMALL)
        execute_run(cfg, tmp_path / "a")
        execute_run(cfg, tmp_path / "b")
        wall = {"calib_wall_time", "stream_wall_time"}
        rows = []
        for sub in ("a", "b"):
            with (tmp_path / sub / "summary.csv").open() as fh:
                rows.append([
                    {k: v for k, v in row.items() if k not in wall}
                    for row in csv.DictReader(fh)
                ])
        assert rows[0] == rows[1]

    def test_trace_schema(self, tmp_path):
        cfg = resolve_config(SMALL)
        result = execute_run(cfg, tmp_path)
        lines = result["traces"][0].read_text().splitlines()
        header = json.loads(lines[0])
        assert header["record"] == "header"
        assert header["schema"] == 1
        assert header["config_hash"] == config_hash(cfg)
        step = json.loads(lines[1])
        assert step["record"] == "step"
        assert set(step) == {
            "record", "step", "losses", "selected", "predicted",
            "confidence", "labels", "n_selected", "updated",
        }
        summary = json.loads(lines[-1])
        assert summary["record"] == "summary"
        assert len(lines) == 1 + cfg.tree["stream"]["n_batches"] + 1


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL)
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert "summary" in capsys.readouterr().out

    def test_invalid_config_exit_two(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"bogus_key": 1})
        code = main(["run", "--config", str(cfg_path)])
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_rerun_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r1")]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r2")]) == 0
        for p in sorted((tmp_path / "r1").glob("*.jsonl")):
            assert p.read_bytes() == (tmp_path / "r2" / p.name).read_bytes()

    def test_out_dir_precedence(self, tmp_path, monkeypatch):
        tree = dict(SMALL)
        tree["out_dir"] = str(tmp_path / "from_config")
        cfg_path = write_config(tmp_path, tree)
        monkeypatch.setenv("SEVA_OUT", str(tmp_path / "from_env"))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "from_env" / "summary.csv").exists()
        assert not (tmp_path / "from_config").exists()
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "from_flag")]) == 0
        assert (tmp_path / "from_flag" / "summary.csv").exists()

    @pytest.mark.parametrize("command", ["run", "time"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive_seeds_flag_exit_two(self, tmp_path, capsys, command, n):
        cfg_path = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out), "--seeds", str(n)]) == 2
        assert "'seeds'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("patch,named", [
        pytest.param({"methods": [{"kind": "tent", "lr": "0.1"}]}, ["'methods[0].lr'"], id="string_lr"),
        pytest.param({"stream": {"batch_size": "8"}}, ["'stream.batch_size'"], id="string_batch_size"),
        pytest.param({"world": {"n_classes": 2.5}}, ["'world.n_classes'"], id="fractional_n_classes"),
        pytest.param({"network": {"feature_dim": 8, "groups": 3}}, ["'network.groups'"], id="groups_not_dividing"),
        pytest.param({"seeds": [True]}, ["'seeds'"], id="boolean_seed"),
        pytest.param({"seeds": None}, ["'seeds'"], id="null_seeds"),
        pytest.param({"methods": [{"kind": "seva", "rounds": 5}]}, ["'methods[0]'", "rounds"], id="rounds_without_recipe_rounds"),
        # a repeated seed or resolved method name would overwrite another cell's trace file
        pytest.param({"seeds": [1, 1]}, ["'seeds'", "duplicate"], id="duplicate_seed"),
        pytest.param(
            {"methods": [{"kind": "tent", "name": "a"}, {"kind": "seva", "name": "a"}]},
            ["'methods[1].name'", "duplicate"],
            id="duplicate_method_name",
        ),
        pytest.param(
            {"methods": [{"kind": "tent"}, {"kind": "no_adapt", "name": "00_tent"}]},
            ["'methods[1].name'", "duplicate"],
            id="name_equals_generated_name",
        ),
        # out-of-range values that would otherwise fail later, or certify nothing
        pytest.param({"mc": {"n_instances": 0}}, ["'mc.n_instances'"], id="zero_mc_instances"),
        pytest.param({"mc": {"n_samples": 1}}, ["'mc.n_samples'"], id="one_mc_sample"),
        pytest.param({"mc": {"fast_n_samples": 1}}, ["'mc.fast_n_samples'"], id="one_fast_mc_sample"),
        pytest.param({"mc": {"c_max": 1}}, ["'mc.c_max'"], id="mc_c_max_below_two"),
        pytest.param({"mc": {"d_max": 1}}, ["'mc.d_max'"], id="mc_d_max_below_two"),
        pytest.param({"mc": {"sigma_scale": -0.5}}, ["'mc.sigma_scale'"], id="negative_mc_sigma_scale"),
        pytest.param({"max_world_retries": 0}, ["'max_world_retries'"], id="zero_world_retries"),
        pytest.param({"world": {"d_in": 0}}, ["'world.d_in'"], id="zero_d_in"),
        pytest.param({"min_clean_accuracy": 2.0}, ["'min_clean_accuracy'"], id="clean_accuracy_above_one"),
        pytest.param({"min_clean_accuracy": -0.1}, ["'min_clean_accuracy'"], id="negative_clean_accuracy"),
        # a negative depth would build a network with nothing to adapt
        pytest.param(
            {"network": {"n_layers": -1}, "methods": [{"kind": "tent"}]},
            ["'network.n_layers'"],
            id="negative_n_layers",
        ),
        # a negative mixture segment length used to loop forever building segments
        pytest.param(
            {"stream": {"corruption": {"segment_len": -5, "specs": [
                {"kind": "additive_noise", "severity": 3}, {"kind": "feature_scale", "severity": 3},
            ]}}},
            ["'stream.corruption.segment_len'"],
            id="negative_corruption_segment_len",
        ),
        # head-fit values that crash, yield nan accuracy, skip refinement or ascend
        pytest.param(
            {"network": {"head_fit": {"n_train_per_class": 0}}},
            ["'network.head_fit.n_train_per_class'"],
            id="zero_head_fit_train",
        ),
        pytest.param(
            {"network": {"head_fit": {"n_eval_per_class": 0}}},
            ["'network.head_fit.n_eval_per_class'"],
            id="zero_head_fit_eval",
        ),
        pytest.param(
            {"network": {"head_fit": {"refine_steps": -3}}},
            ["'network.head_fit.refine_steps'"],
            id="negative_head_fit_refine_steps",
        ),
        pytest.param(
            {"network": {"head_fit": {"lr": -0.5}}}, ["'network.head_fit.lr'"], id="negative_head_fit_lr"
        ),
        pytest.param(
            {"network": {"head_fit": {"momentum": 1.0}}},
            ["'network.head_fit.momentum'"],
            id="unit_head_fit_momentum",
        ),
        pytest.param(
            {"network": {"head_fit": {"weight_decay": -0.01}}},
            ["'network.head_fit.weight_decay'"],
            id="negative_head_fit_weight_decay",
        ),
        # method hyperparameters outside their range: a NaN momentum turned every
        # loss after the first update into NaN, a bad sigma_scale failed at calibration
        pytest.param(
            {"methods": [{"kind": "tent", "momentum": float("nan")}]},
            ["'methods[0]'", "momentum"],
            id="nan_method_momentum",
        ),
        pytest.param(
            {"methods": [{"kind": "tent", "momentum": -3.0}]},
            ["'methods[0]'", "momentum"],
            id="negative_method_momentum",
        ),
        pytest.param(
            {"methods": [{"kind": "seva", "sigma_scale": -1.0}]},
            ["'methods[0]'", "sigma_scale"],
            id="negative_method_sigma_scale",
        ),
        pytest.param(
            {"methods": [{"kind": "seva", "sigma_scale": float("nan")}]},
            ["'methods[0]'", "sigma_scale"],
            id="nan_method_sigma_scale",
        ),
        pytest.param(
            {"methods": [{"kind": "tent", "lr": float("inf")}]}, ["'methods[0]'", "lr"], id="infinite_method_lr"
        ),
        # a kind that never updates took them, and resolved_config.json held NaN or Infinity
        pytest.param(
            {"methods": [{"kind": "no_adapt", "lr": float("nan")}]}, ["'methods[0]'", "lr"], id="nan_no_adapt_lr"
        ),
        pytest.param(
            {"methods": [{"kind": "no_adapt", "momentum": float("inf")}]},
            ["'methods[0]'", "momentum"],
            id="infinite_no_adapt_momentum",
        ),
        # world, network, stream and mc values that failed late or ran silently
        pytest.param({"network": {"activation": "relu"}}, ["'network.activation'"], id="unknown_activation"),
        pytest.param({"network": {"feature_dim": 0}}, ["'network.feature_dim'"], id="zero_feature_dim"),
        pytest.param(
            {"network": {"n_layers": 0, "feature_dim": 4}},
            ["'network.feature_dim'", "world.d_in"],
            id="identity_extractor_width_mismatch",
        ),
        pytest.param({"world": {"max_retries": 0}}, ["'world.max_retries'"], id="zero_world_max_retries"),
        pytest.param({"world": {"cluster_size": 0}}, ["'world.cluster_size'"], id="zero_cluster_size"),
        pytest.param({"world": {"within_scale": float("nan")}}, ["'world.within_scale'"], id="nan_within_scale"),
        pytest.param({"world": {"proto_scale": 0.0}}, ["'world.proto_scale'"], id="zero_proto_scale"),
        pytest.param(
            {"world": {"min_separation": float("inf")}}, ["'world.min_separation'"], id="infinite_min_separation"
        ),
        pytest.param({"world": {"cluster_spread": -1.0}}, ["'world.cluster_spread'"], id="negative_cluster_spread"),
        pytest.param(
            {"stream": {"label_schedule": {"shift_concentration": float("-inf")}}},
            ["'stream.label_schedule.shift_concentration'"],
            id="infinite_shift_concentration",
        ),
        pytest.param(
            {"network": {"head_fit": {"lr": float("inf")}}}, ["'network.head_fit.lr'"], id="infinite_head_fit_lr"
        ),
        pytest.param(
            {"network": {"head_fit": {"weight_decay": float("inf")}}},
            ["'network.head_fit.weight_decay'"],
            id="infinite_head_fit_weight_decay",
        ),
        pytest.param({"mc": {"sigma_scale": float("inf")}}, ["'mc.sigma_scale'"], id="infinite_mc_sigma_scale"),
        # an integer beyond float range in a float leaf used to fail the run with OverflowError
        pytest.param({"world": {"within_scale": 10**400}}, ["'world.within_scale'"], id="oversized_int_within_scale"),
        pytest.param(
            {"methods": [{"kind": "seva", "lr": 10**400}]}, ["'methods[0].lr'"], id="oversized_int_method_lr"
        ),
        # one stream row resolved, then failed calibration at run time
        pytest.param(
            {"stream": {"batch_size": 1, "n_batches": 1}, "methods": [{"kind": "seva"}]},
            ["'stream.n_batches'", "calibration"],
            id="one_row_stream",
        ),
        # a name with a path separator resolved, then failed writing its trace file
        pytest.param(
            {"methods": [{"kind": "tent", "name": "a/b"}]}, ["'methods[0].name'", "'a/b'"], id="path_in_method_name"
        ),
    ])
    def test_badly_typed_value_exit_two_names_key(self, tmp_path, capsys, patch, named):
        cfg_path = write_config(tmp_path, dict(SMALL, **patch))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid config:")
        for text in named:
            assert text in err

    @pytest.mark.parametrize("argv", [
        pytest.param(["run", "--fast"], id="run_fast"),
        pytest.param(["ablate", "--fast"], id="ablate_fast"),
        pytest.param(["time", "--fast"], id="time_fast"),
        pytest.param(["verify-bounds", "--seeds", "2"], id="verify_bounds_seeds"),
        pytest.param(["verify-bounds", "--out", "elsewhere"], id="verify_bounds_out"),
    ])
    def test_flag_the_command_ignores_exit_two(self, tmp_path, capsys, argv):
        cfg_path = write_config(tmp_path, SMALL)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(cfg_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_seeds_flag_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL)
        out = tmp_path / "seeded"
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--seeds", "2"]) == 0
        assert len(list(out.glob("*.jsonl"))) == 4  # 2 methods x 2 seeds

    def test_verify_bounds_ok(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL)
        code = main(["verify-bounds", "--config", str(cfg_path), "--fast"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("instance") == 4
        assert "all 4 bounds satisfied" in out

    @pytest.mark.parametrize("command", ["run", "ablate", "time"])
    def test_infeasible_world_exit_one(self, tmp_path, capsys, command):
        # overlapping prototypes: the fitted head stays below the clean-accuracy floor
        world = dict(SMALL["world"], proto_scale=0.3, min_separation=0.0)
        cfg_path = write_config(tmp_path, dict(SMALL, world=world, max_world_retries=1))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("run failed: InfeasibleWorldError")
        assert [p.name for p in out.iterdir()] == ["resolved_config.json"]

    def test_verify_bounds_violation_exit_one(self, tmp_path, capsys):
        tree = dict(SMALL)
        # mc seed 13 contains a genuine counterexample instance (index 16)
        tree["mc"] = {"seed": 13, "n_instances": 20, "fast_n_samples": 2000}
        cfg_path = write_config(tmp_path, tree)
        code = main(["verify-bounds", "--config", str(cfg_path), "--fast"])
        captured = capsys.readouterr()
        assert code == 1
        assert "violated instances: [16]" in captured.err

    def test_ablate_components(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL)
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(cfg_path), "--out", str(out)]) == 0
        with (out / "ablation.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["cell"] for r in rows] == ["entropy", "selection", "l_ae", "selection_l_ae"]
        assert header_of(out / "ablation.csv") == ABLATION_HEADER

    def test_ablate_grid_structure(self):
        cfg = resolve_config(SMALL)
        cells = ablation_cells(cfg)
        assert [name for name, _ in cells] == ["entropy", "selection", "l_ae", "selection_l_ae"]
        kinds = {name: m.kind for name, m in cells}
        assert kinds == {
            "entropy": "tent",
            "selection": "entropy_select",
            "l_ae": "seva",
            "selection_l_ae": "seva",
        }
        assert math.isinf(dict(cells)["l_ae"].threshold_rho)

    @pytest.mark.parametrize("sweep,count,column_value", [
        ("sigma_scale", len(SIGMA_SCALE_SWEEP), "sigma_scale"),
        ("rho", len(RHO_SWEEP), "rho"),
    ])
    def test_ablate_sweeps(self, tmp_path, sweep, count, column_value):
        cfg_path = write_config(tmp_path, SMALL)
        out = tmp_path / f"sweep_{sweep}"
        assert main(["ablate", "--config", str(cfg_path), "--out", str(out), "--sweep", sweep]) == 0
        with (out / f"sweep_{sweep}.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == count
        assert header_of(out / f"sweep_{sweep}.csv") == ABLATION_HEADER
        assert all(r["param"] == column_value for r in rows)
        values = [float(r["value"]) for r in rows]
        assert values == (SIGMA_SCALE_SWEEP if sweep == "sigma_scale" else RHO_SWEEP)

    @pytest.mark.parametrize("command", ["ablate", "time"])
    def test_ablate_and_time_without_augmented_loss_method(self, tmp_path, command):
        # a method that never updates may carry lr 0; the seva template these
        # commands vary comes from the default method block, not from it
        cfg_path = write_config(tmp_path, dict(SMALL, methods=[{"kind": "no_adapt", "lr": 0}]))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0

    def test_time_roster(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, SMALL)
        out = tmp_path / "time"
        assert main(["time", "--config", str(cfg_path), "--out", str(out)]) == 0
        with (out / "timing.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == [
            "no_adapt", "tent", "entropy_select", "seva", "explicit_va_5", "explicit_va_7",
        ]
        assert header_of(out / "timing.csv") == TIMING_HEADER
        by_name = {r["method"]: r for r in rows}
        assert int(by_name["seva"]["n_backward"]) <= int(by_name["tent"]["n_backward"])


CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


class TestShippedConfigs:
    def test_committed_scenario_file_matches_module(self):
        tree = json.loads((CONFIGS_DIR / "committed_scenario.json").read_text())
        expected = dict(committed_config().tree)
        expected["out_dir"] = tree["out_dir"]  # only the destination differs
        assert tree == expected

    def test_config_hashes_are_pinned(self):
        # a renamed or added constructor default would change the resolved
        # tree, and with it every config hash
        assert config_hash(resolve_config({})) == "2cc297e5bd7d3991"
        assert config_hash(committed_config()) == "7814497eb07b5e52"
        assert config_hash(load_config(CONFIGS_DIR / "example_run.json")) == "d33ff0962817500a"

    def test_example_config_loads(self):
        cfg = load_config(CONFIGS_DIR / "example_run.json")
        assert [name for name, _ in cfg.methods()] == ["frozen", "tent", "seva"]
