"""Cell-grid executor: one world/network/head build per grid, isolated cells."""

import csv
import json

import numpy as np
import pytest

import seva.runner as runner
from seva.adapt import AdaptEngine
from seva.cli import main
from seva.config import resolve_config
from seva.model import adaptable_params, build_network
from seva.runner import (
    build_stream,
    build_world_and_model,
    execute_ablate,
    execute_run,
    execute_time,
    run_cell,
    run_cells,
    write_trace,
)
from seva.scenarios import InfeasibleWorldError, generate_stream

GRID = {
    "master_seed": 5,
    "seeds": [0, 1],
    "world": {"n_classes": 4, "d_in": 8},
    "network": {"feature_dim": 8, "n_layers": 2, "groups": 2},
    "stream": {"batch_size": 16, "n_batches": 6},
    "methods": [
        {"kind": "tent", "name": "tent", "lr": 0.05},
        {"kind": "explicit_va", "name": "va", "threshold_rho": 10.0, "lr": 0.05, "rounds": 2},
        {"kind": "seva", "name": "seva", "threshold_rho": 10.0, "lr": 0.05},
        {"kind": "no_adapt", "name": "frozen"},
    ],
}


@pytest.fixture
def build_calls(monkeypatch):
    """Count calls through the name the executor looks up."""
    calls = []

    def counting(cfg):
        calls.append(cfg)
        return build_world_and_model(cfg)

    monkeypatch.setattr(runner, "build_world_and_model", counting)
    return calls


@pytest.mark.parametrize("execute", [execute_run, execute_ablate, execute_time], ids=lambda f: f.__name__)
def test_each_grid_builds_the_world_once(build_calls, tmp_path, execute):
    execute(resolve_config(GRID), tmp_path)
    assert len(build_calls) == 1


def test_infeasible_world_raises_before_the_first_cell(build_calls, tmp_path):
    # overlapping prototypes: the fitted head reaches 0.69 clean accuracy, below 0.95
    world = dict(GRID["world"], proto_scale=0.3, min_separation=0.0)
    cfg = resolve_config(dict(GRID, world=world, max_world_retries=1))
    with pytest.raises(InfeasibleWorldError, match="could not reach clean accuracy"):
        execute_run(cfg, tmp_path)
    assert len(build_calls) == 1
    assert not list(tmp_path.glob("*.jsonl"))


def test_world_retries_share_one_network_build(monkeypatch):
    # the network depends only on the master seed, so retrying the world reuses it
    calls = []

    def counting(**kwargs):
        calls.append(kwargs)
        return build_network(**kwargs)

    monkeypatch.setattr(runner, "build_network", counting)
    world = dict(GRID["world"], proto_scale=0.3, min_separation=0.0)
    with pytest.raises(InfeasibleWorldError, match="in 3 world attempts"):
        build_world_and_model(resolve_config(dict(GRID, world=world, max_world_retries=3)))
    assert len(calls) == 1

def test_cells_on_a_shared_build_match_cells_on_their_own(tmp_path):
    # Every cell after the first runs on a build that earlier training cells
    # used; its trace must equal the same cell run on a fresh build.
    cfg = resolve_config(GRID)
    built = build_world_and_model(cfg)
    params_before = adaptable_params(built[1])
    shared = list(run_cells(cfg, cfg.methods(), cfg.seeds))
    assert [(r.name, r.seed) for r in shared] == [
        (name, seed) for seed in cfg.seeds for name, _ in cfg.methods()
    ]
    assert shared[0].counters["n_optimizer_steps"] > 0  # the first cell adapts
    for result in shared:
        fresh = build_world_and_model(cfg)
        alone = run_cell(cfg, fresh, build_stream(cfg, fresh[0], result.seed), result.name, result.method, result.seed)
        write_trace(result, cfg, tmp_path / "shared.jsonl")
        write_trace(alone, cfg, tmp_path / "alone.jsonl")
        assert (tmp_path / "shared.jsonl").read_bytes() == (tmp_path / "alone.jsonl").read_bytes()
    # run_cell never adapts the network it was handed
    stream = build_stream(cfg, built[0], 0)
    for name, method in cfg.methods():
        run_cell(cfg, built, stream, name, method, 0)
    np.testing.assert_array_equal(adaptable_params(built[1]), params_before)


@pytest.mark.parametrize("n", [2, 16, 17, 40, 96, 500])
def test_calibration_concatenates_only_the_batches_holding_its_rows(monkeypatch, n):
    cfg = resolve_config(dict(GRID, calibration_samples=n))
    built = build_world_and_model(cfg)
    stream = build_stream(cfg, built[0], 0)
    concatenated, calibrated = [], []

    class Numpy:  # numpy as run_cell sees it, noting the rows it concatenates
        def __getattr__(self, name):
            return getattr(np, name)

        def concatenate(self, arrays):
            concatenated.append(sum(map(len, arrays)))
            return np.concatenate(arrays)

    calibrate = AdaptEngine.calibrate
    monkeypatch.setattr(AdaptEngine, "calibrate", lambda e, inputs: calibrated.append(inputs) or calibrate(e, inputs))
    monkeypatch.setattr(runner, "np", Numpy())
    seva = next(method for _, method in cfg.methods() if method.kind == "seva")
    result = run_cell(cfg, built, stream, "seva", seva, 0)
    every_row = np.concatenate([b.inputs for b in stream])
    rows = every_row[:n]
    B = cfg.tree["stream"]["batch_size"]
    assert concatenated == [min(-(-n // B) * B, len(every_row))]  # whole leading batches only
    assert len(calibrated) == 1 and calibrated[0].tobytes() == rows.tobytes()
    assert result.counters["n_calibration_forward"] == len(rows)


def cell_major(names, seeds):
    return [(name, seed) for name in names for seed in seeds]


@pytest.mark.parametrize("execute", [execute_run, execute_ablate, execute_time], ids=lambda f: f.__name__)
def test_each_seed_stream_is_generated_once(monkeypatch, tmp_path, execute):
    calls = []

    def counting(world, spec):
        calls.append(spec.seed)
        return generate_stream(world, spec)

    monkeypatch.setattr(runner, "generate_stream", counting)
    cfg = resolve_config(GRID)
    execute(cfg, tmp_path)
    n_seeds = 1 if execute is execute_time else len(cfg.seeds)
    assert len(calls) == len(set(calls)) == n_seeds


def test_run_rows_traces_csv_and_cli_output_are_cell_major(tmp_path, capsys):
    cfg = resolve_config(GRID)
    names = [name for name, _ in cfg.methods()]
    order = cell_major(names, cfg.seeds)
    result = execute_run(cfg, tmp_path / "api")
    assert [(r["method"], r["seed"]) for r in result["rows"]] == order
    assert [p.name for p in result["traces"]] == [f"trace_{n}_seed{s}.jsonl" for n, s in order]
    with (tmp_path / "api" / "summary.csv").open() as fh:
        assert [(r["method"], int(r["seed"])) for r in csv.DictReader(fh)] == order
    config_path = tmp_path / "grid.json"
    config_path.write_text(json.dumps(GRID))
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "cli")]) == 0
    lines = capsys.readouterr().out.splitlines()[:-1]
    assert [(line.split()[0], int(line.split()[1].split("=")[1])) for line in lines] == order


@pytest.mark.parametrize("sweep", ["components", "sigma_scale", "rho"])
def test_ablation_rows_and_csv_are_cell_major(tmp_path, sweep):
    cfg = resolve_config(GRID)
    rows = execute_ablate(cfg, tmp_path, sweep=sweep)
    cells = list(dict.fromkeys(r["cell"] for r in rows))
    assert len(cells) == len(rows) // len(cfg.seeds)
    assert [(r["cell"], r["seed"]) for r in rows] == cell_major(cells, cfg.seeds)
    csv_name = "ablation.csv" if sweep == "components" else f"sweep_{sweep}.csv"
    with (tmp_path / csv_name).open() as fh:
        assert [(r["cell"], int(r["seed"])) for r in csv.DictReader(fh)] == cell_major(cells, cfg.seeds)


def test_adapt_step_is_called_once_per_batch_with_one_positional_argument(monkeypatch, tmp_path):
    # shaped like the benchmark's pass-through: the original runs, then
    # record(report, engine, inputs) sees the call's arguments
    original = AdaptEngine.adapt_step
    seen = []

    def record(report, engine, inputs):
        seen.append(inputs)

    def observed(*args, **kwargs):
        assert len(args) == 2 and not kwargs  # the engine and its inputs, by position
        result = original(*args, **kwargs)
        record(result, *args, **kwargs)
        return result

    monkeypatch.setattr(AdaptEngine, "adapt_step", observed)
    cfg = resolve_config(GRID)
    execute_run(cfg, tmp_path)
    n_batches = cfg.tree["stream"]["n_batches"]
    assert len(seen) == len(cfg.methods()) * len(cfg.seeds) * n_batches


def test_shared_streams_are_read_only_and_a_full_grid_runs(monkeypatch, tmp_path):
    streams = []

    def keeping(cfg, world, run_seed):
        streams.append(build_stream(cfg, world, run_seed))
        return streams[-1]

    monkeypatch.setattr(runner, "build_stream", keeping)
    cfg = resolve_config(GRID)
    result = execute_run(cfg, tmp_path)
    assert len(result["rows"]) == len(cfg.methods()) * len(cfg.seeds)
    assert len(streams) == len(cfg.seeds)
    for batch in (s[0] for s in streams):
        with pytest.raises(ValueError, match="read-only"):
            batch.inputs[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            batch.labels[0] = 0
