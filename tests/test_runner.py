"""Cell-grid executor: one world/network/head build per grid, isolated cells."""

import numpy as np
import pytest

import seva.runner as runner
from seva.config import resolve_config
from seva.model import adaptable_params, build_network
from seva.runner import (
    build_world_and_model,
    execute_ablate,
    execute_run,
    execute_time,
    run_cell,
    run_cells,
    write_trace,
)
from seva.scenarios import InfeasibleWorldError

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
        (name, seed) for name, _ in cfg.methods() for seed in cfg.seeds
    ]
    assert shared[0].counters["n_optimizer_steps"] > 0  # the first cell adapts
    for result in shared:
        alone = run_cell(cfg, build_world_and_model(cfg), result.name, result.method, result.seed)
        write_trace(result, cfg, tmp_path / "shared.jsonl")
        write_trace(alone, cfg, tmp_path / "alone.jsonl")
        assert (tmp_path / "shared.jsonl").read_bytes() == (tmp_path / "alone.jsonl").read_bytes()
    # run_cell never adapts the network it was handed
    for name, method in cfg.methods():
        run_cell(cfg, built, name, method, 0)
    np.testing.assert_array_equal(adaptable_params(built[1]), params_before)
