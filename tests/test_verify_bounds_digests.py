"""Pinned stdout and exit code of ``seva verify-bounds``.

How ``oracle.bound_sweep`` schedules its instances (threads, pools, the
order in which instances finish) may change; the reports it prints, in
instance order, may not. A deliberate change re-records these digests and
says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from seva.cli import main

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"

# mc seed 13 contains a genuine counterexample instance (index 16), so the
# sweep exits 1; the tree is the one the CLI's violation test runs.
VIOLATION_CONFIG = {
    "master_seed": 5,
    "seeds": [0],
    "world": {"n_classes": 4, "d_in": 8},
    "network": {"feature_dim": 8, "n_layers": 2, "groups": 2},
    "stream": {"batch_size": 16, "n_batches": 6},
    "methods": [{"kind": "no_adapt"}, {"kind": "seva", "lr": 0.02}],
    "mc": {"seed": 13, "n_instances": 20, "fast_n_samples": 2000},
}

# (config, --fast) -> (exit code, sha256 of stdout)
VERIFY_BOUNDS_DIGESTS = {
    ("committed_scenario", False): (
        0,
        "81d2c68cb119100638fa9baea620aff9f83a50d2328071a247d8af27e3fa5a3a",
    ),
    ("committed_scenario", True): (
        0,
        "14377c30e0ab2512226dccd28a8d4e0a5f5fb626a841845f759e0ba0f7329fcb",
    ),
    ("example_run", True): (
        0,
        "8e6954ed594e5d78b3bf3115fc06617f3e586c6d761936b24ca5823c6a31d028",
    ),
    ("mc_seed_13_violation", True): (
        1,
        "7b920e2dd473becd235d8a4faffc2c069cc18061edd8e8ee8737db4e5123dc18",
    ),
}


def config_path(tmp_path, name: str) -> Path:
    if name == "mc_seed_13_violation":
        path = tmp_path / "violation.json"
        path.write_text(json.dumps(VIOLATION_CONFIG))
        return path
    return CONFIGS_DIR / f"{name}.json"


@pytest.mark.parametrize(
    "name,fast",
    list(VERIFY_BOUNDS_DIGESTS),
    ids=[f"{name}{'-fast' if fast else ''}" for name, fast in VERIFY_BOUNDS_DIGESTS],
)
def test_verify_bounds_output_matches_its_pinned_digest(tmp_path, capsys, name, fast):
    argv = ["verify-bounds", "--config", str(config_path(tmp_path, name))]
    code = main(argv + ["--fast"] if fast else argv)
    stdout = capsys.readouterr().out
    assert (code, hashlib.sha256(stdout.encode()).hexdigest()) == VERIFY_BOUNDS_DIGESTS[(name, fast)]
