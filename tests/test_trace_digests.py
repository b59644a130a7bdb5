"""Pinned JSONL trace bytes for a small grid covering every method kind.

Any change to the arithmetic of a loss, its gradient, the selection rule
or an update rule changes at least one digest; a deliberate change
re-records them and says why. Every kind that trains takes at
least one gradient step on this grid (see the selection counts below), so
none of the digests is a frozen-model trace in disguise.
"""

import hashlib

import pytest

from seva.config import resolve_config
from seva.runner import execute_run

GRID = {
    "master_seed": 107,
    "seeds": [0, 1],
    "world": {"n_classes": 10, "d_in": 16},
    "network": {"feature_dim": 16, "n_layers": 2, "groups": 4},
    "stream": {
        "batch_size": 32,
        "n_batches": 10,
        "label_schedule": {"kind": "imbalanced", "dominance": 1.0, "segment_len": 64},
        "corruption": {"specs": [{"kind": "additive_noise", "severity": 5}]},
    },
    "methods": [
        {"kind": "no_adapt", "name": "no_adapt", "lr": 1.0},
        {"kind": "tent", "name": "tent", "lr": 0.02},
        {"kind": "entropy_select", "name": "es", "threshold_rho": 0.5, "lr": 0.02},
        {"kind": "seva", "name": "l_ae_only", "threshold_rho": None, "lr": 0.02},
        {"kind": "seva", "name": "seva", "threshold_rho": 1.0, "lr": 0.02},
        {"kind": "explicit_va", "name": "va", "threshold_rho": 1.0, "lr": 0.02, "rounds": 2},
    ],
}

DIGESTS = {
    "trace_no_adapt_seed0.jsonl": "a835fc9bd151f1ca31589c5cb582f6626d9a00dbeb5f23a01d217ef7ed51ec5b",
    "trace_no_adapt_seed1.jsonl": "ba0e57af6042e479b97354d9dbf1b1ba1f6d461f93e5c4cc3688c0af3c3de5b2",
    "trace_tent_seed0.jsonl": "c0e2d8452916ffbfcec1d72aba81be19601c872f787138709774b6d9ea6a1889",
    "trace_tent_seed1.jsonl": "4b57f5ac2c19496dc505d27e2c99188844805a731c98f47d2320ba407ae78469",
    "trace_es_seed0.jsonl": "a1a5e5f1614021a7e33d2b60969123aeba1de27ac16c57948ff695e681032d35",
    "trace_es_seed1.jsonl": "3b9f9b2436f25f44be5d1f1bea6064defd626ee40c4dc8a158a270d367c8dbbf",
    "trace_l_ae_only_seed0.jsonl": "85fee6c477d965e82b23ec34a9f6a0466fa6889e7aa70d5a1049fa04ef7613ed",
    "trace_l_ae_only_seed1.jsonl": "1a4262c47af0358e1056d4780228a6b121e5439005eb2d62093cee6291211a8e",
    "trace_seva_seed0.jsonl": "21ffa77424e908135768edccc5cf45f0e04d6495fd0172f0330cd0888784035c",
    "trace_seva_seed1.jsonl": "9a70878be3b3e502d9a9602f74ff8eaf3134ea3f691f97ea4282af0b710ff43a",
    "trace_va_seed0.jsonl": "d54d783bcf565fc79a9f32b4ab06208f4b176a3ffe957dd49344259e81b6056a",
    "trace_va_seed1.jsonl": "114ce03d6fb8cb9093bacd28e8a803a9c6501801177a0556afa51c030f371e5e",
}

SELECTED = {"no_adapt": 0, "tent": 640, "es": 13, "l_ae_only": 640, "seva": 223, "va": 640}


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    return execute_run(resolve_config(GRID), tmp_path_factory.mktemp("pinned"))


def test_every_trace_matches_its_pinned_digest(grid_run):
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in grid_run["traces"]}
    assert got == DIGESTS


def test_every_training_kind_selects_samples(grid_run):
    selected = {}
    for row in grid_run["rows"]:
        selected[row["method"]] = selected.get(row["method"], 0) + row["n_selected"]
    assert selected == SELECTED
