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

# The l_ae_only and seva digests were re-recorded when the augmented entropy
# moved to its two-product form: their losses moved by at most 1.3e-15 and
# the confidences of later steps by 3.3e-16; selections, predictions and
# updates stayed identical, and the other eight traces kept their bytes.
DIGESTS = {
    "trace_no_adapt_seed0.jsonl": "a835fc9bd151f1ca31589c5cb582f6626d9a00dbeb5f23a01d217ef7ed51ec5b",
    "trace_no_adapt_seed1.jsonl": "ba0e57af6042e479b97354d9dbf1b1ba1f6d461f93e5c4cc3688c0af3c3de5b2",
    "trace_tent_seed0.jsonl": "c0e2d8452916ffbfcec1d72aba81be19601c872f787138709774b6d9ea6a1889",
    "trace_tent_seed1.jsonl": "4b57f5ac2c19496dc505d27e2c99188844805a731c98f47d2320ba407ae78469",
    "trace_es_seed0.jsonl": "a1a5e5f1614021a7e33d2b60969123aeba1de27ac16c57948ff695e681032d35",
    "trace_es_seed1.jsonl": "3b9f9b2436f25f44be5d1f1bea6064defd626ee40c4dc8a158a270d367c8dbbf",
    "trace_l_ae_only_seed0.jsonl": "2932a82dde2705039a6cb60a36b66ba5f4b6caaa66abc8b0791e313c3a7c85b7",
    "trace_l_ae_only_seed1.jsonl": "1bd84ac473277440d354e5856142a81380dbc5cdf882d6f91836322b781c0f00",
    "trace_seva_seed0.jsonl": "e6de183d2bc0f63436ac9c566249e21a8f54fe78994a3166e5805381aba49743",
    "trace_seva_seed1.jsonl": "669a815b4bc1c897d5ee1deafbf9e1815754e16e99c2e2106c10ddbed6046a18",
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
