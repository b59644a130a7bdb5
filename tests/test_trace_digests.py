"""Pinned JSONL trace bytes for a small grid covering every method kind.

Since trace schema 2 the per-sample values are binary columns, so the
digests pin the bytes of every float (NaN payloads and signed zeros
included), not their shortest decimal text. Any change to the arithmetic
of a loss, its gradient, the selection rule or an update rule changes at
least one digest; a deliberate change
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

# Re-recorded once for trace schema 2, which writes each cell's per-sample
# values as base64 binary columns instead of JSON number text. Before the
# re-recording, every value of the schema-1 traces (parsed with json.loads)
# was checked equal, bit for bit, to its decoded schema-2 column on this
# grid and on the committed grid: the content did not change, only its
# encoding.
DIGESTS = {
    "trace_no_adapt_seed0.jsonl": "05b87dc1882c719e35713927c5f8a75210ab7690b738e3d1bd5429dbe89f9c67",
    "trace_no_adapt_seed1.jsonl": "0de8861a1c22dae5904f055a5443d727090ea0e8fe07776dbf479afb5fd6b5f7",
    "trace_tent_seed0.jsonl": "b8071e761fe68c332f355c19159746b897e968f8924a3532cf5a210f54cfce2f",
    "trace_tent_seed1.jsonl": "18debc900a5e4e3b7afe1b8a9f449b9553b3f8fd10a9633bb9ba885229121c5e",
    "trace_es_seed0.jsonl": "eb24b0805652f87766ef2489aef081b0f493dc3896d9689be9782a69193c8a15",
    "trace_es_seed1.jsonl": "a5008f2f95470a1fba4d30aa15be7d99c4b213b6c783e8f1387db267ae9bd08e",
    "trace_l_ae_only_seed0.jsonl": "f13cfe5d9a4a289fac93575d54b42d69e28bcb0dad4f55e5f53d8fb481215efa",
    "trace_l_ae_only_seed1.jsonl": "2b623297bf1541a01f133756396325d0204b96000aa4eef1c37791584dc409e2",
    "trace_seva_seed0.jsonl": "1b430f7a8d099156f4abcfae62f60fb0bba5cb269298b120a9895311b8cc2f09",
    "trace_seva_seed1.jsonl": "375c56ab82e43d09796c57bb8c07fd97aa9f376a45f9255dda2d3bab7cd8c0b0",
    "trace_va_seed0.jsonl": "3e3bdca8ac362759740d869eff56ad50b4f385aa5a17303cc56cae434b743640",
    "trace_va_seed1.jsonl": "34ff9219d6f71d2048679f689d2985f22f91addec0aebcd4ce34d24b65584c55",
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
