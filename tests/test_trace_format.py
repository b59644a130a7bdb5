"""Trace schema 2: ``read_trace`` gives back exactly what the run held.

Every binary column must decode to the bytes of the in-memory ``RunTrace``
(``tobytes()`` equality, so NaN, infinities and signed zeros count), and
the per-step lists, header and summary must match the cell they came from.
"""

import copy
import json
import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest

from seva.adapt import AdaptEngine, run_stream
from seva.config import config_hash, resolve_config
from seva.runner import (
    TRACE_COLUMNS,
    TRACE_SCHEMA_VERSION,
    CellResult,
    build_stream,
    build_world_and_model,
    read_trace,
    run_cell,
    run_cells,
    write_trace,
)
from seva.scenarios import Batch, selection_f1

GRID = {
    "master_seed": 107,
    "seeds": [0],
    "world": {"n_classes": 10, "d_in": 16},
    "network": {"feature_dim": 16, "n_layers": 2, "groups": 4},
    "stream": {
        "batch_size": 32,
        "n_batches": 6,
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


@pytest.fixture(scope="module")
def cfg():
    return resolve_config(GRID)


@pytest.fixture(scope="module")
def built(cfg):
    return build_world_and_model(cfg)


def in_memory_columns(result: CellResult) -> dict[str, np.ndarray]:
    """The run's columns in their trace dtypes (a no-op cast for the
    program's own streams; narrower integer labels widen)."""
    trace = result.trace
    return {
        name: (np.concatenate(trace.labels) if name == "labels" else trace.concat(name)).astype(dtype, casting="safe")
        for name, dtype in TRACE_COLUMNS.items()
    }


def assert_round_trip(result: CellResult, cfg, path):
    write_trace(result, cfg, path)
    decoded = read_trace(path)
    for name, column in in_memory_columns(result).items():
        got = decoded.columns[name]
        assert got.dtype == np.dtype(TRACE_COLUMNS[name]), name
        assert got.tobytes() == column.tobytes(), name
    steps = result.trace.steps
    assert decoded.steps == {
        "rows": [len(s.predicted) for s in steps],
        "n_selected": [s.n_selected for s in steps],
        "updated": [s.updated for s in steps],
    }
    for name in TRACE_COLUMNS:
        if name != "labels":
            for got, step in zip(decoded.per_step(name), steps):
                assert got.tobytes() == getattr(step, name).tobytes()
    assert decoded.header["schema"] == TRACE_SCHEMA_VERSION
    assert (decoded.header["method"], decoded.header["seed"]) == (result.name, result.seed)
    # the summary in its strict form: a non-finite float reads back as None
    strict = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in result.summary.items()}
    assert decoded.summary == {"record": "summary", **strict}
    for line in path.read_text().splitlines():
        strict_json(line)
    return decoded


def strict_json(line: str):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(line, parse_constant=reject)


def test_every_recipe_kind_round_trips(cfg, tmp_path):
    results = list(run_cells(cfg, cfg.methods(), cfg.seeds))
    assert {r.method.kind for r in results} == {"no_adapt", "tent", "entropy_select", "seva", "explicit_va"}
    for result in results:
        assert_round_trip(result, cfg, tmp_path / f"{result.name}.jsonl")
        assert len((tmp_path / f"{result.name}.jsonl").read_text().splitlines()) == 3


def test_nan_input_round_trips_and_the_steps_line_is_strict_json(cfg, built, tmp_path):
    stream = build_stream(cfg, built[0], 0)
    inputs = stream[3].inputs.copy()
    inputs[5, 2] = np.nan
    stream[3] = Batch(inputs=inputs, labels=stream[3].labels)
    name, method = next((n, m) for n, m in cfg.methods() if n == "tent")
    result = run_cell(cfg, built, stream, name, method, 0)
    losses = result.trace.concat("losses")
    assert np.isnan(losses).any()
    path = tmp_path / "nan.jsonl"
    assert_round_trip(result, cfg, path)
    assert strict_json(path.read_text().splitlines()[2])["mean_loss"] is None
    assert np.isnan(result.summary["mean_loss"])  # the CSV row keeps the float


def test_a_non_finite_header_value_fails_loudly(cfg, built, tmp_path):
    # only the summary maps non-finite floats to null; anywhere else one raises
    stream = build_stream(cfg, built[0], 0)
    name, method = next((n, m) for n, m in cfg.methods() if n == "no_adapt")
    result = run_cell(cfg, built, stream, name, method, 0)
    with pytest.raises(ValueError, match="JSON compliant"):
        write_trace(replace(result, clean_accuracy=math.nan), cfg, tmp_path / "nan_header.jsonl")


def test_special_floats_keep_their_bits(cfg, built, tmp_path):
    stream = build_stream(cfg, built[0], 0)
    name, method = next((n, m) for n, m in cfg.methods() if n == "es")
    result = run_cell(cfg, built, stream, name, method, 0)
    first = result.trace.steps[0]
    payload_nan = np.frombuffer(np.uint64(0xFFF8_0000_0000_1234).tobytes(), dtype="<f8")[0]
    losses, confidence = first.losses.copy(), first.confidence.copy()
    losses[:4] = [np.inf, -0.0, payload_nan, np.finfo(float).tiny / 4]
    confidence[:2] = [-np.inf, -0.0]  # -inf apart from +inf: the summary's mean loss stays quiet
    trace = copy.copy(result.trace)
    trace.steps = [replace(first, losses=losses, confidence=confidence), *result.trace.steps[1:]]
    decoded = assert_round_trip(replace(result, trace=trace), cfg, tmp_path / "special.jsonl")
    assert decoded.columns["losses"][:4].tobytes() == losses[:4].tobytes()
    assert decoded.columns["confidence"][:2].tobytes() == confidence[:2].tobytes()


def test_ragged_iterable_stream_round_trips(cfg, built, tmp_path):
    world, net, clean_acc = built
    stream = build_stream(cfg, world, 1)
    X = np.concatenate([b.inputs for b in stream])
    y = np.concatenate([b.labels for b in stream])
    edges = np.cumsum([0, 5, 32, 1, 17, 40, 9])
    batches = [Batch(inputs=X[a:b], labels=y[a:b].astype(np.int32)) for a, b in zip(edges[:-1], edges[1:])]
    name, method = next((n, m) for n, m in cfg.methods() if n == "seva")
    engine = AdaptEngine(copy.deepcopy(net), method, seed=3)
    engine.calibrate(X[:64])
    trace = run_stream(engine, iter(batches))
    result = CellResult(
        name=name,
        method=method,
        seed=1,
        trace=trace,
        selection=selection_f1(trace),
        clean_accuracy=clean_acc,
        counters=asdict(engine.counters),
        calib_wall_time=0.0,
        config_hash=config_hash(cfg),
    )
    decoded = assert_round_trip(result, cfg, tmp_path / "ragged.jsonl")
    assert decoded.steps["rows"] == [5, 32, 1, 17, 40, 9]
    assert [len(labels) for labels in decoded.per_step("labels")] == [5, 32, 1, 17, 40, 9]
    assert decoded.columns["labels"].dtype == np.dtype("<i8")  # int32 labels widen exactly


def test_a_lossy_cast_fails_loudly(cfg, built, tmp_path):
    stream = build_stream(cfg, built[0], 0)
    name, method = next((n, m) for n, m in cfg.methods() if n == "no_adapt")
    result = run_cell(cfg, built, stream, name, method, 0)
    labels = [lab.astype(np.float64) for lab in result.trace.labels]
    trace = copy.copy(result.trace)
    trace.labels = labels
    with pytest.raises(TypeError):
        write_trace(replace(result, trace=trace), cfg, tmp_path / "lossy.jsonl")


def test_read_trace_rejects_other_layouts(cfg, built, tmp_path):
    stream = build_stream(cfg, built[0], 0)
    name, method = next((n, m) for n, m in cfg.methods() if n == "no_adapt")
    path = tmp_path / "t.jsonl"
    write_trace(run_cell(cfg, built, stream, name, method, 0), cfg, path)
    header, steps, summary = path.read_text().splitlines()

    old = tmp_path / "schema1.jsonl"
    old.write_text("\n".join([header.replace('"schema":2', '"schema":1'), summary]) + "\n")
    with pytest.raises(ValueError, match="trace schema 1"):
        read_trace(old)

    short = json.loads(steps)
    short["rows"][-1] -= 1
    bad = tmp_path / "short.jsonl"
    bad.write_text("\n".join([header, json.dumps(short), summary]) + "\n")
    with pytest.raises(ValueError, match="values for"):
        read_trace(bad)

    for field in ["losses", "rows"]:
        lacking = json.loads(steps)
        del lacking[field]
        bad = tmp_path / f"no_{field}.jsonl"
        bad.write_text("\n".join([header, json.dumps(lacking), summary]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{bad}: the steps record has no '{field}'")):
            read_trace(bad)

    missing = tmp_path / "missing.jsonl"
    missing.write_text("\n".join([header, summary]) + "\n")
    with pytest.raises(ValueError, match="steps"):
        read_trace(missing)
