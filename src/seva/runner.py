"""Experiment execution and artifacts.

One cell = one (method, seed) pair on the shared world/model/stream derived
from the master seed, so cells are paired comparisons; ``run_cells`` builds
the world, network and head once and runs every cell of a grid on it, seed
by seed: each seed's stream is generated once, serves every cell of that
seed, and is released before the next seed's. Each cell writes a JSONL
trace (deterministic bytes: no wall-clock fields), and every grid writes
one CSV summary, whose rows are put back in cell-major order. The resolved
config is emitted next to the artifacts; re-running it reproduces the
traces byte for byte.

A trace (schema 2) has three lines: a header, one ``steps`` record and the
summary. The steps record holds the cell's per-sample values as columns:
each is the base64 of the little-endian bytes of one array over the whole
stream (dtypes in ``TRACE_COLUMNS``, which the header repeats), so floats
are stored exactly, NaN and infinities included, and none is formatted as
text. Its ``rows`` list gives each step's sample count, and ``n_selected``
and ``updated`` are per-step lists. Every line is strict JSON: the summary
writes a non-finite float as null. ``read_trace`` is the decoder.
"""

from __future__ import annotations

import base64
import csv
import json
import math
import time
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .adapt import AdaptEngine, MethodConfig, RunTrace, run_stream
from .config import RunConfig, config_hash, resolve_config
from .core_math import AugmentedEntropyLoss
from .model import ToyNetwork, build_network
from .oracle import BoundGapReport, bound_sweep
from .rng import derive_seed
from .scenarios import (
    Batch,
    InfeasibleWorldError,
    SelectionScore,
    World,
    fit_head,
    generate_stream,
    make_world,
    selection_f1,
)

__all__ = [
    "CellResult",
    "build_world_and_model",
    "build_stream",
    "run_cell",
    "run_cells",
    "execute_run",
    "execute_verify_bounds",
    "execute_ablate",
    "execute_time",
    "TRACE_COLUMNS",
    "TraceFile",
    "read_trace",
    "TIMING_ROSTER",
    "ablation_cells",
    "SIGMA_SCALE_SWEEP",
    "RHO_SWEEP",
]

TRACE_SCHEMA_VERSION = 2

# The binary columns of a trace's steps record: name -> numpy dtype of its
# little-endian bytes. ``labels`` comes from RunTrace.labels, the rest from
# the StepReport field of the same name.
TRACE_COLUMNS = {
    "losses": "<f8",
    "confidence": "<f8",
    "predicted": "<i8",
    "labels": "<i8",
    "selected": "|b1",
}

# Component-ablation grid and hyperparameter sweep axes.
SIGMA_SCALE_SWEEP = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
RHO_SWEEP = [0.5, 0.75, 1.0, 1.25, 1.5]
# sweep name -> (MethodConfig field it varies on the seva template, values)
_SWEEPS = {"sigma_scale": ("sigma_scale", SIGMA_SCALE_SWEEP), "rho": ("threshold_rho", RHO_SWEEP)}


@dataclass
class CellResult:
    name: str
    method: MethodConfig
    seed: int
    trace: RunTrace
    selection: SelectionScore
    clean_accuracy: float
    counters: dict
    calib_wall_time: float
    config_hash: str

    @property
    def accuracy(self) -> float:
        return self.trace.accuracy

    @property
    def n_selected(self) -> int:
        return int(self.trace.concat("selected").sum())

    @cached_property
    def summary(self) -> dict:
        """The cell's outcome, written both as the JSONL summary record and
        into its summary.csv row."""
        return {
            "accuracy": self.accuracy,
            "mean_loss": float(np.mean(self.trace.concat("losses"))),
            "n_selected": self.n_selected,
            "n_updates": sum(1 for s in self.trace.steps if s.updated),
            "selection_precision": self.selection.precision,
            "selection_recall": self.selection.recall,
            "selection_f1": self.selection.f1,
        }


def build_world_and_model(cfg: RunConfig) -> tuple[World, ToyNetwork, float]:
    """World + network + fitted head, deterministic per master seed.

    Retries with a fresh world substream until the fitted head reaches the
    clean-accuracy floor; raises InfeasibleWorldError when retries run out.
    """
    world_kwargs = dict(cfg.world)
    C = world_kwargs.pop("n_classes")
    nw = cfg.network
    # the network depends only on the master seed, and fit_head only reads it
    net = build_network(
        seed=derive_seed(cfg.master_seed, "network"),
        d_in=world_kwargs["d_in"],
        d=nw["feature_dim"],
        C=C,
        n_layers=nw["n_layers"],
        groups=nw["groups"],
        activation=nw["activation"],
    )
    clean_acc = 0.0
    for attempt in range(cfg.max_world_retries):
        world = make_world(seed=derive_seed(cfg.master_seed, "world", attempt), C=C, **world_kwargs)
        head, clean_acc = fit_head(
            net, world, seed=derive_seed(cfg.master_seed, "head-fit", attempt), **nw["head_fit"]
        )
        if clean_acc >= cfg.min_clean_accuracy:
            net.head = head
            return world, net, clean_acc
    raise InfeasibleWorldError(
        f"could not reach clean accuracy {cfg.min_clean_accuracy} in "
        f"{cfg.max_world_retries} world attempts (best attempt ended at {clean_acc:.3f})"
    )


def build_stream(cfg: RunConfig, world: World, run_seed: int) -> list[Batch]:
    """The (read-only) stream of one run seed."""
    return generate_stream(world, cfg.stream_spec(seed=derive_seed(cfg.master_seed, "stream", run_seed)))


def _leading_rows(stream: list[Batch], n: int) -> np.ndarray:
    """The first ``n`` input rows of ``stream`` (all of them if it is
    shorter), concatenating only the leading batches that hold them."""
    leading, rows = [], 0
    for batch in stream:
        if rows >= n:
            break
        leading.append(batch.inputs)
        rows += len(batch.inputs)
    return np.concatenate(leading)[:n]


def run_cell(
    cfg: RunConfig,
    built: tuple[World, ToyNetwork, float],
    stream: list[Batch],
    name: str,
    method: MethodConfig,
    run_seed: int,
) -> CellResult:
    """Execute one (method, seed) cell on a ``build_world_and_model`` result
    and the seed's ``build_stream``.

    The engine adapts the built network with its own copy of ``theta``, the
    only state adaptation changes; the frozen layers and head are shared,
    not deep-copied. No cell sees another cell's updates.
    """
    _, net, clean_acc = built
    engine = AdaptEngine(
        replace(net, theta=net.theta.copy()),
        method,
        seed=derive_seed(cfg.master_seed, "engine", run_seed, name),
    )
    calib_wall = 0.0
    if method.needs_sigma:
        inputs = _leading_rows(stream, cfg.calibration_samples)
        t0 = time.perf_counter()
        engine.calibrate(inputs)
        calib_wall = time.perf_counter() - t0
    trace = run_stream(engine, stream)
    return CellResult(
        name=name,
        method=method,
        seed=run_seed,
        trace=trace,
        selection=selection_f1(trace),
        clean_accuracy=clean_acc,
        counters=asdict(engine.counters),
        calib_wall_time=calib_wall,
        config_hash=config_hash(cfg),
    )


def run_cells(cfg: RunConfig, cells: Iterable[tuple[str, MethodConfig]], seeds: Iterable[int]) -> Iterator[CellResult]:
    """Yield one CellResult per seed x (name, method) cell, seed-major.

    The world, network and head are built once, before the first cell, so
    an infeasible world raises InfeasibleWorldError before any cell runs.
    Each seed's stream is generated once and shared by its cells.
    """
    built = build_world_and_model(cfg)
    cells = list(cells)
    for seed in seeds:
        stream = build_stream(cfg, built[0], seed)
        for name, method in cells:
            yield run_cell(cfg, built, stream, name, method, seed)


def _cell_major(items: list, n_cells: int) -> list:
    """Seed-major ``run_cells`` output (or values made from it) in cell-major
    order: every seed of the first cell, then of the next."""
    return [item for c in range(n_cells) for item in items[c::n_cells]]


def _json_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _encode_column(column: np.ndarray, dtype: str) -> str:
    """Base64 of the bytes of ``column`` as ``dtype``; only a cast that keeps
    every value is allowed."""
    return base64.b64encode(column.astype(dtype, casting="safe", copy=False)).decode("ascii")


def trace_lines(result: CellResult, cfg: RunConfig) -> list[str]:
    """Strict-JSON records for one cell, deterministic (no wall-clock fields):
    header, steps and summary, whose non-finite floats are written as null."""
    header = {
        "record": "header",
        "schema": TRACE_SCHEMA_VERSION,
        "config_hash": result.config_hash,
        "method": result.name,
        "kind": result.method.kind,
        "seed": result.seed,
        "batch_size": cfg.tree["stream"]["batch_size"],
        "n_batches": cfg.tree["stream"]["n_batches"],
        "clean_accuracy": result.clean_accuracy,
        "columns": TRACE_COLUMNS,
    }
    trace = result.trace
    steps = {
        "record": "steps",
        "rows": [len(s.predicted) for s in trace.steps],
        "n_selected": [s.n_selected for s in trace.steps],
        "updated": [s.updated for s in trace.steps],
    }
    for name, dtype in TRACE_COLUMNS.items():
        column = np.concatenate(trace.labels) if name == "labels" else trace.concat(name)
        steps[name] = _encode_column(column, dtype)
    summary = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in result.summary.items()}
    return [_json_line(header), _json_line(steps), _json_line({"record": "summary", **summary})]


def write_trace(result: CellResult, cfg: RunConfig, path: Path) -> None:
    path.write_text("\n".join(trace_lines(result, cfg)) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class TraceFile:
    """A decoded trace: its header, each binary column over the whole
    stream, the per-step lists (``rows``, ``n_selected``, ``updated``) and
    the summary record."""

    header: dict
    columns: dict[str, np.ndarray]
    steps: dict[str, list]
    summary: dict

    def per_step(self, name: str) -> list[np.ndarray]:
        """Column ``name`` split into one array per step."""
        return np.split(self.columns[name], np.cumsum(self.steps["rows"])[:-1])


def read_trace(path: str | Path) -> TraceFile:
    """Decode one trace written by ``write_trace``; a file of another schema,
    with a steps record that lacks ``rows`` or a column the header names, or
    with a column whose length is not the sum of ``rows`` raises ValueError."""
    records = [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]
    schema = records[0].get("schema") if records else None
    if schema != TRACE_SCHEMA_VERSION:
        raise ValueError(f"{path}: trace schema {schema}, this reader reads schema {TRACE_SCHEMA_VERSION}")
    if [r.get("record") for r in records] != ["header", "steps", "summary"]:
        raise ValueError(f"{path}: expected a header, a steps and a summary record")
    header, steps, summary = records
    for field in ["rows", *header["columns"]]:
        if field not in steps:
            raise ValueError(f"{path}: the steps record has no '{field}'")
    n_rows = sum(steps["rows"])
    columns = {}
    for name, dtype in header["columns"].items():
        columns[name] = np.frombuffer(base64.b64decode(steps.pop(name), validate=True), dtype=dtype)
        if len(columns[name]) != n_rows:
            raise ValueError(f"{path}: column '{name}' has {len(columns[name])} values for {n_rows} rows")
    del steps["record"]
    return TraceFile(header=header, columns=columns, steps=steps, summary=summary)


def summary_row(result: CellResult, cfg: RunConfig) -> dict:
    spec_tree = cfg.tree["stream"]
    return {
        "method": result.name,
        "kind": result.method.kind,
        "seed": result.seed,
        "n_samples": spec_tree["batch_size"] * spec_tree["n_batches"],
        "batch_size": spec_tree["batch_size"],
        "accuracy": result.accuracy,  # placed before clean_accuracy; the summary repeats it
        "clean_accuracy": result.clean_accuracy,
        **result.summary,
        **result.counters,
        "config_hash": result.config_hash,
        "calib_wall_time": result.calib_wall_time,
        "stream_wall_time": result.trace.wall_time,
    }


def write_csv(rows: list[dict], path: Path) -> None:
    """One CSV of non-empty ``rows``; the header is the first row's keys."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_resolved_config(cfg: RunConfig, out: Path) -> Path:
    path = out / "resolved_config.json"
    path.write_text(json.dumps(cfg.tree, sort_keys=True, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    return path


def execute_run(cfg: RunConfig, out_dir: str | Path) -> dict:
    """All (method x seed) cells; one JSONL trace per cell plus one summary CSV."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(cfg, out)
    methods = cfg.methods()
    rows = []
    trace_paths = []
    for result in run_cells(cfg, methods, cfg.seeds):
        path = out / f"trace_{result.name}_seed{result.seed}.jsonl"
        write_trace(result, cfg, path)
        trace_paths.append(path)
        rows.append(summary_row(result, cfg))
    rows, trace_paths = _cell_major(rows, len(methods)), _cell_major(trace_paths, len(methods))
    summary_path = out / "summary.csv"
    write_csv(rows, summary_path)
    return {"summary": summary_path, "traces": trace_paths, "rows": rows}


def format_bound_report(i: int, report: BoundGapReport) -> str:
    status = "ok" if report.satisfied else "VIOLATED"
    return (
        f"instance {i:02d}: l_ae={report.l_ae:.6f} "
        f"mc={report.mc.mean:.6f}+-{report.mc.stderr:.6f} "
        f"(n={report.mc.n_samples}) gap={report.gap:+.6f} {status}"
    )


def execute_verify_bounds(cfg: RunConfig, fast: bool = False) -> tuple[list[BoundGapReport], bool]:
    mc = cfg.mc
    n_samples = mc["fast_n_samples"] if fast else mc["n_samples"]
    reports = bound_sweep(
        mc["seed"],
        n_instances=mc["n_instances"],
        n_samples=n_samples,
        c_max=mc["c_max"],
        d_max=mc["d_max"],
        sigma_scale=mc["sigma_scale"],
    )
    return reports, all(r.satisfied for r in reports)


def _seva_template(cfg: RunConfig) -> MethodConfig:
    """The first configured method that trains on the augmented loss, else
    the default method block."""
    for _, method in cfg.methods():
        if method.recipe.loss is AugmentedEntropyLoss:
            return method
    return resolve_config({}).methods()[0][1]


def ablation_cells(cfg: RunConfig) -> list[tuple[str, MethodConfig]]:
    """The 4-cell component grid: entropy, +selection, +augmented loss, +both."""
    t = _seva_template(cfg)
    common = dict(lr=t.lr, momentum=t.momentum, sigma_scale=t.sigma_scale)
    return [
        ("entropy", MethodConfig(kind="tent", **common)),
        ("selection", MethodConfig(kind="entropy_select", threshold_rho=t.threshold_rho, **common)),
        ("l_ae", MethodConfig(kind="seva", threshold_rho=float("inf"), **common)),
        ("selection_l_ae", MethodConfig(kind="seva", threshold_rho=t.threshold_rho, **common)),
    ]


def execute_ablate(cfg: RunConfig, out_dir: str | Path, sweep: str = "components") -> list[dict]:
    """Component grid or hyperparameter sweep, every cell on paired streams."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(cfg, out)
    t = _seva_template(cfg)
    if sweep == "components":
        cells = ablation_cells(cfg)
        param, values, csv_name = "cell", [name for name, _ in cells], "ablation.csv"
    elif sweep in _SWEEPS:
        field, values = _SWEEPS[sweep]
        cells = [(f"{sweep}_{v:g}", replace(t, **{field: v})) for v in values]
        param, csv_name = sweep, f"sweep_{sweep}.csv"
    else:
        raise ValueError(f"unknown sweep '{sweep}'")
    value_of = {name: v for (name, _), v in zip(cells, values)}
    seed_major = [
        {
            "cell": result.name,
            "param": param,
            "value": value_of[result.name],
            "seed": result.seed,
            "accuracy": result.accuracy,
            "selection_f1": result.selection.f1,
            "n_selected": result.n_selected,
        }
        for result in run_cells(cfg, cells, cfg.seeds)
    ]
    rows = _cell_major(seed_major, len(cells))
    write_csv(rows, out / csv_name)
    return rows


# (name, kind, rounds)
TIMING_ROSTER = [
    ("no_adapt", "no_adapt", 1),
    ("tent", "tent", 1),
    ("entropy_select", "entropy_select", 1),
    ("seva", "seva", 1),
    ("explicit_va_5", "explicit_va", 5),
    ("explicit_va_7", "explicit_va", 7),
]


def execute_time(cfg: RunConfig, out_dir: str | Path) -> list[dict]:
    """Wall time and work counters for the fixed method roster on one stream."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(cfg, out)
    t = _seva_template(cfg)
    cells = [(name, replace(t, kind=kind, rounds=rounds)) for name, kind, rounds in TIMING_ROSTER]
    rows = []
    for result in run_cells(cfg, cells, cfg.seeds[:1]):
        steps = result.trace.steps
        rows.append(
            {
                "method": result.name,
                "rounds": result.method.rounds if result.method.recipe.has_rounds else 0,
                "accuracy": result.accuracy,
                "n_forward": result.counters["n_forward"],
                "n_backward": result.counters["n_backward"],
                "n_optimizer_steps": result.counters["n_optimizer_steps"],
                "total_wall_time": sum(s.step_wall_time for s in steps),
                "mean_step_ms": 1000.0 * float(np.mean([s.step_wall_time for s in steps])),
            }
        )
    write_csv(rows, out / "timing.csv")
    return rows
