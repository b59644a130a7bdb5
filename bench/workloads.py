"""The benchmark's three workloads.

Each workload is driven from one process in a closed loop: one caller,
each cell, batch or instance sent only after the previous one returned.
A workload is split into ``setup`` (timed as set-up), ``run`` (timed as
the run; per-operation latencies are timed inside it from the outside)
and ``check`` (untimed: output checks, accuracy and work counts).

* ``committed_grid`` -- the 5-method x 10-seed committed roster through
  ``execute_run``, as ``seva run`` does it. Chosen because it is the
  headline run and most of its time is world/network/head building, trace
  writing and per-step dispatch, not core math.
* ``wide_stream`` -- one seva engine at C=100, d=64, B=64. Chosen because
  the (n, C, C) augmented-entropy loss and its feature gradient dominate
  each step; set-up and runner work barely appear.
* ``certify`` -- the committed Monte-Carlo certification sweep (50
  instances x 100 000 draws), as ``seva verify-bounds`` runs it. Chosen
  because only the oracle works here; engine and runner do nothing.
"""

from __future__ import annotations

import copy
import hashlib
import math
import shutil
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from seva import committed, config, oracle, runner, scenarios
from seva.adapt import AdaptEngine
from seva.core_math import augmented_entropy_decomposed
from seva.model import adaptable_params, forward_features_batch, set_adaptable_params
from seva.rng import derive_seed

# Relative agreement required between a computed loss and the independent
# decomposed form of the augmented entropy.
LOSS_RTOL = 1e-9


@dataclass
class Outcome:
    """What the untimed check of one repetition found."""

    attempted: int
    failed: int
    accuracy: float
    # operation latencies, grouped by the kind of operation (the method, on
    # the grid, whose steps differ in cost by up to four times)
    latencies_s: dict[object, list[float]]
    counts: dict[str, float] = field(default_factory=dict)
    # operation key -> digest, compared between repetitions on equal inputs
    fingerprint: dict[str, str] = field(default_factory=dict)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _agrees(value: float, reference: float) -> bool:
    return abs(value - reference) <= LOSS_RTOL * max(1.0, abs(reference))


@contextmanager
def passthrough(owner, name: str, observe):
    """Replace ``owner.name`` for the block by a pass-through that calls the
    original, hands ``observe`` the result and the call's arguments, and
    returns the result unchanged. The original is put back on exit.

    The workloads read what the program's own entry points keep to
    themselves this way (``execute_run`` its step reports, ``bound_sweep``
    its instances) while the program runs its own code path.
    """
    original = vars(owner)[name]

    def observed(*args, **kwargs):
        result = original(*args, **kwargs)
        observe(result, *args, **kwargs)
        return result

    setattr(owner, name, observed)
    try:
        yield
    finally:
        setattr(owner, name, original)


class CommittedGrid:
    """The committed roster (``committed_methods()``) through ``execute_run``.

    The world, network and head are the committed ones (master seed 107);
    the benchmark seed picks the ten stream seeds ``10*seed .. 10*seed+9``,
    so ``--seed 0`` is exactly the committed grid and is checked against
    ``reference.json``.
    """

    name = "committed_grid"
    min_reps = 2
    ops_per_rep = 50  # cells

    def __init__(self, seed: int, scratch: Path, reference: dict | None):
        self.seed = seed
        self.scratch = scratch
        self.reference = reference if reference and reference["seed"] == seed else None

    def inputs_key(self, k: int) -> int:
        return 0

    def setup(self, k: int):
        tree = copy.deepcopy(committed.committed_config().tree)
        tree["seeds"] = [10 * self.seed + i for i in range(10)]
        methods = tree["methods"]
        seva_at = next(i for i, m in enumerate(methods) if m["kind"] == "seva")
        l_ae_only = dict(methods[seva_at], name="l_ae_only", threshold_rho=None)
        methods.insert(seva_at, l_ae_only)
        out = Path(tempfile.mkdtemp(prefix="grid-", dir=self.scratch))
        tree["out_dir"] = str(out)
        return config.resolve_config(tree), out

    def run(self, state):
        cfg, out = state
        # StepReport.step_wall_time of every adapt_step, by the engine's method
        step_times: dict[object, list[float]] = {}

        def record(report, engine, inputs):
            step_times.setdefault(engine.method, []).append(report.step_wall_time)

        with passthrough(AdaptEngine, "adapt_step", record):
            result = runner.execute_run(cfg, out)
        return result, step_times

    def check(self, state, produced) -> Outcome:
        cfg, out = state
        result, step_times = produced
        try:
            rows = result["rows"]
            failed = set()
            fingerprint = {}
            trace_bytes = 0
            for row, path in zip(rows, result["traces"]):
                key = f"{row['method']}/{row['seed']}"
                data = Path(path).read_bytes()
                trace_bytes += len(data)
                fingerprint[key] = hashlib.sha256(data).hexdigest()
                if not (math.isfinite(row["accuracy"]) and math.isfinite(row["mean_loss"])):
                    failed.add(key)
                if self.reference is not None:
                    ref = self.reference["cells"].get(key)
                    if (
                        ref is None
                        or abs(row["accuracy"] - ref["accuracy"]) > 1e-12
                        or row["n_selected"] != ref["n_selected"]
                    ):
                        failed.add(key)
            missing = self.ops_per_rep - len(rows)
            n_samples = sum(r["n_samples"] for r in rows)
            return Outcome(
                attempted=self.ops_per_rep,
                failed=len(failed) + max(0, missing),
                accuracy=float(np.mean([r["accuracy"] for r in rows])),
                latencies_s=step_times,
                counts={
                    "adapt.n_forward": sum(r["n_forward"] for r in rows),
                    "adapt.n_backward": sum(r["n_backward"] for r in rows),
                    "adapt.n_optimizer_steps": sum(r["n_optimizer_steps"] for r in rows),
                    "adapt.selected": sum(r["n_selected"] for r in rows),
                    "adapt.scored": n_samples,
                    "runner.trace_bytes": trace_bytes,
                },
                fingerprint=fingerprint,
            )
        finally:
            shutil.rmtree(out, ignore_errors=True)


# C=100 keeps the (n, C, C) loss tensor dominant while a default-fit world
# stays buildable in about a second; the head fit is reduced from the
# defaults (100 per class, 300 steps), which reach the same clean accuracy
# in eight times the set-up.
WIDE_STREAM_CONFIG = {
    "seeds": [0],
    "world": {"n_classes": 100, "d_in": 64},
    "network": {
        "feature_dim": 64,
        "n_layers": 2,
        "groups": 8,
        "head_fit": {"n_train_per_class": 30, "refine_steps": 150},
    },
    "stream": {
        "batch_size": 64,
        "n_batches": 300,
        "label_schedule": {"kind": "online_shifting"},
        "corruption": {"specs": [{"kind": "additive_noise", "severity": 5}]},
    },
    "methods": [{"kind": "seva", "name": "seva", "threshold_rho": 1.0}],
}


class WideStream:
    """One seva engine streaming 300 batches; the seed is the master seed.

    Every ``CHECK_EVERY``-th step keeps a copy of the adaptable parameters
    it started from, so ``check`` can recompute the pre-update features and
    compare ``CHECK_ROWS`` of the step's losses with the decomposed form.
    """

    name = "wide_stream"
    min_reps = 2
    ops_per_rep = WIDE_STREAM_CONFIG["stream"]["n_batches"]  # steps
    CHECK_EVERY = 10
    CHECK_ROWS = 4

    def __init__(self, seed: int, scratch: Path, reference: dict | None):
        self.seed = seed

    def inputs_key(self, k: int) -> int:
        return 0

    def setup(self, k: int):
        cfg = config.resolve_config(dict(WIDE_STREAM_CONFIG, master_seed=self.seed))
        run_seed = cfg.seeds[0]
        world, net, _ = runner.build_world_and_model(cfg)
        name, method = cfg.methods()[0]
        spec = cfg.stream_spec(seed=derive_seed(cfg.master_seed, "stream", run_seed))
        stream = scenarios.generate_stream(world, spec)
        engine = AdaptEngine(net, method, seed=derive_seed(cfg.master_seed, "engine", run_seed, name))
        inputs = np.concatenate([b.inputs for b in stream])
        engine.calibrate(inputs[: min(cfg.calibration_samples, inputs.shape[0])])
        return engine, stream

    def run(self, state):
        engine, stream = state
        clock = time.perf_counter
        reports, latencies, snapshots = [], [], {}
        for i, batch in enumerate(stream):
            if i % self.CHECK_EVERY == 0:
                snapshots[i] = adaptable_params(engine.net)
            t0 = clock()
            try:
                report = engine.adapt_step(batch.inputs)
            except Exception:  # a raising step is a failed operation, not a crash
                traceback.print_exc(file=sys.stderr)
                report = None
            latencies.append(clock() - t0)
            reports.append(report)
        return reports, latencies, snapshots

    def check(self, state, produced) -> Outcome:
        engine, stream = state
        reports, latencies, snapshots = produced
        net = copy.deepcopy(engine.net)
        failed = correct = selected = scored = 0
        fingerprint = {}
        for i, (batch, report) in enumerate(zip(stream, reports)):
            if report is None or not np.isfinite(report.losses).all():
                failed += 1
                continue
            correct += int((report.predicted == batch.labels).sum())
            selected += report.n_selected
            scored += report.losses.shape[0]
            fingerprint[str(i)] = _digest(report.losses, report.predicted, report.selected)
            if i in snapshots:
                set_adaptable_params(net, snapshots[i])
                feats = forward_features_batch(net, batch.inputs[: self.CHECK_ROWS])
                if not all(
                    _agrees(report.losses[r], augmented_entropy_decomposed(net.head, f, engine.sigma))
                    for r, f in enumerate(feats)
                ):
                    failed += 1
        n_samples = sum(b.labels.shape[0] for b in stream)
        c = engine.counters
        return Outcome(
            attempted=len(stream),
            failed=failed,
            accuracy=correct / n_samples,
            latencies_s={"step": latencies},
            counts={
                "adapt.n_forward": c.n_forward,
                "adapt.n_backward": c.n_backward,
                "adapt.n_optimizer_steps": c.n_optimizer_steps,
                "adapt.selected": selected,
                "adapt.scored": scored,
            },
            fingerprint=fingerprint,
        )


class Certify:
    """The committed certification sweep through ``execute_verify_bounds``.

    Sweep ``k`` of a run certifies the instance set of mc seed
    ``seed + 1000*k``; accuracy is the share of satisfied bounds over the
    first ``min_reps`` sweeps (400 instances, so that one violation more or
    less moves it by a quarter of a percent). A pass-through on
    ``seva.oracle.bound_gap_report``, the name ``bound_sweep`` calls, keeps
    each instance and the time since the previous one completed, so an
    instance's latency covers its whole turn of the sweep.
    """

    name = "certify"
    min_reps = 8
    SEED_STRIDE = 1000

    def __init__(self, seed: int, scratch: Path, reference: dict | None):
        self.seed = seed
        self.ops_per_rep = committed.committed_config().mc["n_instances"]

    def inputs_key(self, k: int) -> int:
        return k

    def setup(self, k: int):
        mc = dict(committed.committed_config().mc, seed=self.seed + self.SEED_STRIDE * k)
        return config.resolve_config({"mc": mc}), k

    def run(self, state):
        cfg, _ = state
        clock = time.perf_counter
        instances, latencies = [], []
        last = [clock()]

        def record(report, head, z, sigma, *args, **kwargs):
            now = clock()
            latencies.append(now - last[0])
            last[0] = now
            instances.append((head, z, sigma, report))

        with passthrough(oracle, "bound_gap_report", record):
            reports, _ = runner.execute_verify_bounds(cfg)
        return reports, instances, latencies

    def check(self, state, produced) -> Outcome:
        cfg, _ = state
        reports, instances, latencies = produced
        n_samples = cfg.mc["n_samples"]
        failed = set()
        fingerprint = {}
        for i, r in enumerate(reports):
            # the instance the pass-through saw must be the one reported
            seen = instances[i] if i < len(instances) else None
            ok = (
                seen is not None
                and seen[3] is r
                and math.isfinite(r.l_ae)
                and math.isfinite(r.gap)
                and r.mc.n_samples == n_samples
                and _agrees(r.l_ae, augmented_entropy_decomposed(*seen[:3]))
                and r.gap == r.l_ae - r.mc.mean
                and r.satisfied == (r.gap >= -(3.0 * r.mc.stderr + oracle.BOUND_ATOL))
            )
            if not ok:
                failed.add(i)
            fingerprint[str(i)] = _digest([r.l_ae, r.mc.mean, r.mc.stderr])
        failed.update(range(len(reports), self.ops_per_rep))
        return Outcome(
            attempted=max(len(reports), self.ops_per_rep),
            failed=len(failed),
            accuracy=sum(r.satisfied for r in reports) / max(1, len(reports)),
            latencies_s={"instance": latencies},
            counts={
                "oracle.draws": sum(r.mc.n_samples for r in reports),
                "oracle.bound_violations": sum(not r.satisfied for r in reports),
            },
            fingerprint=fingerprint,
        )


WORKLOADS = {w.name: w for w in (CommittedGrid, WideStream, Certify)}
