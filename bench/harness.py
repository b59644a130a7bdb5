"""Measurement loop, statistics and result records for the benchmark."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import layer_trace
from workloads import Outcome

# A tail percentile is reported only when at least this many samples lie
# beyond it; fewer make it a reading of a handful of outliers.
MIN_TAIL = 10
TAIL_PERCENTILE = 95
# Set-up is repeated within an untraced repetition until this many samples
# or this much time is spent, so a set-up of a millisecond still yields a
# steady median.
SETUP_SAMPLES = 25
SETUP_BUDGET_S = 0.25

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "run_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "accuracy": "ratio",
    "peak_rss_mb": "MB",
}

# (span name, field, unit) read from the traced repetitions' spans.
SPAN_METRICS = (
    ("config.resolve_config", "busy_s", "s"),
    ("runner.build_world_and_model", "calls", "count"),
    ("runner.build_world_and_model", "busy_s", "s"),
    ("runner.run_cell", "self_s", "s"),
    ("runner.write_trace", "busy_s", "s"),
    ("scenarios.make_world", "busy_s", "s"),
    ("scenarios.fit_head", "busy_s", "s"),
    ("scenarios.generate_stream", "busy_s", "s"),
    ("scenarios.selection_f1", "busy_s", "s"),
    ("adapt.adapt_step", "calls", "count"),
    ("adapt.adapt_step", "busy_s", "s"),
    ("adapt.adapt_step", "self_s", "s"),
    ("adapt.sgd_momentum_step", "busy_s", "s"),
    ("model.forward_with_caches", "busy_s", "s"),
    ("model.backward_adaptable", "busy_s", "s"),
    ("model.per_sample_loss", "self_s", "s"),
    ("model.calibrate_covariance", "busy_s", "s"),
    ("core_math.augmented_entropy_batch", "busy_s", "s"),
    ("core_math.grad_augmented_entropy_wrt_feature_batch", "busy_s", "s"),
    ("core_math.entropy_from_logits", "busy_s", "s"),
    ("core_math.grad_entropy_wrt_feature_batch", "busy_s", "s"),
    ("core_math.softmax_rows", "busy_s", "s"),
    ("core_math.augmented_entropy", "busy_s", "s"),
    ("oracle.mc_entropy", "busy_s", "s"),
    ("oracle.random_instance", "busy_s", "s"),
)
PEAK_METRICS = (
    "core_math.augmented_entropy_batch",
    "core_math.grad_augmented_entropy_wrt_feature_batch",
    "oracle.mc_entropy",
)
COUNT_METRICS = {  # Outcome.counts key -> unit
    "adapt.n_forward": "count",
    "adapt.n_backward": "count",
    "adapt.n_optimizer_steps": "count",
    "runner.trace_bytes": "bytes",
    "oracle.draws": "count",
    "oracle.bound_violations": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{span}.{fld}": unit for span, fld, unit in SPAN_METRICS}
    units.update({f"{span}.peak_mb": "MB" for span in PEAK_METRICS})
    units.update(COUNT_METRICS)
    units["adapt.selected_ratio"] = "ratio"
    units["trace.run_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the p-th percentile."""
    return math.floor(n * (100.0 - p) / 100.0 + 1e-9)


def percentile(values, p: float) -> float:
    """The p-th percentile; refused unless MIN_TAIL samples lie beyond it."""
    if samples_beyond(len(values), p) < MIN_TAIL:
        raise ValueError(
            f"p{p:g} of {len(values)} samples has {samples_beyond(len(values), p)} "
            f"beyond it, fewer than {MIN_TAIL}"
        )
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def median_percentile(per_rep: list[dict[object, list[float]]], p: float) -> float:
    """The p-th percentile, robust to when in a run each kind of operation ran.

    Each repetition maps an operation kind to its latencies. For each kind,
    consecutive repetitions form a block once they hold enough samples for
    the percentile (a trailing partial block joins the last full one); the
    kind's value is the median over its blocks. The result is the mean of
    the kinds' values weighted by their sample counts, so a slowdown of one
    kind moves it in proportion to that kind's share. The grid runs its five
    methods one after another and their steps differ in cost by up to four
    times, so a pooled tail would be the slowest method's typical step
    during one second of each repetition.
    """
    need = math.ceil(MIN_TAIL * 100 / (100 - p))
    values, weights = [], []
    for kind in dict.fromkeys(k for rep in per_rep for k in rep):
        blocks: list[list[float]] = []
        block: list[float] = []
        for rep in per_rep:
            block.extend(rep.get(kind, ()))
            if len(block) >= need:
                blocks.append(block)
                block = []
        if block:
            if blocks:
                blocks[-1].extend(block)
            else:
                blocks.append(block)
        values.append(statistics.median(percentile(b, p) for b in blocks))
        weights.append(sum(len(b) for b in blocks))
    return float(np.average(values, weights=weights))


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def environment() -> dict:
    """Machine and library facts every result record carries."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


@dataclass
class Rep:
    """One repetition: set-up and run times, what the check found, and the
    tracer that recorded it when it was traced."""

    k: int
    setup_s: list[float]
    run_s: float
    outcome: Outcome | None  # None when the repetition raised
    tracer: layer_trace.Tracer | None = None


def run_rep(workload, k: int, tracer: layer_trace.Tracer | None = None) -> Rep:
    if tracer is None and layer_trace.wrapped_targets():
        raise RuntimeError("an untraced repetition found tracing wrappers installed")
    try:
        clock = time.perf_counter
        setup_s = []
        with layer_trace.installed(tracer) if tracer else nullcontext():
            while True:
                t0 = clock()
                state = workload.setup(k)
                t1 = clock()
                setup_s.append(t1 - t0)
                if tracer or len(setup_s) >= SETUP_SAMPLES or sum(setup_s) >= SETUP_BUDGET_S:
                    break
            produced = workload.run(state)
            t2 = clock()
        outcome = workload.check(state, produced)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Rep(k, [], math.nan, None, tracer)
    return Rep(k, setup_s, t2 - t1, outcome, tracer)


def measure(workload, seconds: float, trace: bool) -> list[Rep]:
    """Repeat until ``seconds`` have passed and the workload's minimum count
    is met. With ``trace``, each untraced repetition is followed by a traced
    one on the same inputs."""
    reps: list[Rep] = []
    start = time.perf_counter()
    k = 0
    while True:
        reps.append(run_rep(workload, k))
        if trace:
            reps.append(run_rep(workload, k, layer_trace.Tracer()))
        k += 1
        if any(r.outcome is None for r in reps):
            break
        if k >= (1 if trace else workload.min_reps) and time.perf_counter() - start >= seconds:
            break
    return reps


def tally(workload, reps: list[Rep]) -> tuple[int, int]:
    """(attempted, failed) over all repetitions, counting an operation whose
    output differs from an earlier repetition on the same inputs as failed."""
    attempted = failed = 0
    first: dict[int, dict[str, str]] = {}
    for rep in reps:
        if rep.outcome is None:
            attempted += workload.ops_per_rep
            failed += workload.ops_per_rep
            continue
        attempted += rep.outcome.attempted
        failed += rep.outcome.failed
        ref = first.setdefault(workload.inputs_key(rep.k), rep.outcome.fingerprint)
        failed += sum(1 for op, d in rep.outcome.fingerprint.items() if op in ref and ref[op] != d)
    return attempted, min(failed, attempted)


def end_to_end(workload, reps: list[Rep]) -> dict[str, float]:
    ok = [r for r in reps if r.outcome is not None]
    latencies = [r.outcome.latencies_s for r in ok]
    return {
        "setup_s": statistics.median(x for r in ok for x in r.setup_s),
        "run_s": statistics.median(r.run_s for r in ok),
        "step_ms_p50": 1e3 * median_percentile(latencies, 50),
        "step_ms_p95": 1e3 * median_percentile(latencies, TAIL_PERCENTILE),
        "accuracy": statistics.fmean(r.outcome.accuracy for r in ok[: workload.min_reps]),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(reps: list[Rep]) -> dict[str, float]:
    """Per-layer numbers per repetition, averaged over the traced ones."""
    traced = [r for r in reps if r.tracer is not None and r.outcome is not None]
    untraced = {r.k: r for r in reps if r.tracer is None and r.outcome is not None}
    n = len(traced)
    out = {name: 0.0 for name in per_layer_units()}
    for rep in traced:
        summary = layer_trace.summarize(rep.tracer.spans)
        for span, fld, _ in SPAN_METRICS:
            out[f"{span}.{fld}"] += summary.get(span, {}).get(fld, 0.0) / n
        for key in COUNT_METRICS:
            out[key] += rep.outcome.counts.get(key, 0) / n
        out["trace.spans"] += len(rep.tracer.spans) / n
        for span in PEAK_METRICS:
            peak_mb = rep.tracer.peak_bytes.get(span, 0) / 1e6
            out[f"{span}.peak_mb"] = max(out[f"{span}.peak_mb"], peak_mb)
    selected = sum(r.outcome.counts.get("adapt.selected", 0) for r in traced)
    scored = sum(r.outcome.counts.get("adapt.scored", 0) for r in traced)
    out["adapt.selected_ratio"] = selected / scored if scored else 0.0
    out["trace.run_s"] = statistics.median(r.run_s for r in traced)
    # a pair whose untraced half raised has no overhead to report; the run's
    # failed operations say so, and the overhead reads 0 if no pair completed
    overheads = [r.run_s - untraced[r.k].run_s for r in traced if r.k in untraced]
    out["trace.overhead_s"] = statistics.median(overheads) if overheads else 0.0
    return out
