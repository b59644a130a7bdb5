"""Outside-in layer trace for the benchmark.

The traced run wraps public seva functions by replacing each name in the
namespace its caller looks it up in (``seva.model.augmented_entropy_batch``
is the name ``per_sample_loss`` calls; ``AdaptEngine.adapt_step`` is a
method on the class). Every call through a wrapper records a span: name,
start, end and the span that was open when it began. Spans stay in memory
until the run ends. The originals are put back when the ``installed``
block exits, whatever happens inside it, so untraced runs never see a
wrapper.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# Attribute set on every wrapper, so a run can prove it is untraced.
WRAPPER_MARK = "_bench_span"

# Peak memory is taken on the first PEAK_CALLS calls of each name only:
# tracemalloc slows every allocation inside a call, and within one workload
# the calls of a name repeat the same shapes.
PEAK_CALLS = 64


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


@dataclass(frozen=True)
class Target:
    """One name to wrap: ``attr`` is looked up in ``module`` (``Class.method``
    for methods) and its calls are recorded as spans called ``span``."""

    span: str
    module: str
    attr: str
    peak: bool = False  # also record peak traced memory (tracemalloc)


# Span names are <layer>.<function>; the layer is the seva module that
# defines the function, the module column is where its caller finds it.
TARGETS = (
    Target("config.resolve_config", "seva.config", "resolve_config"),
    Target("config.resolve_config", "seva.committed", "resolve_config"),
    Target("runner.build_world_and_model", "seva.runner", "build_world_and_model"),
    Target("runner.run_cell", "seva.runner", "run_cell"),
    Target("runner.write_trace", "seva.runner", "write_trace"),
    Target("scenarios.make_world", "seva.runner", "make_world"),
    Target("scenarios.fit_head", "seva.runner", "fit_head"),
    Target("scenarios.generate_stream", "seva.runner", "generate_stream"),
    Target("scenarios.generate_stream", "seva.scenarios", "generate_stream"),
    Target("scenarios.selection_f1", "seva.runner", "selection_f1"),
    Target("adapt.adapt_step", "seva.adapt", "AdaptEngine.adapt_step"),
    Target("adapt.sgd_momentum_step", "seva.adapt", "sgd_momentum_step"),
    Target("model.forward_with_caches", "seva.adapt", "forward_with_caches"),
    Target("model.backward_adaptable", "seva.adapt", "backward_adaptable"),
    Target("model.per_sample_loss", "seva.adapt", "per_sample_loss"),
    Target("model.calibrate_covariance", "seva.adapt", "calibrate_covariance"),
    Target("core_math.augmented_entropy_batch", "seva.model", "augmented_entropy_batch", peak=True),
    Target(
        "core_math.grad_augmented_entropy_wrt_feature_batch",
        "seva.adapt",
        "grad_augmented_entropy_wrt_feature_batch",
        peak=True,
    ),
    Target("core_math.entropy_from_logits", "seva.model", "entropy_from_logits"),
    Target("core_math.grad_entropy_wrt_feature_batch", "seva.adapt", "grad_entropy_wrt_feature_batch"),
    Target("core_math.softmax_rows", "seva.adapt", "softmax_rows"),
    Target("core_math.augmented_entropy", "seva.oracle", "augmented_entropy"),
    Target("oracle.mc_entropy", "seva.oracle", "mc_entropy", peak=True),
    Target("oracle.random_instance", "seva.oracle", "random_instance"),
)


class Tracer:
    """Collects spans from the wrappers it hands out (one thread)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.peak_bytes: dict[str, int] = {}
        self._peak_tracked: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, peak: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Peak-tracked functions are leaves; a nested start would reset
            # the enclosing measurement, so only the outermost one tracks.
            track = (
                peak
                and self._peak_tracked.get(name, 0) < PEAK_CALLS
                and not tracemalloc.is_tracing()
            )
            if track:
                self._peak_tracked[name] = self._peak_tracked.get(name, 0) + 1
                tracemalloc.start()
            parent = self._open[-1] if self._open else None
            span = Span(name, self.clock(), float("nan"), parent)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
                if track:
                    peak_now = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak_now)

        setattr(traced, WRAPPER_MARK, name)
        return traced


def _owner_and_name(target: Target):
    owner = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def wrapped_targets(targets=TARGETS) -> list[Target]:
    """Targets whose name currently resolves to a tracing wrapper."""
    out = []
    for t in targets:
        owner, name = _owner_and_name(t)
        if hasattr(vars(owner).get(name), WRAPPER_MARK):
            out.append(t)
    return out


@contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Wrap every target for the duration of the block. A name the sources
    no longer have is reported on stderr and its layer metrics read 0."""
    saved = []
    try:
        for t in targets:
            owner, name = _owner_and_name(t)
            original = vars(owner).get(name)
            if original is None:
                print(f"trace: {t.module}.{t.attr} not found, {t.span} reads 0", file=sys.stderr)
                continue
            saved.append((owner, name, original))
            setattr(owner, name, tracer.wrap(t.span, original, t.peak))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children of one span run one after another (single thread), so the
    covered part is the sum of their durations clipped to the parent.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            covered[s.parent] += max(0.0, min(s.end, p.end) - max(s.start, p.start))
    return [max(0.0, (s.end - s.start) - c) for s, c in zip(spans, covered)]


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (wall time inside the name, counting a
    call nested in a call of the same name once) and self_s."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        agg = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += selfs[i]
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            agg["busy_s"] += s.end - s.start
    return out


def span_records(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]
