"""Tests of the benchmark's own helpers: python3 -m pytest bench"""

import sys
import types

import numpy as np
import pytest

import harness
import layer_trace
from layer_trace import Span, Target, Tracer
from seva import config
from workloads import Certify, CommittedGrid, WideStream, passthrough


class FakeClock:
    """Advances by one unit on every read."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


# --- percentile rule -------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert harness.samples_beyond(200, 95) == 10
    assert harness.samples_beyond(199, 95) == 9
    assert harness.samples_beyond(300, 95) == 15
    assert harness.samples_beyond(1000, 99.9) == 1


def test_percentile_refuses_unsupported_tail():
    with pytest.raises(ValueError, match="fewer than 10"):
        harness.percentile(list(range(199)), 95)
    assert harness.percentile(list(range(200)), 95) == pytest.approx(np.percentile(range(200), 95))
    with pytest.raises(ValueError):
        harness.percentile(list(range(19)), 50)


def test_median_percentile_blocks_repetitions_until_the_tail_is_supported():
    # 50 samples per repetition: p95 needs blocks of 4 repetitions (200 samples),
    # and a trailing partial block joins the last full one.
    lists = [[float(k)] * 50 for k in range(9)]
    blocks = [sum(lists[:4], []), sum(lists[4:], [])]
    expected = np.median([np.percentile(b, 95) for b in blocks])
    reps = [{"op": x} for x in lists]
    assert harness.median_percentile(reps, 95) == pytest.approx(expected)
    # the median needs 20 samples, so each repetition is its own block
    assert harness.median_percentile(reps, 50) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        harness.median_percentile([{"op": [1.0] * 50}, {"op": [2.0] * 50}], 95)


def test_median_percentile_takes_each_kind_separately():
    # three kinds of operation, each 200 samples of one value per repetition
    reps = [{"a": [1.0] * 200, "b": [2.0] * 200, "c": [9.0] * 200} for _ in range(2)]
    assert harness.median_percentile(reps, 95) == pytest.approx(4.0)


def test_median_percentile_weights_kinds_by_their_samples():
    reps = [{"a": [1.0] * 300, "b": [4.0] * 100}]
    assert harness.median_percentile(reps, 50) == pytest.approx(1.75)
    # doubling one kind's latency moves the result by that kind's share
    slower = [{"a": [1.0] * 300, "b": [8.0] * 100}]
    assert harness.median_percentile(slower, 50) - harness.median_percentile(reps, 50) == pytest.approx(1.0)


# --- spans and self time ---------------------------------------------------


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.leaf", 2.0, 3.0, 1),
        Span("b", 5.0, 6.0, 0),
    ]
    assert layer_trace.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_records_nesting_and_summarizes():
    tracer = Tracer(clock=FakeClock())
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", None), ("inner", 0), ("inner", 0)]
    # outer: 1..6, inner: 2..3 and 4..5
    summary = layer_trace.summarize(tracer.spans)
    assert summary["outer"] == {"calls": 1, "busy_s": 5.0, "self_s": 3.0}
    assert summary["inner"] == {"calls": 2, "busy_s": 2.0, "self_s": 2.0}


def test_busy_time_counts_recursive_calls_once():
    spans = [Span("f", 0.0, 10.0, None), Span("g", 1.0, 9.0, 0), Span("f", 2.0, 8.0, 1)]
    assert layer_trace.summarize(spans)["f"]["busy_s"] == 10.0


# --- wrappers are restored ---------------------------------------------------


def _fake_module_target(monkeypatch):
    mod = types.ModuleType("bench_fake_layer")
    mod.work = lambda x: x + 1
    monkeypatch.setitem(sys.modules, "bench_fake_layer", mod)
    return mod, Target("fake.work", "bench_fake_layer", "work")


def test_installed_restores_originals_even_on_error(monkeypatch):
    mod, target = _fake_module_target(monkeypatch)
    original = mod.work
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with layer_trace.installed(tracer, (target,)):
            assert mod.work is not original
            assert mod.work(1) == 2
            raise RuntimeError("boom")
    assert mod.work is original
    assert [s.name for s in tracer.spans] == ["fake.work"]


def _current(target):
    owner, name = layer_trace._owner_and_name(target)
    return vars(owner)[name]


def test_every_target_is_restored_after_installation():
    originals = [_current(t) for t in layer_trace.TARGETS]
    with layer_trace.installed(Tracer()):
        assert layer_trace.wrapped_targets() == list(layer_trace.TARGETS)
    assert layer_trace.wrapped_targets() == []
    assert all(_current(t) is fn for t, fn in zip(layer_trace.TARGETS, originals))


class _ProbeWorkload:
    """Records how many targets are wrapped while it runs."""

    min_reps = 2
    ops_per_rep = 1

    def __init__(self):
        self.seen = []

    def inputs_key(self, k):
        return 0

    def setup(self, k):
        return k

    def run(self, state):
        self.seen.append(len(layer_trace.wrapped_targets()))
        return None

    def check(self, state, produced):
        return harness.Outcome(attempted=1, failed=0, accuracy=1.0, latencies_s={"op": [0.001]})


def test_untraced_repetitions_are_never_wrapped():
    probe = _ProbeWorkload()
    reps = harness.measure(probe, seconds=0.0, trace=True)
    assert [r.tracer is not None for r in reps] == [False, True]
    assert probe.seen == [0, len(layer_trace.TARGETS)]
    assert layer_trace.wrapped_targets() == []
    reps = harness.measure(probe, seconds=0.0, trace=False)
    assert len(reps) == probe.min_reps and probe.seen[2:] == [0, 0]


def test_passthrough_observes_and_restores():
    from seva import oracle
    from seva.adapt import AdaptEngine

    for owner, name in ((AdaptEngine, "adapt_step"), (oracle, "bound_gap_report")):
        original = vars(owner)[name]
        with passthrough(owner, name, lambda *a, **k: None):
            assert vars(owner)[name] is not original
        assert vars(owner)[name] is original

    mod = types.ModuleType("bench_fake_layer")
    mod.work = original = lambda x, y=0: x + y
    seen = []
    with pytest.raises(RuntimeError):
        with passthrough(mod, "work", lambda result, *a, **k: seen.append((result, a, k))):
            assert mod.work(1, y=2) == 3
            raise RuntimeError("boom")
    assert seen == [(3, (1,), {"y": 2})]
    assert mod.work is original


class _FailsUntracedWorkload(_ProbeWorkload):
    """Raises in its first untraced repetition only."""

    def run(self, state):
        if not layer_trace.wrapped_targets():
            raise RuntimeError("untraced repetition fails")


def test_a_failed_untraced_partner_is_reported_not_fatal():
    probe = _FailsUntracedWorkload()
    reps = harness.measure(probe, seconds=0.0, trace=True)
    assert [(r.tracer is not None, r.outcome is not None) for r in reps] == [(False, False), (True, True)]
    assert harness.tally(probe, reps) == (2, 1)
    layers = harness.per_layer(reps)
    assert layers["trace.overhead_s"] == 0.0
    assert set(layers) == set(harness.per_layer_units())


def test_an_operation_that_differs_between_repetitions_fails():
    probe = _ProbeWorkload()
    reps = [
        harness.Rep(0, [0.1], 1.0, harness.Outcome(2, 0, 1.0, {}, fingerprint={"a": "x", "b": "y"})),
        harness.Rep(1, [0.1], 1.0, harness.Outcome(2, 0, 1.0, {}, fingerprint={"a": "x", "b": "z"})),
    ]
    assert harness.tally(probe, reps) == (4, 1)


# --- seeded inputs -----------------------------------------------------------


def _grid_inputs(seed, tmp_path):
    cfg, _ = CommittedGrid(seed, tmp_path, None).setup(0)
    tree = {k: v for k, v in cfg.tree.items() if k != "out_dir"}
    return tree


def test_grid_inputs_follow_the_seed(tmp_path):
    assert _grid_inputs(3, tmp_path) == _grid_inputs(3, tmp_path)
    assert _grid_inputs(3, tmp_path) != _grid_inputs(4, tmp_path)
    assert _grid_inputs(0, tmp_path)["seeds"] == list(range(10))


def test_grid_reference_applies_only_at_its_seed(tmp_path):
    ref = {"seed": 0, "cells": {}}
    assert CommittedGrid(0, tmp_path, ref).reference is ref
    assert CommittedGrid(1, tmp_path, ref).reference is None


def _stream_inputs(seed):
    _, stream = WideStream(seed, None, None).setup(0)
    return np.concatenate([b.inputs for b in stream])


def test_wide_stream_inputs_follow_the_seed():
    a = _stream_inputs(5)
    assert np.array_equal(a, _stream_inputs(5))
    assert not np.array_equal(a, _stream_inputs(6))


def _fast_sweep(seed, k):
    """Certify's run of sweep k, with the fast sample count to stay cheap."""
    wl = Certify(seed, None, None)
    cfg, _ = wl.setup(k)
    state = (config.resolve_config({"mc": dict(cfg.mc, n_samples=cfg.mc["fast_n_samples"])}), k)
    return wl, state, wl.run(state)


def _certify_instances(seed, k):
    _, _, (_, instances, _) = _fast_sweep(seed, k)
    return [np.concatenate([h.weights.ravel(), h.biases, z, s.variances]) for h, z, s, _ in instances]


def test_certify_times_and_checks_every_instance_of_the_sweep():
    wl, state, (reports, instances, latencies) = _fast_sweep(10, 0)
    assert len(reports) == len(instances) == len(latencies) == wl.ops_per_rep
    assert all(lat > 0 for lat in latencies)
    outcome = wl.check(state, (reports, instances, latencies))
    assert (outcome.attempted, outcome.failed) == (wl.ops_per_rep, 0)
    # a report the pass-through did not see fails its instance
    assert wl.check(state, (reports, instances[:-1], latencies)).failed == 1


def _same(xs, ys):
    return len(xs) == len(ys) and all(x.shape == y.shape and np.array_equal(x, y) for x, y in zip(xs, ys))


def test_certify_inputs_follow_the_seed():
    first = _certify_instances(10, 0)
    assert _same(first, _certify_instances(10, 0))
    assert not _same(first, _certify_instances(11, 0))
    assert not _same(first, _certify_instances(10, 1))  # each sweep of a run has its own set
