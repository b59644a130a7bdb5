"""Worlds, corruptions, stream schedules, and the selection-F1 metric."""

import numpy as np
import pytest

import seva.scenarios
from seva.adapt import AdaptEngine, MethodConfig, run_stream
from seva.model import build_network, forward_features_batch
from seva.rng import substream
from seva.scenarios import (
    NOISE_BASE_STD,
    Batch,
    CorruptionSchedule,
    CorruptionSpec,
    InfeasibleWorldError,
    LabelSchedule,
    StreamSpec,
    corrupt_batch,
    fit_head,
    generate_stream,
    make_world,
    sample_clean,
    selection_f1,
)


def default_spec(seed=0, **kwargs):
    defaults = dict(
        label_schedule=LabelSchedule("uniform"),
        corruption_schedule=CorruptionSchedule((CorruptionSpec("additive_noise", 3),)),
        batch_size=16,
        n_batches=20,
        seed=seed,
    )
    defaults.update(kwargs)
    return StreamSpec(**defaults)


class TestWorld:
    def test_same_seed_identical(self):
        a = make_world(seed=4, C=5, d_in=6)
        b = make_world(seed=4, C=5, d_in=6)
        np.testing.assert_array_equal(a.prototypes, b.prototypes)

    def test_separation_floor(self):
        for seed in range(5):
            w = make_world(seed=seed, C=6, d_in=4, min_separation=2.0)
            d = np.linalg.norm(w.prototypes[:, None] - w.prototypes[None, :], axis=2)
            np.fill_diagonal(d, np.inf)
            assert d.min() >= 2.0

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleWorldError):
            make_world(seed=0, C=40, d_in=2, proto_scale=0.1, min_separation=5.0, max_retries=5)

    def test_two_class_world_fits_clean_head(self):
        world = make_world(seed=2, C=2, d_in=2)
        net = build_network(seed=3, d_in=2, d=4, C=2, n_layers=1, groups=2)
        head, acc = fit_head(net, world, seed=5)
        assert acc >= 0.95
        net.head = head

    def test_clustered_world_geometry(self):
        w = make_world(
            seed=7, C=6, d_in=12, proto_scale=4.0, cluster_size=2, cluster_spread=2.0
        )
        d = np.linalg.norm(w.prototypes[:, None] - w.prototypes[None, :], axis=2)
        for k in range(0, 6, 2):
            assert d[k, k + 1] == pytest.approx(2.0)


class TestCorrupt:
    def test_severity_zero_is_identity(self):
        x = np.linspace(-1, 1, 8)
        for kind in seva.scenarios.CORRUPTION_KINDS:
            out = corrupt_batch(x[None, :], CorruptionSpec(kind, 0), substream(0))
            np.testing.assert_array_equal(out, x[None, :])

    def test_additive_noise_magnitude(self):
        d_in = 10
        X = np.zeros((20_000, d_in))
        for s in (1, 3, 5):
            out = corrupt_batch(X, CorruptionSpec("additive_noise", s), substream(1, s))
            msq = (out**2).sum(axis=1).mean()
            expected = s * NOISE_BASE_STD**2 * d_in
            assert msq == pytest.approx(expected, rel=0.05)

    def test_expected_magnitude_monotone_in_severity(self):
        rng0 = substream(2, "mono")
        X = rng0.standard_normal((4000, 12))
        for kind in seva.scenarios.CORRUPTION_KINDS:
            mags = []
            for s in range(1, 6):
                out = corrupt_batch(X, CorruptionSpec(kind, s), substream(3, kind, s))
                mags.append(((out - X) ** 2).sum(axis=1).mean())
            assert all(a < b for a, b in zip(mags, mags[1:])), (kind, mags)

    def test_deterministic_given_stream_rng(self):
        x = np.linspace(-2, 2, 6)
        a = corrupt_batch(x[None, :], CorruptionSpec("occlusion_mask", 3), substream(5, "det"))
        b = corrupt_batch(x[None, :], CorruptionSpec("occlusion_mask", 3), substream(5, "det"))
        np.testing.assert_array_equal(a, b)

    def test_frozen_accuracy_non_increasing_in_severity(self):
        world = make_world(seed=11, C=6, d_in=12)
        net = build_network(seed=12, d_in=12, d=12, C=6, n_layers=2, groups=3)
        head, acc = fit_head(net, world, seed=13)
        net.head = head
        assert acc >= 0.95
        rng = substream(14, "eval")
        labels = np.repeat(np.arange(6), 200)
        X = sample_clean(world, rng, labels)
        accs = []
        for s in range(0, 6):
            Xc = corrupt_batch(X, CorruptionSpec("additive_noise", s), substream(15, s))
            feats = forward_features_batch(net, Xc)
            pred = (feats @ head.weights.T + head.biases).argmax(axis=1)
            accs.append((pred == labels).mean())
        assert all(a >= b - 0.02 for a, b in zip(accs, accs[1:])), accs
        assert accs[0] > accs[5]

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            CorruptionSpec("fog", 3)
        with pytest.raises(ValueError):
            CorruptionSpec("additive_noise", 6)
        with pytest.raises(ValueError, match="segment_len"):
            CorruptionSchedule((CorruptionSpec("additive_noise", 3),) * 2, segment_len=-5)


class TestGenerateStream:
    def test_uniform_frequencies(self):
        world = make_world(seed=20, C=4, d_in=6)
        spec = default_spec(seed=21, batch_size=64, n_batches=60)
        stream = generate_stream(world, spec)
        labels = np.concatenate([b.labels for b in stream])
        counts = np.bincount(labels, minlength=4)
        n = labels.size
        # within 3 sigma of the multinomial expectation
        sd = np.sqrt(n * 0.25 * 0.75)
        assert (np.abs(counts - n / 4) <= 3 * sd).all()

    def test_imbalanced_full_dominance_single_class_segments(self):
        world = make_world(seed=22, C=5, d_in=6)
        spec = default_spec(
            seed=23,
            label_schedule=LabelSchedule("imbalanced", dominance=1.0, segment_len=32),
            batch_size=16,
            n_batches=20,
        )
        labels = np.concatenate([b.labels for b in generate_stream(world, spec)])
        for start in range(0, labels.size, 32):
            seg = labels[start : start + 32]
            assert np.unique(seg).size == 1
            assert seg[0] == (start // 32) % 5  # rotates over classes

    def test_online_shifting_mode_moves(self):
        world = make_world(seed=24, C=6, d_in=6)
        spec = default_spec(
            seed=25,
            label_schedule=LabelSchedule("online_shifting"),
            batch_size=64,
            n_batches=40,
        )
        labels = np.concatenate([b.labels for b in generate_stream(world, spec)])
        first = np.bincount(labels[:640], minlength=6)
        last = np.bincount(labels[-640:], minlength=6)
        assert first.argmax() != last.argmax()

    def test_batch_size_one(self):
        world = make_world(seed=26, C=3, d_in=4)
        spec = default_spec(seed=27, batch_size=1, n_batches=25)
        stream = generate_stream(world, spec)
        assert all(b.inputs.shape == (1, 4) and b.labels.shape == (1,) for b in stream)

    def test_mixture_switches_at_segment_boundaries(self):
        world = make_world(seed=28, C=3, d_in=6)
        specs = (CorruptionSpec("feature_scale", 5), CorruptionSpec("additive_noise", 0))
        spec = default_spec(
            seed=29,
            corruption_schedule=CorruptionSchedule(specs, segment_len=80),
            batch_size=16,
            n_batches=20,
        )
        stream = generate_stream(world, spec)
        # regenerate the clean inputs to compare against: identity segments match
        rng = substream(spec.seed, "stream")
        labels = rng.integers(0, 3, spec.n_samples)  # replay the label draws
        np.testing.assert_array_equal(labels, np.concatenate([b.labels for b in stream]))
        clean = sample_clean(world, rng, labels)
        X = np.concatenate([b.inputs for b in stream])
        np.testing.assert_array_equal(X[80:160], clean[80:160])  # severity-0 segment
        assert not np.allclose(X[:80], clean[:80])  # gain-corrupted segment

    def test_same_spec_same_stream(self):
        world = make_world(seed=30, C=4, d_in=5)
        spec = default_spec(seed=31)
        a = generate_stream(world, spec)
        b = generate_stream(world, spec)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.inputs, y.inputs)
            np.testing.assert_array_equal(x.labels, y.labels)

    def test_batches_are_read_only(self):
        # one stream serves every cell of its seed: a write must raise
        stream = generate_stream(make_world(seed=32, C=4, d_in=5), default_spec(seed=33))
        for batch in (stream[0], stream[-1]):
            with pytest.raises(ValueError, match="read-only"):
                batch.inputs[0, 0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                batch.labels[:] = 0


class TestSelectionF1:
    def run_trace(self, selected, predicted, labels):
        from seva.adapt import RunTrace, StepReport

        trace = RunTrace()
        trace.steps.append(
            StepReport(
                losses=np.zeros(len(selected)),
                selected=np.asarray(selected, dtype=bool),
                predicted=np.asarray(predicted),
                confidence=np.ones(len(selected)),
                n_selected=int(np.sum(selected)),
                updated=False,
                step_wall_time=0.0,
            )
        )
        trace.labels.append(np.asarray(labels))
        return trace

    def test_select_all_on_all_correct(self):
        trace = self.run_trace([1, 1, 1], [0, 1, 2], [0, 1, 2])
        score = selection_f1(trace)
        assert score.precision == score.recall == score.f1 == 1.0

    def test_select_none(self):
        trace = self.run_trace([0, 0, 0], [0, 1, 2], [0, 1, 2])
        score = selection_f1(trace)
        assert score.recall == 0.0 and score.f1 == 0.0
        assert score.precision == 0.0 and score.empty_selection

    def test_select_all_precision_equals_accuracy(self):
        trace = self.run_trace([1, 1, 1, 1], [0, 1, 0, 1], [0, 1, 1, 1])
        score = selection_f1(trace)
        assert score.precision == 0.75
        assert score.recall == 1.0

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            trace = self.run_trace(
                rng.integers(0, 2, n), rng.integers(0, 3, n), rng.integers(0, 3, n)
            )
            score = selection_f1(trace)
            assert 0.0 <= score.precision <= 1.0
            assert 0.0 <= score.recall <= 1.0
            assert 0.0 <= score.f1 <= 1.0


class TestLabelHiding:
    def test_stream_batches_carry_labels_beside_inputs(self):
        world = make_world(seed=33, C=3, d_in=4)
        stream = generate_stream(world, default_spec(seed=34))
        assert isinstance(stream[0], Batch)
        # the engine consumes only .inputs; metrics consume .labels
        net = build_network(seed=35, d_in=4, d=4, C=3, n_layers=1, groups=2)
        engine = AdaptEngine(net, MethodConfig(kind="tent", lr=0.01))
        trace = run_stream(engine, stream)
        np.testing.assert_array_equal(np.concatenate(trace.labels), np.concatenate([b.labels for b in stream]))
