"""Adaptation engine: selection rule, optimizer, method behavior, streaming."""

import copy
import inspect
import math
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import seva.adapt
from seva.adapt import (
    RECIPES,
    AdaptEngine,
    MethodConfig,
    run_stream,
    sgd_momentum_step,
    threshold_default,
)
from seva.core_math import (
    AugmentedEntropyLoss,
    ClassifierHead,
    DiagCovariance,
    DimensionMismatch,
    EntropyLoss,
    augmented_entropy,
    entropy,
    softmax,
    softmax_rows,
)
from seva.config import load_config, resolve_config
from seva.model import (
    adaptable_params,
    build_network,
    calibrate_covariance,
    forward_features_batch,
    forward_stem,
    set_adaptable_params,
)
from seva.rng import derive_seed
from seva.runner import build_stream, build_world_and_model, run_cell
from seva.scenarios import Batch
from model_helpers import batch_loss, grad_loss_wrt_adaptable
from test_trace_digests import GRID as DIGEST_GRID


def selected(losses, threshold):
    """The engine's strict selection rule on a batch of losses, as Python bools."""
    return RECIPES["seva"].select(np.asarray(losses, dtype=np.float64), threshold).tolist()


class TestSelect:
    def test_strict_boundary(self):
        for t in (0.0, 0.5, math.log(1000)):
            assert selected([t], t) == [False]

    def test_zero_loss_positive_threshold(self):
        assert selected([0.0], math.log(2)) == [True]

    def test_above_threshold(self):
        assert selected([2.0], 1.0) == [False]

    def test_confusing_sample_excluded_by_weighted_loss_only(self):
        # two near-equal probabilities on far-apart prototypes: entropy stays
        # at ln 2 (under the boundary), the weighted loss exceeds it; exactly
        # uniform probabilities sit ON the plain-entropy boundary at rho = 1,
        # so the boundary uses rho = 1.2 from the robust range
        delta = 6.0
        head = ClassifierHead(np.array([[delta / 2, 0.0], [-delta / 2, 0.0]]), np.zeros(2))
        z = np.array([0.0, 1.0])  # orthogonal to the prototype axis
        sigma = DiagCovariance(np.array([0.5, 0.5]))
        h = entropy(softmax(head.weights @ z + head.biases))
        lae = augmented_entropy(head, z, sigma)
        threshold = threshold_default(2, 1.2)
        assert h == pytest.approx(math.log(2), abs=1e-12)
        assert selected([h], threshold) == [True]  # kept by an entropy threshold
        assert lae > threshold
        assert selected([lae], threshold) == [False]  # excluded by the weighted loss


class TestThresholdDefault:
    def test_thousand_class_boundary(self):
        assert threshold_default(1000, 1.0) == pytest.approx(math.log(1000))

    def test_single_class_rejects_everything(self):
        assert threshold_default(1, 1.0) == 0.0
        assert selected([0.0], threshold_default(1, 1.0)) == [False]

    def test_formula(self):
        assert threshold_default(10, 1.0) == pytest.approx(math.log(10))
        assert threshold_default(10, 0.5) == pytest.approx(0.5 * math.log(10))

    @pytest.mark.parametrize("C", [1, 2, 10, 1000])
    def test_infinite_rho_is_an_infinite_threshold(self, C):
        # inf * ln 1 would be NaN, and a NaN threshold selects nothing
        assert threshold_default(C, math.inf) == math.inf

    def test_unselective_augmented_loss_trains_a_single_class_head(self):
        net = build_network(seed=3, d_in=6, d=8, C=1, n_layers=2, groups=2)
        X = np.random.default_rng(4).standard_normal((8, 6))
        engine = AdaptEngine(net, MethodConfig(kind="seva", threshold_rho=math.inf, lr=0.05))
        engine.calibrate(X)
        report = engine.adapt_step(X)
        assert report.selected.all() and report.n_selected == 8
        assert report.updated

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            threshold_default(0, 1.0)
        with pytest.raises(ValueError):
            threshold_default(10, 0.0)


class TestSgdMomentum:
    """The one optimizer updates its parameter and momentum arrays in place."""

    def test_zero_momentum_is_plain_sgd(self):
        params = np.array([1.0, -2.0])
        grads = np.array([0.5, 0.25])
        expected = params - grads
        assert sgd_momentum_step(params, grads, np.zeros_like(params), lr=1.0, momentum=0.0) is None
        np.testing.assert_array_equal(params, expected)

    def test_velocity_decays_geometrically(self):
        params = np.zeros(3)
        velocity = np.array([1.0, 2.0, -1.0])
        buffer = velocity
        for _ in range(5):
            prev = velocity.copy()
            sgd_momentum_step(params, np.zeros(3), velocity, 0.1, 0.9)
            np.testing.assert_allclose(velocity, 0.9 * prev, rtol=1e-15)
        assert velocity is buffer

    def test_two_steps_constant_gradient(self):
        # v1 = g, step 0.1 g; v2 = 1.9 g, step 0.19 g
        params = np.array([1.0])
        g = np.array([2.0])
        velocity = np.zeros_like(params)
        sgd_momentum_step(params, g, velocity, 0.1, 0.9)
        assert params[0] == pytest.approx(1.0 - 0.1 * 2.0)
        p1 = params[0]
        sgd_momentum_step(params, g, velocity, 0.1, 0.9)
        assert params[0] == pytest.approx(p1 - 0.19 * 2.0)
        assert velocity[0] == pytest.approx(1.9 * 2.0)

    def test_shape_mismatch(self):
        params, velocity = np.ones(3), np.ones(3)
        with pytest.raises(ValueError, match="shape mismatch"):
            sgd_momentum_step(params, np.zeros(2), velocity, 0.1, 0.9)
        np.testing.assert_array_equal(params, np.ones(3))
        np.testing.assert_array_equal(velocity, np.ones(3))


class TestMethodConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown method kind"):
            MethodConfig(kind="sar")

    def test_lr_positive_except_no_adapt(self):
        with pytest.raises(ValueError, match="lr"):
            MethodConfig(kind="tent", lr=0.0)
        MethodConfig(kind="no_adapt", lr=0.0)  # allowed

    @pytest.mark.parametrize("kwargs", [
        {"lr": float("inf")}, {"momentum": float("nan")}, {"momentum": -3.0}, {"momentum": 1.0},
    ])
    def test_update_hyperparameters_in_range(self, kwargs):
        (key, value), = kwargs.items()
        with pytest.raises(ValueError, match=key):
            MethodConfig(kind="tent", **kwargs)
        if math.isfinite(value):
            MethodConfig(kind="no_adapt", **kwargs)  # never updates, so any finite value will do
        else:
            with pytest.raises(ValueError, match=f"{key} must be finite"):  # a resolved config is strict JSON
                MethodConfig(kind="no_adapt", **kwargs)

    @pytest.mark.parametrize("scale", [-1.0, float("nan"), float("inf")])
    def test_sigma_scale_finite_and_non_negative(self, scale):
        with pytest.raises(ValueError, match="sigma_scale"):
            MethodConfig(kind="seva", sigma_scale=scale)

    def test_rounds_validated(self):
        with pytest.raises(ValueError, match="rounds"):
            MethodConfig(kind="explicit_va", rounds=0)

    @pytest.mark.parametrize("kind", ["explicit_va", "tent"])
    @pytest.mark.parametrize("rounds", [2.5, 2.0, True, "2"])
    def test_rounds_must_be_an_integer(self, kind, rounds):
        # not left to fail at the first update, inside range()
        with pytest.raises(ValueError, match="rounds must be an integer"):
            MethodConfig(kind=kind, rounds=rounds)
        MethodConfig(kind="explicit_va", rounds=np.int64(2))  # any integral type


def small_setup(seed=0, C=4, d_in=6, d=8):
    net = build_network(seed=seed, d_in=d_in, d=d, C=C, n_layers=2, groups=2)
    rng = np.random.default_rng(seed + 1)
    stream = [
        Batch(inputs=rng.standard_normal((8, d_in)), labels=rng.integers(0, C, 8))
        for _ in range(6)
    ]
    return net, stream


class TestAdaptStep:
    def test_no_adapt_never_updates(self):
        net, stream = small_setup()
        engine = AdaptEngine(net, MethodConfig(kind="no_adapt", lr=1.0))
        before = adaptable_params(net)
        rep = engine.adapt_step(stream[0].inputs)
        np.testing.assert_array_equal(adaptable_params(net), before)
        assert rep.updated is False
        assert rep.n_selected == 0
        assert not rep.selected.any()

    def test_tent_selects_all_and_updates(self):
        net, stream = small_setup()
        engine = AdaptEngine(net, MethodConfig(kind="tent", lr=0.01))
        before = adaptable_params(net)
        rep = engine.adapt_step(stream[0].inputs)
        assert rep.selected.all()
        assert rep.updated is True
        assert not np.array_equal(adaptable_params(net), before)

    def test_empty_selection_skips_update(self):
        net, stream = small_setup()
        engine = AdaptEngine(net, MethodConfig(kind="seva", lr=0.01))
        engine.calibrate(np.concatenate([b.inputs for b in stream]))
        engine.threshold = -1.0  # nothing can be below a negative threshold
        before = adaptable_params(net)
        rep = engine.adapt_step(stream[0].inputs)
        assert rep.n_selected == 0
        assert rep.updated is False
        np.testing.assert_array_equal(adaptable_params(net), before)

    def test_seva_requires_calibration(self):
        net, stream = small_setup()
        engine = AdaptEngine(net, MethodConfig(kind="seva", lr=0.01))
        with pytest.raises(RuntimeError, match="calibration"):
            run_stream(engine, stream)

    def test_selection_matches_loss_threshold(self):
        net, stream = small_setup()
        engine = AdaptEngine(net, MethodConfig(kind="entropy_select", threshold_rho=0.8, lr=0.01))
        rep = engine.adapt_step(stream[0].inputs)
        np.testing.assert_array_equal(rep.selected, rep.losses < engine.threshold)

    def test_seva_descent_on_selected_mean_loss(self):
        net, stream = small_setup(seed=3)
        engine = AdaptEngine(net, MethodConfig(kind="seva", threshold_rho=10.0, lr=1e-3))
        engine.calibrate(np.concatenate([b.inputs for b in stream]))
        X = stream[0].inputs
        loss = AugmentedEntropyLoss(net.head, engine.sigma)
        loss_before = batch_loss(net, X, loss)
        rep = engine.adapt_step(X)
        assert rep.updated
        loss_after = batch_loss(net, X, loss)
        assert loss_after < loss_before

    def test_predictions_are_pre_update(self):
        net, stream = small_setup(seed=4)
        engine = AdaptEngine(net, MethodConfig(kind="tent", lr=0.5))
        before = adaptable_params(net).copy()
        X = stream[0].inputs
        rep = engine.adapt_step(X)
        # recompute predictions at the saved pre-step parameters
        after = adaptable_params(net).copy()
        set_adaptable_params(net, before)
        feats = forward_features_batch(net, X)
        expected = (feats @ net.head.weights.T + net.head.biases).argmax(axis=1)
        np.testing.assert_array_equal(rep.predicted, expected)
        set_adaptable_params(net, after)

    def test_empty_batch_rejected(self):
        net, _ = small_setup()
        engine = AdaptEngine(net, MethodConfig(kind="tent", lr=0.01))
        with pytest.raises(ValueError, match="empty batch"):
            engine.adapt_step(np.zeros((0, 6)))


    @pytest.mark.parametrize("kind", ["tent", "seva"])
    def test_single_vector_is_not_a_batch(self, kind):
        # the batch's shape is checked first: before its length is read, and
        # before an uncalibrated engine would report missing calibration
        net, stream = small_setup()
        for calibrated in (False, True):
            engine = AdaptEngine(net, MethodConfig(kind=kind, lr=0.01))
            if calibrated:
                engine.calibrate(np.concatenate([b.inputs for b in stream]))
            before = adaptable_params(net)
            for bad in (stream[0].inputs[0], np.float64(1.0)):
                with pytest.raises(DimensionMismatch):
                    engine.adapt_step(bad)
            np.testing.assert_array_equal(adaptable_params(net), before)
            assert engine.counters.n_forward == 0


# an input row: standard normal, one constant value throughout, zeros, or NaN
ROW_KINDS = ("normal", "constant", "zero", "nan")


class TestAdaptStepProperty:
    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(["tent", "seva"]),
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=40),
    )
    def test_reports_match_pre_step_head_and_loss(self, kind, seed, C, row_kinds):
        """Predictions and confidences are the argmax and max of the head's
        softmax at the pre-step parameters, and the losses are the loss
        object's values, bit for bit, whatever the rows hold."""
        rng = np.random.default_rng(seed)
        net = build_network(seed=seed, d_in=6, d=8, C=C, n_layers=2, groups=2)
        rows = {
            "normal": lambda: rng.standard_normal(6),
            "constant": lambda: np.full(6, rng.standard_normal()),
            "zero": lambda: np.zeros(6),
            "nan": lambda: np.full(6, np.nan),
        }
        X = np.stack([rows[k]() for k in row_kinds])
        engine = AdaptEngine(
            net,
            MethodConfig(kind=kind, threshold_rho=10.0, lr=0.5),
            sigma=DiagCovariance(rng.uniform(0.0, 1.5, 8)),
        )
        feats = forward_features_batch(net, X)
        probs = softmax_rows(feats @ net.head.weights.T + net.head.biases)
        losses = engine.loss.value_and_pullback(feats)[0]
        rep = engine.adapt_step(X)
        assert rep.predicted.tobytes() == probs.argmax(axis=1).tobytes()
        assert rep.confidence.tobytes() == probs.max(axis=1).tobytes()
        assert rep.losses.tobytes() == losses.tobytes()


class TestExplicitVa:
    def test_rounds_times_counters(self):
        net, stream = small_setup(seed=5)
        engine = AdaptEngine(net, MethodConfig(kind="explicit_va", rounds=3, threshold_rho=10.0, lr=0.01), seed=9)
        engine.calibrate(np.concatenate([b.inputs for b in stream]))
        calib_fwd = engine.counters.n_calibration_forward
        rep = engine.adapt_step(stream[0].inputs)
        n = stream[0].inputs.shape[0]
        assert rep.n_selected == n  # rho=10 selects everything here
        assert engine.counters.n_optimizer_steps == 3
        assert engine.counters.n_forward == n + 3 * n  # prediction pass + one per round
        assert engine.counters.n_backward == 3 * n
        assert calib_fwd == sum(b.inputs.shape[0] for b in stream)

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            net, stream = small_setup(seed=6)
            engine = AdaptEngine(net, MethodConfig(kind="explicit_va", rounds=2, threshold_rho=10.0, lr=0.05), seed=123)
            engine.calibrate(np.concatenate([b.inputs for b in stream]))
            trace = run_stream(engine, stream)
            results.append(adaptable_params(net))
        np.testing.assert_array_equal(results[0], results[1])

    def test_zero_sigma_rounds_match_repeated_entropy_steps(self):
        # with zero covariance the vicinal draws are the features themselves
        net, stream = small_setup(seed=7)
        engine = AdaptEngine(
            net,
            MethodConfig(kind="explicit_va", rounds=2, threshold_rho=10.0, lr=0.01),
            sigma=DiagCovariance.zeros(8),
            seed=1,
        )
        X = stream[0].inputs
        engine.adapt_step(X)
        got = adaptable_params(net).copy()

        net2, _ = small_setup(seed=7)
        velocity = np.zeros_like(net2.theta)
        for _ in range(2):
            g = grad_loss_wrt_adaptable(net2, X, EntropyLoss(net2.head))
            sgd_momentum_step(net2.theta, g, velocity, 0.01, 0.9)
        np.testing.assert_allclose(got, net2.theta, atol=1e-12)


class TestRunStream:
    def test_accuracy_is_pre_update_fraction(self):
        net, stream = small_setup(seed=8)
        engine = AdaptEngine(net, MethodConfig(kind="no_adapt", lr=1.0))
        trace = run_stream(engine, stream)
        # frozen model: accuracy equals direct evaluation of the same stream
        correct = 0
        total = 0
        for b in stream:
            feats = forward_features_batch(net, b.inputs)
            pred = (feats @ net.head.weights.T + net.head.biases).argmax(axis=1)
            correct += int((pred == b.labels).sum())
            total += len(b.labels)
        assert trace.accuracy == correct / total
        assert sum(map(len, trace.labels)) == total

    def test_identical_seeds_identical_traces(self):
        traces = []
        for _ in range(2):
            net, stream = small_setup(seed=9)
            engine = AdaptEngine(net, MethodConfig(kind="seva", lr=0.02), seed=5)
            engine.calibrate(np.concatenate([b.inputs for b in stream])[:16])
            traces.append(run_stream(engine, stream))
        a, b = traces
        np.testing.assert_array_equal(a.concat("losses"), b.concat("losses"))
        np.testing.assert_array_equal(a.concat("selected"), b.concat("selected"))
        np.testing.assert_array_equal(a.concat("predicted"), b.concat("predicted"))
        assert a.accuracy == b.accuracy

    def test_labels_never_reach_the_engine(self):
        # permuting labels changes metrics but not one bit of engine behavior
        net, stream = small_setup(seed=10)
        engine = AdaptEngine(net, MethodConfig(kind="tent", lr=0.05))
        trace = run_stream(engine, stream)

        net2, stream2 = small_setup(seed=10)
        shuffled = [Batch(b.inputs, np.roll(b.labels, 1)) for b in stream2]
        engine2 = AdaptEngine(net2, MethodConfig(kind="tent", lr=0.05))
        trace2 = run_stream(engine2, shuffled)

        np.testing.assert_array_equal(trace.concat("losses"), trace2.concat("losses"))
        np.testing.assert_array_equal(trace.concat("predicted"), trace2.concat("predicted"))
        np.testing.assert_array_equal(adaptable_params(net), adaptable_params(net2))
        assert trace.accuracy != trace2.accuracy  # metrics do see the labels

    def test_per_step_work_counters(self):
        # one gradient computation and one optimizer step per selected batch,
        # the same counts as tent; backward touches only selected samples
        net, stream = small_setup(seed=11)
        seva = AdaptEngine(net, MethodConfig(kind="seva", lr=0.01), seed=1)
        seva.calibrate(np.concatenate([b.inputs for b in stream])[:16])
        run_stream(seva, stream)

        net2, stream2 = small_setup(seed=11)
        tent = AdaptEngine(net2, MethodConfig(kind="tent", lr=0.01))
        run_stream(tent, stream2)

        n_total = sum(b.inputs.shape[0] for b in stream)
        assert tent.counters.n_forward == n_total
        assert tent.counters.n_backward == n_total
        assert seva.counters.n_forward == n_total
        assert seva.counters.n_backward <= tent.counters.n_backward
        assert seva.counters.n_optimizer_steps <= tent.counters.n_optimizer_steps

    @pytest.mark.parametrize("n_labels", [1, 7])
    def test_a_batch_carries_one_label_per_input(self, n_labels):
        # accuracy pairs predictions and labels across the whole stream, so a
        # short batch would shift every later pair (or broadcast, with one label)
        net, stream = small_setup(seed=34)
        stream[2] = Batch(stream[2].inputs, stream[2].labels[:n_labels])
        stream[3] = Batch(stream[3].inputs, np.concatenate([stream[3].labels, [0] * (8 - n_labels)]))
        engine = AdaptEngine(net, MethodConfig(kind="no_adapt"))
        with pytest.raises(ValueError, match=rf"step 2: \({n_labels},\) labels for 8 inputs"):
            run_stream(engine, stream)
        assert engine.counters.n_forward == 3 * 8

    @pytest.mark.parametrize("kind", ["no_adapt", "tent"])
    def test_a_loader_that_refills_its_buffers_is_read_as_it_arrives(self, kind):
        # each batch is stepped and its labels kept before the next refill
        net, stream = small_setup(seed=33)

        def refilled():
            inputs, labels = np.empty_like(stream[0].inputs), np.empty_like(stream[0].labels)
            for b in stream:
                inputs[...], labels[...] = b.inputs, b.labels
                yield Batch(inputs, labels)

        method = MethodConfig(kind=kind, lr=0.05)
        listed = run_stream(AdaptEngine(copy.deepcopy(net), method), stream)
        loaded = run_stream(AdaptEngine(copy.deepcopy(net), method), refilled())
        assert [report_bytes(r) for r in loaded.steps] == [report_bytes(r) for r in listed.steps]
        assert [y.tobytes() for y in loaded.labels] == [y.tobytes() for y in listed.labels]
        assert loaded.accuracy == listed.accuracy


class TestParameterSnapshots:
    """The protocol a caller that checks an engine's steps relies on: a
    snapshot ``adaptable_params(engine.net)`` is a copy of ``theta`` that
    later steps leave alone, and writing it into a copy of the network
    reproduces that step's pre-update features bit for bit."""

    def test_snapshots_replay_each_steps_pre_update_features(self, monkeypatch):
        net, stream = small_setup(seed=30)
        engine = AdaptEngine(net, MethodConfig(kind="seva", threshold_rho=10.0, lr=0.05), seed=4)
        engine.calibrate(np.concatenate([b.inputs for b in stream]))
        forward = seva.adapt.forward_with_caches
        seen = []

        def spy(*args):
            feats, caches = forward(*args)
            seen.append(feats.copy())
            return feats, caches

        monkeypatch.setattr(seva.adapt, "forward_with_caches", spy)
        snapshots, features = [], []
        for k, batch in enumerate(stream):
            snap = adaptable_params(engine.net)
            assert snap.tobytes() == engine.net.theta.tobytes()
            assert not np.shares_memory(snap, engine.net.theta)
            snapshots.append((snap, snap.copy()))
            seen.clear()
            assert engine.adapt_step(batch.inputs).updated
            features.append(seen[0])
        assert engine.counters.n_optimizer_steps == len(stream)
        for (snap, frozen), batch, feats in zip(snapshots, stream, features):
            assert snap.tobytes() == frozen.tobytes()  # later steps left it alone
            replay = copy.deepcopy(engine.net)
            set_adaptable_params(replay, snap)
            assert forward_features_batch(replay, batch.inputs).tobytes() == feats.tobytes()
        assert not np.array_equal(snapshots[0][0], engine.net.theta)

    def test_run_cell_leaves_the_built_theta_untouched(self):
        cfg = resolve_config(DIGEST_GRID)
        built = build_world_and_model(cfg)
        theta = built[1].theta
        before = theta.copy()
        stream = build_stream(cfg, built[0], 0)
        steps = {name: run_cell(cfg, built, stream, name, method, 0).counters["n_optimizer_steps"]
                 for name, method in cfg.methods()}
        assert all(n > 0 for name, n in steps.items() if name != "no_adapt")
        assert built[1].theta is theta
        assert theta.tobytes() == before.tobytes()


class TestNonFiniteGradient:
    """A non-finite gradient skips its optimizer step: parameters, momentum
    and the step counter stay as they were, and the skip is counted. A
    non-finite sample that is not selected does not reach the gradient at
    all."""

    @pytest.mark.parametrize("kind", ["tent", "entropy_select", "seva"])
    def test_one_nan_input_leaves_the_network_finite(self, kind):
        net, _ = small_setup(seed=12)
        rng = np.random.default_rng(13)
        stream = [Batch(rng.standard_normal((8, 6)), rng.integers(0, 4, 8)) for _ in range(20)]
        stream[3].inputs[5, 2] = np.nan
        engine = AdaptEngine(net, MethodConfig(kind=kind, threshold_rho=10.0, lr=0.05), seed=1)
        if engine.method.needs_sigma:
            engine.calibrate(np.concatenate([b.inputs for b in stream[:3]]))
        reports = [engine.adapt_step(b.inputs) for b in stream[:3]]
        params, velocity = adaptable_params(net), engine.velocity.copy()
        steps = engine.counters.n_optimizer_steps
        reports.append(engine.adapt_step(stream[3].inputs))
        assert np.isnan(reports[3].losses[5])
        if kind == "tent":
            # tent selects the NaN sample, so the batch gradient is NaN: skipped
            assert reports[3].updated is False
            np.testing.assert_array_equal(adaptable_params(net), params)
            np.testing.assert_array_equal(engine.velocity, velocity)
            assert engine.counters.n_optimizer_steps == steps
            assert engine.counters.n_skipped_steps == 1
        else:
            # a NaN loss is never below the threshold: the 7 finite samples train
            assert reports[3].selected.tolist() == [True] * 5 + [False] + [True] * 2
            assert reports[3].updated is True
            assert engine.counters.n_optimizer_steps == steps + 1
        reports += [engine.adapt_step(b.inputs) for b in stream[4:]]
        assert all(r.updated for i, r in enumerate(reports) if i != 3)
        assert engine.counters.n_optimizer_steps == (19 if kind == "tent" else 20)
        assert engine.counters.n_skipped_steps == (1 if kind == "tent" else 0)
        assert np.isfinite(adaptable_params(net)).all()
        assert all(np.isfinite(r.losses).all() for r in reports[4:])

    def test_every_vicinal_round_is_guarded(self, monkeypatch):
        import seva.adapt

        backward = seva.adapt.backward_adaptable
        calls = []

        def nan_on_second_round(*args):
            calls.append(None)
            grads = backward(*args)
            return grads * np.nan if len(calls) == 2 else grads

        monkeypatch.setattr(seva.adapt, "backward_adaptable", nan_on_second_round)
        net, stream = small_setup(seed=14)
        engine = AdaptEngine(net, MethodConfig(kind="explicit_va", rounds=3, threshold_rho=10.0, lr=0.01), seed=2)
        engine.calibrate(np.concatenate([b.inputs for b in stream]))
        rep = engine.adapt_step(stream[0].inputs)
        assert len(calls) == 3
        assert rep.updated is True
        assert engine.counters.n_optimizer_steps == 2
        assert engine.counters.n_skipped_steps == 1
        assert np.isfinite(adaptable_params(net)).all()
        assert np.isfinite(engine.velocity).all()


class TestConfusingFamilyMonotonicity:
    def test_loss_increases_with_prototype_distance_and_flips_once(self):
        # p stays [1/2, 1/2] along the sweep; the loss rises with the pair
        # quadratic form while entropy stays constant; the selection decision
        # flips exactly once
        sigma = DiagCovariance(np.array([0.5, 0.5]))
        rho = 1.2
        threshold = threshold_default(2, rho)
        z = np.array([0.0, 1.0])
        laes = []
        deltas = np.linspace(0.0, 4.0, 41)
        for delta in deltas:
            head = ClassifierHead(np.array([[delta / 2, 0.0], [-delta / 2, 0.0]]), np.zeros(2))
            h = entropy(softmax(head.weights @ z + head.biases))
            assert abs(h - math.log(2)) <= 1e-9
            lae = augmented_entropy(head, z, sigma)
            laes.append(lae)
        decisions = selected(laes, threshold)
        laes = np.array(laes)
        assert (np.diff(laes) > 0).all()  # strictly increasing in the quadratic form
        flips = sum(1 for a, b in zip(decisions, decisions[1:]) if a != b)
        assert flips == 1
        assert decisions[0] is True and decisions[-1] is False


CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


def report_bytes(report):
    """Every StepReport field but the wall time, comparable by equality."""
    return {
        name: value.tobytes() if isinstance(value, np.ndarray) else value
        for name, value in vars(report).items()
        if name != "step_wall_time"
    }


class TestLookAhead:
    """Scoring runs of batches as one block while the parameters are fixed
    gives the bits, reports and counters of batch-by-batch steps."""

    @pytest.mark.parametrize("config", ["committed_scenario.json", "example_run.json"])
    def test_whole_stream_block_matches_batch_by_batch_bits(self, config):
        # a stack of batches gets each batch's own bits because numpy's matmul
        # takes a stack slice by slice; were a stack fused into one product,
        # BLAS could round a row differently with the row count (at inner
        # sizes >= 32 and for 1-row batches, which the next test covers)
        cfg = load_config(CONFIGS_DIR / config)
        world, net, _ = build_world_and_model(cfg)
        X = np.stack([b.inputs for b in build_stream(cfg, world, cfg.seeds[0])])
        X[0, 5] = np.nan
        X[1, 8] = 0.25  # a constant row: zero variance in every group
        sigma = calibrate_covariance(net, X[1:].reshape(-1, net.d_in)[: cfg.calibration_samples], 1.5)  # past the NaN row
        feats = forward_features_batch(net, X)
        per_batch = np.stack([forward_features_batch(net, batch) for batch in X])
        assert feats.tobytes() == per_batch.tobytes()
        for loss in (EntropyLoss(net.head), AugmentedEntropyLoss(net.head, sigma)):
            with np.errstate(invalid="ignore"):
                block = loss.value_and_pullback(feats)
                parts = [loss.value_and_pullback(f) for f in per_batch]
            for k in (0, 2):  # losses, probabilities
                assert block[k].tobytes() == np.stack([p[k] for p in parts]).tobytes()
            assert np.isnan(block[0][0, 5]) and np.isfinite(np.delete(block[0], 5)).all()
        # and for starting the block's forward from its batches' stems
        with np.errstate(invalid="ignore"):
            stem = forward_stem(net, X)
        assert forward_features_batch(net, X, stem).tobytes() == feats.tobytes()

    @pytest.mark.parametrize("kind", ["no_adapt", "seva"])
    @pytest.mark.parametrize(
        "d, B, C, groups",
        [(32, 32, 10, 4), (33, 32, 10, 3), (16, 1, 10, 4), (64, 64, 100, 8)],
        ids=["d32", "d33", "1-row", "wide"],
    )
    def test_run_stream_matches_plain_steps_at_every_shape(self, d, B, C, groups, kind):
        # inner sizes >= 32 and 1-row batches are where BLAS rounds a row
        # differently with the row count; blocks of up to 16 batches are scored
        net = build_network(seed=30, d_in=d, d=d, C=C, n_layers=2, groups=groups)
        stream = stream_of([B] * 40, seed=31, d_in=d)
        method = MethodConfig(kind=kind, threshold_rho=0.01)  # seva selects nothing
        ahead, plain = AdaptEngine(copy.deepcopy(net), method), AdaptEngine(copy.deepcopy(net), method)
        if method.needs_sigma:
            for e in (ahead, plain):
                e.calibrate(stream_of([64], seed=32, d_in=d)[0].inputs)
        trace = run_stream(ahead, stream)
        reports = [plain.adapt_step(b.inputs) for b in stream]
        assert not any(r.n_selected for r in reports)
        assert [report_bytes(r) for r in trace.steps] == [report_bytes(r) for r in reports]
        assert ahead.counters == plain.counters
        assert adaptable_params(ahead.net).tobytes() == adaptable_params(plain.net).tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_run_stream_matches_plain_steps_for_every_kind(self, monkeypatch, seed):
        cfg = resolve_config(DIGEST_GRID)
        built = build_world_and_model(cfg)
        stream = build_stream(cfg, built[0], seed)
        forwards = spy_forwards(monkeypatch)

        def engine(name, method):
            e = AdaptEngine(copy.deepcopy(built[1]), method, seed=derive_seed(cfg.master_seed, "engine", seed, name))
            if method.needs_sigma:
                e.calibrate(np.concatenate([b.inputs for b in stream])[: cfg.calibration_samples])
            return e

        assert {method.kind for _, method in cfg.methods()} == set(RECIPES)
        block_rows, forward_rows = {}, {}
        for name, method in cfg.methods():
            ahead, plain = engine(name, method), engine(name, method)
            forwards.clear()
            trace = run_stream(ahead, stream)
            assert any(from_stem for _, _, from_stem in forwards)  # every kind runs forwards from stems
            block_rows[name] = sum(rows for fn, rows, _ in forwards if fn == "forward_features_batch")
            forward_rows[name] = sum(rows for _, rows, _ in forwards)
            forwards.clear()
            reports = [plain.adapt_step(b.inputs) for b in stream]
            assert forwards and not any(from_stem for _, _, from_stem in forwards)
            assert all(fn == "forward_with_caches" for fn, _, _ in forwards)  # no plan, no block
            assert [report_bytes(r) for r in trace.steps] == [report_bytes(r) for r in reports]
            assert ahead.counters == plain.counters
            assert adaptable_params(ahead.net).tobytes() == adaptable_params(plain.net).tobytes()
        # the frozen method is served from blocks; entropy_select also updates
        # on served batches, recomputing their forward pass, so it forwards
        # more rows than it reports
        assert block_rows["no_adapt"] > 0
        assert block_rows["es"] > 0 and forward_rows["es"] > sum(len(b.inputs) for b in stream)

    def test_never_updating_stream_scores_blocks_of_2_8_and_the_rest(self, monkeypatch):
        net, _ = small_setup(seed=15)
        rng = np.random.default_rng(16)
        stream = [Batch(rng.standard_normal((4, 6)), np.zeros(4, dtype=int)) for _ in range(100)]
        forwards = spy_forwards(monkeypatch)
        engine = AdaptEngine(net, MethodConfig(kind="no_adapt"))
        run_stream(engine, stream)
        # blocks of 2, 8 and 89 batches of 4 rows, in chunks of at most 256 rows
        assert [rows for fn, rows, _ in forwards if fn == "forward_features_batch"] == [8, 32, 256, 100]
        assert engine.counters.n_forward == 400

    def test_other_input_drops_the_look_ahead(self, monkeypatch):
        net, stream = small_setup(seed=17)
        method = MethodConfig(kind="entropy_select", threshold_rho=0.01, lr=0.05)  # selects nothing
        engine = AdaptEngine(copy.deepcopy(net), method)
        fresh = AdaptEngine(copy.deepcopy(net), method)
        engine.replay([b.inputs for b in stream[:5]])
        forwards = spy_forwards(monkeypatch)
        # the second step scores a block of batches 1 and 2; batch 2 arrives as
        # a copy (equal, not the same object), which ends the plan, so batch 2
        # itself is not on it either
        inputs = [stream[0].inputs, stream[1].inputs, stream[2].inputs.copy(), stream[2].inputs, stream[3].inputs]
        got = [engine.adapt_step(x) for x in inputs]
        assert forwards == [
            ("forward_with_caches", 8, True),
            ("forward_features_batch", 16, True),
            ("forward_with_caches", 8, False),  # the block's score of batch 2 is not served
            ("forward_with_caches", 8, False),
            ("forward_with_caches", 8, False),  # nor is any stem held
        ]
        want = [fresh.adapt_step(x) for x in inputs]
        assert [report_bytes(r) for r in got] == [report_bytes(r) for r in want]
        assert engine.counters == fresh.counters

    def test_calibrate_between_plan_steps_drops_the_scores(self, monkeypatch):
        # a block scored under the old covariance is not served under the new
        net, stream = small_setup(seed=28)
        X = np.concatenate([b.inputs for b in stream])
        method = MethodConfig(kind="seva", threshold_rho=0.01, lr=0.05)  # selects nothing
        engine, plain, stale = (AdaptEngine(copy.deepcopy(net), method) for _ in range(3))
        for e in (engine, plain, stale):
            e.calibrate(X[:16])
        engine.replay([b.inputs for b in stream])
        forwards = spy_forwards(monkeypatch)
        got = [engine.adapt_step(b.inputs) for b in stream[:2]]
        engine.calibrate(X[16:])
        got += [engine.adapt_step(b.inputs) for b in stream[2:]]
        # step 1 scores batches 1-2; after the calibration, step 2 scores 2-5
        assert forwards == [
            ("forward_with_caches", 8, True),
            ("forward_features_batch", 16, True),
            ("forward_features_batch", 32, True),
        ]
        want = [plain.adapt_step(b.inputs) for b in stream[:2]]
        plain.calibrate(X[16:])
        want += [plain.adapt_step(b.inputs) for b in stream[2:]]
        assert [report_bytes(r) for r in got] == [report_bytes(r) for r in want]
        assert engine.counters == plain.counters
        stale_losses = [stale.adapt_step(b.inputs).losses for b in stream][2]
        assert stale_losses.tobytes() != got[2].losses.tobytes()  # the old scores would show

    @pytest.mark.parametrize("bad", [np.zeros((8, 5)), np.zeros(6), np.zeros((0, 6))], ids=["width", "1d", "empty"])
    def test_a_malformed_batch_fails_at_its_own_step(self, bad):
        # the batches before it are scored and counted, as without look-ahead
        net, stream = small_setup(seed=18)
        stream = stream + [Batch(bad, np.zeros(len(bad), dtype=int))] + stream
        engine = AdaptEngine(net, MethodConfig(kind="no_adapt"))
        with pytest.raises(DimensionMismatch if bad.size else ValueError, match=r"\(8, 5\)|\(6,\)|empty batch"):
            run_stream(engine, stream)
        assert engine.counters.n_forward == 6 * 8

    def test_adapt_step_signature_is_fixed(self):
        # the benchmark wraps it in a pass-through shaped record(report, engine, inputs)
        signature = inspect.signature(AdaptEngine.adapt_step)
        assert str(signature.replace(return_annotation=inspect.Signature.empty)) == "(self, inputs)"


def spy_forwards(monkeypatch):
    """(function name, rows, whether handed a stem) of every forward pass on
    the engine's path, in call order."""
    calls = []
    for name in ("forward_with_caches", "forward_features_batch"):

        def spied(net, X, stem=None, _name=name, _forward=getattr(seva.adapt, name)):
            calls.append((_name, math.prod(X.shape[:-1]), stem is not None))  # rows, of a batch or a stack
            return _forward(net, X, stem)

        monkeypatch.setattr(seva.adapt, name, spied)
    return calls


def stream_of(sizes, seed=20, d_in=6):
    rng = np.random.default_rng(seed)
    return [Batch(rng.standard_normal((n, d_in)), np.zeros(n, dtype=int)) for n in sizes]


class TestStemWindow:
    """A replay plan's first forward computes the stems of every plan batch,
    once, and every forward on the plan starts from them, with the bits of
    forwards from the inputs. A stream that is not a sequence makes no plan."""

    @pytest.fixture
    def stem_rows(self, monkeypatch):
        """Rows of every forward_stem call on the engine's path."""
        rows = []
        stem = seva.adapt.forward_stem

        def counted(net, X):
            rows.append(math.prod(X.shape[:-1]))  # rows of the stack
            return stem(net, X)

        monkeypatch.setattr(seva.adapt, "forward_stem", counted)
        return rows

    @pytest.mark.parametrize("n_layers", [0, 1, 3])
    @pytest.mark.parametrize("kind", ["tent", "entropy_select", "no_adapt"])
    def test_run_stream_matches_plain_steps_at_any_depth(self, stem_rows, n_layers, kind):
        net = build_network(seed=21, d_in=6, d=6, C=4, n_layers=n_layers, groups=2)
        stream = stream_of([8] * 30)
        method = MethodConfig(kind=kind, threshold_rho=0.9, lr=0.05)
        ahead, plain = AdaptEngine(copy.deepcopy(net), method), AdaptEngine(copy.deepcopy(net), method)
        trace = run_stream(ahead, stream)
        reports = [plain.adapt_step(b.inputs) for b in stream]
        assert [report_bytes(r) for r in trace.steps] == [report_bytes(r) for r in reports]
        assert ahead.counters == plain.counters
        assert adaptable_params(ahead.net).tobytes() == adaptable_params(plain.net).tobytes()
        assert stem_rows == ([] if n_layers == 0 else [240])  # every plan batch's stem, once

    def test_a_plan_spans_updates_and_keeps_its_stems(self, monkeypatch, stem_rows):
        # updates at steps 1, 2 and 5; steps 1, 4 and 5 are served from blocks
        thresholds = (0.0, math.inf, math.inf, 0.0, 0.0, math.inf)
        net, stream = small_setup(seed=19)
        method = MethodConfig(kind="entropy_select", lr=0.05)
        engine, plain = AdaptEngine(copy.deepcopy(net), method), AdaptEngine(copy.deepcopy(net), method)
        engine.replay([b.inputs for b in stream])
        forwards = spy_forwards(monkeypatch)
        got, want = [], []
        for threshold, batch in zip(thresholds, stream):
            engine.threshold = plain.threshold = threshold
            got.append(engine.adapt_step(batch.inputs))
        assert [r.updated for r in got] == [t == math.inf for t in thresholds]
        assert stem_rows == [48]  # computed once, by the first step, for the whole stream
        assert [(fn, from_stem) for fn, _, from_stem in forwards] == [
            ("forward_with_caches", True),
            ("forward_features_batch", True),  # a block of batches 1 and 2
            ("forward_with_caches", True),  # batch 1 selects: its forward again, for the update
            ("forward_with_caches", True),  # the update dropped the block's score of batch 2
            ("forward_with_caches", True),
            ("forward_features_batch", True),  # a block of batches 4 and 5
            ("forward_with_caches", True),  # batch 5 selects
        ]
        forwards.clear()
        for threshold, batch in zip(thresholds, stream):
            plain.threshold = threshold
            want.append(plain.adapt_step(batch.inputs))
        assert [report_bytes(r) for r in got] == [report_bytes(r) for r in want]
        assert adaptable_params(engine.net).tobytes() == adaptable_params(plain.net).tobytes()

    def test_an_iterator_makes_no_plan(self, monkeypatch, stem_rows):
        # run_stream(engine, iter(stream)) is the causal pass: no batch
        # reaches the engine before its own step, and the bits are the same
        cfg = resolve_config(DIGEST_GRID)
        world, net, _ = build_world_and_model(cfg)
        stream = build_stream(cfg, world, 0)
        forwards = spy_forwards(monkeypatch)
        for name, method in cfg.methods():
            ahead, causal = (
                AdaptEngine(copy.deepcopy(net), method, seed=derive_seed(cfg.master_seed, "engine", 0, name))
                for _ in range(2)
            )
            if method.needs_sigma:
                for e in (ahead, causal):
                    e.calibrate(np.concatenate([b.inputs for b in stream])[: cfg.calibration_samples])
            planned = run_stream(ahead, stream)
            assert stem_rows
            forwards.clear()
            stem_rows.clear()
            trace = run_stream(causal, iter(stream))
            assert stem_rows == []
            assert forwards and all(fn == "forward_with_caches" and not from_stem for fn, _, from_stem in forwards)
            assert [report_bytes(r) for r in trace.steps] == [report_bytes(r) for r in planned.steps]
            assert causal.counters == ahead.counters
            assert adaptable_params(causal.net).tobytes() == adaptable_params(ahead.net).tobytes()

    def test_served_steps_compute_no_stem(self, monkeypatch, stem_rows):
        thresholds = (0.0,) * 5 + (math.inf,) * 3  # selects nothing, then everything
        net, _ = small_setup(seed=27)
        stream = stream_of([8] * 8)
        method = MethodConfig(kind="entropy_select", lr=0.05)
        engine, plain = AdaptEngine(copy.deepcopy(net), method), AdaptEngine(copy.deepcopy(net), method)
        engine.replay([b.inputs for b in stream])
        forwards = spy_forwards(monkeypatch)
        got, rows_after = [], []
        for threshold, batch in zip(thresholds, stream):
            engine.threshold = threshold
            got.append(engine.adapt_step(batch.inputs))
            rows_after.append(list(stem_rows))
        # step 0 computes the stems of all 8 batches; steps 2 and 4 are served
        # and select nothing, so they run no forward; step 5 is served and
        # selects, so it runs its forward again, from its stem
        assert rows_after == [[64]] * 8
        assert [fn for fn, _, _ in forwards] == ["forward_with_caches"] + ["forward_features_batch"] * 2 + [
            "forward_with_caches"
        ] * 3
        assert all(from_stem for _, _, from_stem in forwards)
        assert [r.updated for r in got] == [False] * 5 + [True] * 3
        want = []
        for threshold, batch in zip(thresholds, stream):
            plain.threshold = threshold
            want.append(plain.adapt_step(batch.inputs))
        assert [report_bytes(r) for r in got] == [report_bytes(r) for r in want]
        assert adaptable_params(engine.net).tobytes() == adaptable_params(plain.net).tobytes()

    def test_other_input_drops_the_plan_stems(self, monkeypatch, stem_rows):
        net, stream = small_setup(seed=22)
        method = MethodConfig(kind="tent", lr=0.05)
        engine, fresh = AdaptEngine(copy.deepcopy(net), method), AdaptEngine(copy.deepcopy(net), method)
        engine.replay([b.inputs for b in stream[:4]])
        forwards = spy_forwards(monkeypatch)
        # a copy of batch 1 (equal, not the same object) ends the plan
        inputs = [stream[0].inputs, stream[1].inputs.copy(), stream[1].inputs, stream[2].inputs]
        got = [engine.adapt_step(x) for x in inputs]
        assert stem_rows == [32]
        assert [from_stem for _, _, from_stem in forwards] == [True, False, False, False]  # dropped by the copy
        want = [fresh.adapt_step(x) for x in inputs]
        assert [report_bytes(r) for r in got] == [report_bytes(r) for r in want]
        assert engine.counters == fresh.counters

    @pytest.mark.parametrize(
        "bad",
        [np.zeros((8, 5)), np.zeros(6), np.zeros((0, 6)), np.full((8, 6), "x")],
        ids=["width", "1d", "empty", "text"],
    )
    def test_a_malformed_batch_in_a_plan_fails_at_its_own_step(self, stem_rows, bad):
        net, stream = small_setup(seed=23)
        stream = stream + [Batch(bad, np.zeros(len(bad), dtype=int))] + stream
        engine = AdaptEngine(net, MethodConfig(kind="tent", lr=0.05))
        match = r"\(8, 5\)|\(6,\)|empty batch|could not convert"
        with pytest.raises(DimensionMismatch if bad.size and bad.dtype.kind == "f" else ValueError, match=match):
            run_stream(engine, stream)
        assert engine.counters.n_forward == 6 * 8
        # the plan ends before a batch that is not a numeric array of its shape
        assert stem_rows == [48]

    def test_no_stem_outlives_its_plan(self, monkeypatch):
        # every stem a forward gets is a slice of one of the plan's two
        # stem arrays, so a weak reference to its base shows when the engine
        # lets them go
        bases = {}
        for name in ("forward_with_caches", "forward_features_batch"):

            def spied(net, X, stem=None, _forward=getattr(seva.adapt, name)):
                for part in stem or ():
                    bases.setdefault(id(part.base), weakref.ref(part.base))
                return _forward(net, X, stem)

            monkeypatch.setattr(seva.adapt, name, spied)

        def released():
            return len(bases) == 2 and all(ref() is None for ref in bases.values())

        net, _ = small_setup(seed=24)
        # the plan is the first 24 batches; the rest step off it, causally
        stream = stream_of([8] * 24 + [5, 13, 40, 1, 60, 7, 7, 30])
        method = MethodConfig(kind="tent", lr=0.05)
        engine = AdaptEngine(copy.deepcopy(net), method)
        trace = run_stream(engine, stream)
        assert released()  # by the end of the stream, though the engine lives on
        plain = AdaptEngine(copy.deepcopy(net), method)
        assert [report_bytes(r) for r in trace.steps] == [report_bytes(plain.adapt_step(b.inputs)) for b in stream]

        bases.clear()
        engine.replay([b.inputs for b in stream])
        engine.adapt_step(stream[0].inputs)
        assert len(bases) == 2 and not released()  # held while the plan lasts
        engine.adapt_step(stream[1].inputs.copy())
        assert released()  # by an off-plan input

        bases.clear()
        engine.replay([stream[0].inputs])
        engine.adapt_step(stream[0].inputs)
        assert len(bases) == 2 and not released()  # held at the plan's last batch
        engine.adapt_step(stream[1].inputs)
        assert released()  # by an input past the plan's end

        bases.clear()
        with pytest.raises(DimensionMismatch):
            run_stream(engine, stream[:3] + [Batch(np.zeros(6), np.zeros(1))])
        assert released()  # by a stream that fails

    def test_the_committed_stream_computes_its_stems_once_at_step_0(self, monkeypatch, stem_rows):
        cfg = load_config(CONFIGS_DIR / "committed_scenario.json")
        world, net, _ = build_world_and_model(cfg)
        stream = build_stream(cfg, world, cfg.seeds[0])
        calls_after = []
        step = AdaptEngine.adapt_step

        def counted(engine, inputs):
            report = step(engine, inputs)
            calls_after.append(len(stem_rows))
            return report

        monkeypatch.setattr(AdaptEngine, "adapt_step", counted)
        run_stream(AdaptEngine(net, dict(cfg.methods())["tent"]), stream)
        assert [len(b.inputs) for b in stream] == [32] * 100
        assert stem_rows == [256] * 12 + [128]  # 100 batches of 32, in chunks of 8
        assert calls_after == [13] * 100

    def test_stem_work_is_charged_to_the_step_that_does_it(self, monkeypatch):
        # a fake clock that only stem work advances
        clock = [0.0]
        monkeypatch.setattr(seva.adapt, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        stem = seva.adapt.forward_stem

        def slow(net, X):
            clock[0] += 1.0
            return stem(net, X)

        monkeypatch.setattr(seva.adapt, "forward_stem", slow)
        net, _ = small_setup(seed=26)
        trace = run_stream(AdaptEngine(net, MethodConfig(kind="tent", lr=0.05)), stream_of([8] * 40))
        walls = [r.step_wall_time for r in trace.steps]
        assert walls == [2.0] + [0.0] * 39  # 320 rows: chunks of 256 and 64, both at step 0
        assert trace.wall_time == sum(walls) == clock[0]

    def test_plan_stems_stay_near_their_own_size_at_a_wide_shape(self):
        # the plan's stems hold (c + groups) floats per row until it ends;
        # computing them in chunks keeps the pass's temporaries small, where
        # one unchunked forward_stem call would hold the whole stream's
        # first-layer products beside them
        B, n_batches, d, groups = 64, 300, 64, 8
        net = build_network(seed=29, d_in=d, d=d, C=100, n_layers=2, groups=groups)
        stream = stream_of([B] * n_batches, d_in=d)
        stem_bytes = B * n_batches * (d + groups) * 8  # 10.5 MiB
        tracemalloc.start()
        try:
            run_stream(AdaptEngine(net, MethodConfig(kind="tent", lr=0.01)), stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stem_bytes <= peak < stem_bytes + 4 * 2**20
