"""Network forward/backward: group statistics, determinism, gradients, calibration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import seva.adapt
from seva.adapt import AdaptEngine, MethodConfig
from seva.core_math import AugmentedEntropyLoss, DiagCovariance, DimensionMismatch, EntropyLoss, softmax_rows
from seva.model import (
    NORM_EPS,
    LayerCache,
    adaptable_params,
    backward_adaptable,
    build_network,
    calibrate_covariance,
    forward_features_batch,
    forward_stem,
    forward_with_caches,
    set_adaptable_params,
)
from model_helpers import adaptable_layout, batch_loss, grad_loss_wrt_adaptable, layer_affines, network_spec


def feature(net, x):
    """The feature of one input, as row 0 of a batch of one."""
    return forward_features_batch(net, np.asarray(x)[None, :])[0]


def probs(net, X):
    """Class probabilities of an (n, d_in) input batch."""
    return softmax_rows(forward_features_batch(net, X) @ net.head.weights.T + net.head.biases)


def reference_forward(net, x):
    """Loop-based re-implementation of the forward pass (independent route)."""
    v = np.asarray(x, dtype=np.float64)
    for layer, (gamma, beta) in zip(net.layers, layer_affines(net)):
        h = np.array([float(layer.weight[i] @ v) for i in range(layer.channels)])
        c = layer.channels
        size = c // layer.groups
        out = np.empty(c)
        for g in range(layer.groups):
            sl = slice(g * size, (g + 1) * size)
            mean = sum(h[sl]) / size
            var = sum((h[sl] - mean) ** 2) / size
            out[sl] = (h[sl] - mean) / np.sqrt(var + NORM_EPS)
        v = np.tanh(gamma * out + beta)
    return v


# golden feature vector for build_network(seed=2024, d_in=6, d=8, C=4,
# n_layers=2, groups=2) at x = [0.5, -1, 0.25, 0, 1, -0.5], recorded from
# reference_forward before the vectorized path existed
GOLDEN_X = np.array([0.5, -1.0, 0.25, 0.0, 1.0, -0.5])
GOLDEN_FEATURE = np.array(
    [
        -0.9150595832966113,
        0.40570920767101504,
        0.8265151999619075,
        -0.04968389576228698,
        -0.8984764195350479,
        0.8635502052328715,
        -0.17797372033184977,
        0.3248021471513692,
    ]
)


@pytest.fixture
def net():
    return build_network(seed=2024, d_in=6, d=8, C=4, n_layers=2, groups=2)


class TestBuild:
    def test_same_seed_identical(self, net):
        other = build_network(seed=2024, d_in=6, d=8, C=4, n_layers=2, groups=2)
        for a, b in zip(net.layers, other.layers):
            np.testing.assert_array_equal(a.weight, b.weight)
        np.testing.assert_array_equal(net.head.weights, other.head.weights)

    def test_different_seed_differs(self, net):
        other = build_network(seed=2025, d_in=6, d=8, C=4, n_layers=2, groups=2)
        assert not np.array_equal(net.layers[0].weight, other.layers[0].weight)

    def test_identity_extractor(self):
        ident = build_network(seed=1, d_in=5, d=5, C=3, n_layers=0, groups=1)
        x = np.array([0.1, -2.0, 3.0, 0.0, 1.0])
        np.testing.assert_array_equal(feature(ident, x), x)

    def test_identity_needs_matching_dims(self):
        with pytest.raises(ValueError, match="d_in == d"):
            build_network(seed=1, d_in=5, d=8, C=3, n_layers=0, groups=1)

    def test_negative_depth_rejected(self):
        # d_in == d, so only the depth is wrong
        with pytest.raises(ValueError, match="n_layers"):
            build_network(seed=1, d_in=8, d=8, C=3, n_layers=-1, groups=2)

    def test_groups_must_divide_channels(self):
        with pytest.raises(ValueError, match="does not divide"):
            build_network(seed=1, d_in=4, d=6, C=3, n_layers=1, groups=4)

    def test_initial_affine_is_identity(self, net):
        assert net.theta.shape == (32,)
        for gamma, beta in layer_affines(net):
            np.testing.assert_array_equal(gamma, np.ones(8))
            np.testing.assert_array_equal(beta, np.zeros(8))

    def test_spec_round_trip(self, net):
        spec = network_spec(net)
        rebuilt = build_network(
            seed=spec["seed"],
            d_in=spec["d_in"],
            d=spec["feature_dim"],
            C=spec["n_classes"],
            n_layers=spec["n_layers"],
            groups=spec["groups"],
            activation=spec["activation"],
        )
        x = np.linspace(-1, 1, 6)
        np.testing.assert_array_equal(feature(net, x), feature(rebuilt, x))


class TestForward:
    def test_group_stats_are_normalized(self, net):
        x = np.array([0.3, -0.5, 1.0, 2.0, -1.0, 0.1])
        _, caches = forward_with_caches(net, x[None, :])
        normalized = caches[0].normalized[0].reshape(2, 4)
        np.testing.assert_allclose(normalized.mean(axis=1), 0.0, atol=1e-12)
        # variance of normalized values is var/(var+eps), just below 1
        assert (normalized.var(axis=1) <= 1.0 + 1e-12).all()
        assert (normalized.var(axis=1) >= 0.99).all()

    def test_matches_reference_forward(self, net):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(6) * 2
            np.testing.assert_allclose(
                feature(net, x), reference_forward(net, x), atol=1e-12
            )

    def test_golden_vector(self, net):
        np.testing.assert_allclose(feature(net, GOLDEN_X), GOLDEN_FEATURE, atol=1e-12)

    def test_zero_input_with_beta_path(self, net):
        # W @ 0 = 0, a constant group normalizes to 0, so the first block
        # emits tanh(beta); the reference loop confirms the composition
        beta = np.linspace(-0.5, 0.5, 8)
        layer_affines(net)[0][1][:] = beta
        x = np.zeros(6)
        feats = feature(net, x)
        np.testing.assert_allclose(feats, reference_forward(net, x), atol=1e-12)
        first_block = np.tanh(beta)
        v = np.array([float(net.layers[1].weight[i] @ first_block) for i in range(8)])
        assert not np.allclose(v, 0.0)

    def test_input_scale_invariance_of_normalized_output(self, net):
        # exact up to the norm epsilon: (h-m)/sqrt(v + eps/c^2) vs /sqrt(v + eps)
        x = np.random.default_rng(1).standard_normal(6)
        _, caches1 = forward_with_caches(net, x[None, :])
        _, caches7 = forward_with_caches(net, (7.0 * x)[None, :])
        np.testing.assert_allclose(
            caches7[0].normalized, caches1[0].normalized, rtol=0, atol=1e-3
        )

    def test_batch_equals_single(self, net):
        X = np.random.default_rng(2).standard_normal((64, 6))
        batched = forward_features_batch(net, X)
        singles = np.stack([forward_features_batch(net, X[i : i + 1])[0] for i in range(len(X))])
        np.testing.assert_allclose(batched, singles, atol=1e-12)

    def test_no_cross_sample_coupling(self, net):
        # changing the other rows of a batch never changes a sample's feature
        rng = np.random.default_rng(3)
        x = rng.standard_normal(6)
        a = forward_features_batch(net, np.stack([x, rng.standard_normal(6)]))
        b = forward_features_batch(net, np.stack([x, rng.standard_normal(6)]))
        np.testing.assert_array_equal(a[0], b[0])

    def test_repeated_calls_bit_identical(self, net):
        x = np.random.default_rng(4).standard_normal(6)
        np.testing.assert_array_equal(feature(net, x), feature(net, x))

    def test_forward_probs(self, net):
        P = probs(net, np.random.default_rng(5).standard_normal((100, 6)))
        assert (np.abs(P.sum(axis=1) - 1.0) <= 1e-12).all()
        assert (P >= 0).all()

    @pytest.mark.parametrize("forward", [forward_features_batch, forward_with_caches])
    def test_single_vector_is_not_a_batch(self, net, forward):
        # one sample is a (1, d_in) batch; a bare (d_in,) vector fails loudly
        with pytest.raises(DimensionMismatch):
            forward(net, np.zeros(6))

    def test_uniform_head_gives_uniform_probs(self, net):
        from seva.core_math import ClassifierHead

        net.head = ClassifierHead(np.tile(np.linspace(0, 1, 8), (4, 1)), np.zeros(4))
        p = probs(net, np.random.default_rng(6).standard_normal((1, 6)))
        np.testing.assert_allclose(p, 0.25, atol=1e-12)


class TestParamVector:
    def test_layout(self, net):
        assert adaptable_layout(net) == (
            (0, "gamma", 8),
            (0, "beta", 8),
            (1, "gamma", 8),
            (1, "beta", 8),
        )

    def test_round_trip(self, net):
        vec = np.random.default_rng(7).standard_normal(32)
        set_adaptable_params(net, vec)
        np.testing.assert_array_equal(adaptable_params(net), vec)

    def test_set_rejects_wrong_shape(self, net):
        with pytest.raises(Exception, match="expected"):
            set_adaptable_params(net, np.zeros(31))


def fd_params_gradient(net, X, loss, h_scale=1e-5):
    theta = adaptable_params(net)
    g = np.zeros_like(theta)
    for k in range(theta.size):
        h = h_scale * (1.0 + abs(theta[k]))
        tp, tm = theta.copy(), theta.copy()
        tp[k] += h
        tm[k] -= h
        set_adaptable_params(net, tp)
        fp = batch_loss(net, X, loss)
        set_adaptable_params(net, tm)
        fm = batch_loss(net, X, loss)
        g[k] = (fp - fm) / (2 * h)
    set_adaptable_params(net, theta)
    return g


class TestAdaptableGradients:
    def test_uniform_head_zero_gradient(self, net):
        from seva.core_math import ClassifierHead

        net.head = ClassifierHead(np.tile(np.linspace(0, 1, 8), (4, 1)), np.zeros(4))
        X = np.random.default_rng(8).standard_normal((3, 6))
        g = grad_loss_wrt_adaptable(net, X, EntropyLoss(net.head))
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_zero_sigma_augmented_equals_entropy_gradient(self, net):
        X = np.random.default_rng(9).standard_normal((4, 6))
        g_ent = grad_loss_wrt_adaptable(net, X, EntropyLoss(net.head))
        g_aug = grad_loss_wrt_adaptable(net, X, AugmentedEntropyLoss(net.head, DiagCovariance.zeros(8)))
        np.testing.assert_allclose(g_aug, g_ent, atol=1e-9)

    @pytest.mark.parametrize("make_loss", [
        pytest.param(lambda head, sigma: EntropyLoss(head), id="entropy"),
        pytest.param(AugmentedEntropyLoss, id="augmented_entropy"),
    ])
    def test_fd_agreement_20_instances(self, make_loss):
        rng = np.random.default_rng(10)
        for i in range(10):
            net = build_network(
                seed=100 + i, d_in=5, d=6, C=3, n_layers=int(rng.integers(1, 3)), groups=2
            )
            set_adaptable_params(
                net,
                adaptable_params(net) + 0.1 * rng.standard_normal(adaptable_params(net).size),
            )
            X = rng.standard_normal((int(rng.integers(1, 5)), 5))
            sigma = DiagCovariance(rng.uniform(0, 1.0, 6))
            loss = make_loss(net.head, sigma)
            g = grad_loss_wrt_adaptable(net, X, loss)
            fd = fd_params_gradient(net, X, loss)
            scale = max(np.abs(fd).max(), 1e-12)
            assert np.abs(g - fd).max() / scale <= 1e-4

    def test_empty_batch_rejected(self, net):
        with pytest.raises(ValueError, match="empty batch"):
            grad_loss_wrt_adaptable(net, np.zeros((0, 6)), EntropyLoss(net.head))


class TestCalibration:
    def test_identical_inputs_zero_covariance(self, net):
        from seva.core_math import augmented_entropy, entropy, softmax

        X = np.tile(np.linspace(-1, 1, 6), (10, 1))
        sigma = calibrate_covariance(net, X, 1.5)
        assert (sigma.variances <= 1e-30).all()  # zero up to mean-rounding
        z = forward_features_batch(net, X[:1])[0]
        lae = augmented_entropy(net.head, z, sigma)
        h = entropy(softmax(z @ net.head.weights.T + net.head.biases))
        assert lae == pytest.approx(h, abs=1e-9)  # degenerates to plain entropy

    def test_zero_scale(self, net):
        X = np.random.default_rng(11).standard_normal((16, 6))
        sigma = calibrate_covariance(net, X, 0.0)
        np.testing.assert_array_equal(sigma.variances, np.zeros(8))

    def test_scale_is_linear(self, net):
        X = np.random.default_rng(12).standard_normal((128, 6))
        s1 = calibrate_covariance(net, X, 1.0)
        s15 = calibrate_covariance(net, X, 1.5)
        np.testing.assert_allclose(s15.variances, 1.5 * s1.variances, rtol=1e-12)
        feats = forward_features_batch(net, X)
        np.testing.assert_allclose(s1.variances, feats.var(axis=0), rtol=1e-12)

    def test_too_few_inputs(self, net):
        with pytest.raises(ValueError, match="at least 2"):
            calibrate_covariance(net, np.zeros((1, 6)), 1.5)


def legacy_forward_with_caches(net, X):
    """The group-norm forward as written with np.mean / np.var / np.repeat,
    kept as the reference the grouped-view kernel must match bit for bit."""
    X = np.asarray(X, dtype=np.float64)
    caches = []
    v = X
    for layer, (gamma, beta) in zip(net.layers, layer_affines(net)):
        h = v @ layer.weight.T
        n, c = h.shape
        grouped = h.reshape(n, layer.groups, c // layer.groups)
        mean = grouped.mean(axis=2)
        var = grouped.var(axis=2)
        inv = 1.0 / np.sqrt(var + NORM_EPS)
        normalized = (h - np.repeat(mean, c // layer.groups, axis=1)) * np.repeat(
            inv, c // layer.groups, axis=1
        )
        v = np.tanh(gamma * normalized + beta)
        caches.append(LayerCache(normalized=normalized, inv_std=inv, output=v))
    return v, caches


def legacy_backward_adaptable(net, caches, d_feature):
    """The group-norm backward as written with ``.mean`` and ``.sum``."""
    grads = []
    delta = np.asarray(d_feature, dtype=np.float64)
    for layer, (gamma, _), cache in zip(reversed(net.layers), reversed(layer_affines(net)), reversed(caches)):
        g = layer.groups
        c = layer.channels
        d_pre = delta * (1.0 - cache.output * cache.output)
        d_gamma = (d_pre * cache.normalized).sum(axis=0)
        d_beta = d_pre.sum(axis=0)
        grads.append(d_beta)
        grads.append(d_gamma)
        d_norm = d_pre * gamma
        n = delta.shape[0]
        dn = d_norm.reshape(n, g, c // g)
        nh = cache.normalized.reshape(n, g, c // g)
        inv = cache.inv_std[:, :, None]
        dh = inv * (dn - dn.mean(axis=2, keepdims=True) - nh * (dn * nh).mean(axis=2, keepdims=True))
        delta = dh.reshape(n, c) @ layer.weight
    grads.reverse()
    return np.concatenate(grads)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


@st.composite
def group_norm_case(draw):
    """A perturbed network and an input batch. Group sizes include 3, 5 and
    6, where ``x / k`` and ``x * (1 / k)`` round differently; one group per
    channel (k = 1) gives zero variance, one group for all channels is
    layer norm."""
    k = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8]))
    groups = draw(st.sampled_from([1, 2, 3, 4]))
    d_in = draw(st.integers(1, 8))
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    degenerate = draw(st.sampled_from(["none", "constant", "zero", "nan"]))
    n_layers = draw(st.integers(1, 2))
    net = build_network(seed=seed % 1000, d_in=d_in, d=groups * k, C=3, n_layers=n_layers, groups=groups)
    rng = np.random.default_rng(seed)
    theta = adaptable_params(net)
    set_adaptable_params(net, theta + 0.3 * rng.standard_normal(theta.size))
    X = scale * rng.standard_normal((n, d_in))
    row = int(rng.integers(n))
    if degenerate == "constant":
        X[row] = scale
    elif degenerate == "zero":
        X[row] = 0.0  # every pre-activation of the row is 0: zero variance
    elif degenerate == "nan":
        X[row, 0] = np.nan
    return net, X, row, degenerate, rng.standard_normal((n, groups * k))


class TestGroupNormKernel:
    """The grouped-view group norm equals the np.mean / np.var / np.repeat
    form bit for bit: features, every cache field and the backward."""

    @settings(max_examples=300, deadline=None)
    @given(group_norm_case())
    def test_property_bit_identical_to_legacy(self, case):
        net, X, row, degenerate, d_feature = case
        with np.errstate(invalid="ignore"):
            feats, caches = forward_with_caches(net, X)
            ref_feats, ref_caches = legacy_forward_with_caches(net, X)
            grads = backward_adaptable(net, caches, d_feature)
            ref_grads = legacy_backward_adaptable(net, ref_caches, d_feature)
        assert same_bits(feats, ref_feats)
        assert same_bits(feats, forward_features_batch(net, X))
        for got, ref in zip(caches, ref_caches):
            for name in ("normalized", "inv_std", "output"):
                assert same_bits(getattr(got, name), getattr(ref, name)), name
        assert same_bits(grads, ref_grads)
        if degenerate == "nan":
            # the NaN stays in its own row of every forward array
            others = np.arange(X.shape[0]) != row
            assert np.isnan(feats[row]).all()
            assert np.isfinite(feats[others]).all()
            for cache in caches:
                assert np.isfinite(cache.normalized[others]).all()
        else:
            assert np.isfinite(feats).all() and np.isfinite(grads).all()

    @settings(max_examples=200, deadline=None)
    @given(group_norm_case(), st.sampled_from([1, 2, 3, 7, 20]))
    def test_forward_from_the_stem_matches_the_full_forward(self, case, size):
        # each batch's slice of a stack's stem is its own first-layer group
        # norm, also for 1-row batches, whose linear map BLAS rounds apart
        net, X, _, _, _ = case
        B = min(size, len(X))
        stack = X[: len(X) // B * B].reshape(-1, B, X.shape[1])
        with np.errstate(invalid="ignore"):
            stems = forward_stem(net, stack)
            assert all(same_bits(a[0], b) for a, b in zip(stems, forward_stem(net, stack[0])))
            for j, batch in enumerate(stack):
                stem = (stems[0][j], stems[1][j])
                feats, caches = forward_with_caches(net, batch)
                got, got_caches = forward_with_caches(net, batch, stem)
                assert same_bits(stem[0], caches[0].normalized) and same_bits(stem[1], caches[0].inv_std)
                assert same_bits(got, feats) and same_bits(forward_features_batch(net, batch, stem), feats)
                for cache, ref in zip(got_caches, caches):
                    for name in ("normalized", "inv_std", "output"):
                        assert same_bits(getattr(cache, name), getattr(ref, name)), name

    def test_a_stem_must_fit_its_batch(self):
        net = build_network(seed=7, d_in=6, d=6, C=3, n_layers=2, groups=2)
        X = np.random.default_rng(9).standard_normal((5, 6))
        stem = forward_stem(net, X)
        for forward in (forward_with_caches, forward_features_batch):
            with pytest.raises(DimensionMismatch, match="stem"):
                forward(net, X[:4], stem)
        with pytest.raises(DimensionMismatch, match="stem"):
            forward_features_batch(net, np.stack([X, X]), stem)  # a batch's stem for a stack
        with pytest.raises(DimensionMismatch, match=r"\(2, 5, 5\)"):
            forward_stem(net, np.zeros((2, 5, 5)))  # a stack of the wrong width
        identity = build_network(seed=7, d_in=6, d=6, C=3, n_layers=0, groups=2)
        with pytest.raises(ValueError, match="no stem"):
            forward_stem(identity, X)
        with pytest.raises(DimensionMismatch, match="stem"):
            forward_with_caches(identity, X, stem)

    @pytest.mark.parametrize("n_layers", [0, 1, 3])
    def test_backward_covers_every_layer_at_any_depth(self, n_layers):
        # the first layer stops at its (gamma, beta) gradients
        net = build_network(seed=7, d_in=6, d=6, C=3, n_layers=n_layers, groups=2)
        rng = np.random.default_rng(8)
        feats, caches = forward_with_caches(net, rng.standard_normal((5, 6)))
        d_feature = rng.standard_normal(feats.shape)
        grads = backward_adaptable(net, caches, d_feature)
        assert grads.shape == adaptable_params(net).shape == (12 * n_layers,)
        if n_layers:
            assert same_bits(grads, legacy_backward_adaptable(net, caches, d_feature))

    @pytest.mark.parametrize("kind", ["tent", "seva"])
    @pytest.mark.parametrize("batch", ["constant_rows", "zero_row", "single"])
    def test_adapt_step_on_degenerate_batches_matches_legacy(self, monkeypatch, kind, batch):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((12, 6))
        calib = rng.standard_normal((32, 6))
        if batch == "constant_rows":
            X[::2] = 0.7
        elif batch == "zero_row":
            X[3] = 0.0
        else:
            X = X[:1]

        def run():
            net = build_network(seed=2024, d_in=6, d=6, C=4, n_layers=2, groups=2)
            engine = AdaptEngine(net, MethodConfig(kind=kind, threshold_rho=10.0, lr=0.05))
            if kind == "seva":
                engine.calibrate(calib)
            reports = [engine.adapt_step(X) for _ in range(3)]
            return reports, adaptable_params(net)

        reports, params = run()
        monkeypatch.setattr(seva.adapt, "forward_with_caches", legacy_forward_with_caches)
        monkeypatch.setattr(seva.adapt, "backward_adaptable", legacy_backward_adaptable)
        ref_reports, ref_params = run()
        assert np.isfinite(params).all()
        assert all(r.updated for r in reports)
        assert same_bits(params, ref_params)
        for got, ref in zip(reports, ref_reports):
            for name in ("losses", "selected", "predicted", "confidence"):
                assert same_bits(getattr(got, name), getattr(ref, name)), name
