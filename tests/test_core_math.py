"""Closed-form math: frozen oracle values, reductions, equivalences, gradients.

Expected constants were computed with a 60-digit mpmath evaluation of the
defining formulas before the implementation existed.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seva.core_math import (
    AugmentedEntropyLoss,
    ClassifierHead,
    DiagCovariance,
    DimensionMismatch,
    EntropyLoss,
    augmented_entropy,
    augmented_entropy_decomposed,
    class_pair_weight,
    entropy,
    grad_augmented_entropy_wrt_feature,
    grad_entropy_wrt_feature,
    log_softmax_rows,
    logits,
    robust_probs,
    softmax,
    softmax_rows,
)
from conftest import random_head, random_sigma

# mpmath (60 digits) reference values for the H3 instance
SOFTMAX_1_0_M1 = [0.66524095577482189, 0.24472847105479765, 0.09003057317038046]
ENTROPY_1_0_M1 = 0.83239558183993887
ROBUST_H3 = [0.64865423705164719, 0.23862655824004824, 0.11271920470830457]
LAE_H3 = 1.3357307277140413
CE_H3 = 0.87167093210103768
W02_H3 = 3.4903429574618414  # exp(1.25)


class TestLogits:
    def test_h3_example(self, h3):
        np.testing.assert_array_equal(logits(h3, [1.0, 0.0]), [1.0, 0.0, -1.0])

    def test_zero_feature_gives_biases(self):
        rng = np.random.default_rng(0)
        head = random_head(rng)
        np.testing.assert_array_equal(logits(head, np.zeros(head.feature_dim)), head.biases)

    def test_matches_high_precision_evaluation(self):
        # oracle: accumulate products in long double, coordinate by coordinate
        rng = np.random.default_rng(1)
        for _ in range(50):
            head = random_head(rng)
            z = rng.standard_normal(head.feature_dim)
            got = logits(head, z)
            for i in range(head.n_classes):
                acc = np.longdouble(0)
                for k in range(head.feature_dim):
                    acc += np.longdouble(head.weights[i, k]) * np.longdouble(z[k])
                acc += np.longdouble(head.biases[i])
                assert abs(got[i] - float(acc)) <= 1e-12 * max(1.0, abs(float(acc)))

    def test_dimension_mismatch(self, h3):
        with pytest.raises(DimensionMismatch, match="dim 3.*dim 2"):
            logits(h3, [1.0, 0.0, 0.0])



# every single-feature function, called as f(head, z, sigma)
FEATURE_FUNCTIONS = {
    "logits": lambda head, z, sigma: logits(head, z),
    "robust_probs": robust_probs,
    "augmented_entropy": augmented_entropy,
    "augmented_entropy_decomposed": augmented_entropy_decomposed,
    "grad_augmented_entropy_wrt_feature": grad_augmented_entropy_wrt_feature,
    "grad_entropy_wrt_feature": lambda head, z, sigma: grad_entropy_wrt_feature(head, z),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", FEATURE_FUNCTIONS)
def test_non_finite_feature_raises(h3, sigma_half, name, bad):
    # an error, never a silent NaN
    with pytest.raises(ValueError, match="feature must be finite"):
        FEATURE_FUNCTIONS[name](h3, np.array([bad, 0.0]), sigma_half)

class TestSoftmaxEntropy:
    def test_uniform(self):
        np.testing.assert_allclose(softmax([0.0, 0.0, 0.0]), np.ones(3) / 3, rtol=0, atol=1e-15)

    def test_overflow_stability(self):
        p = softmax([1000.0, 0.0])
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0)
        assert p[1] == pytest.approx(0.0, abs=1e-300)

    def test_oracle_value(self):
        np.testing.assert_allclose(softmax([1.0, 0.0, -1.0]), SOFTMAX_1_0_M1, rtol=0, atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            l = 10 * rng.standard_normal(int(rng.integers(1, 12)))
            assert abs(softmax(l).sum() - 1.0) <= 1e-12

    def test_rows_match_out_of_place_form_and_accept_integers(self):
        L = 30 * np.random.default_rng(3).standard_normal((50, 7))
        shifted = L - L.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        np.testing.assert_array_equal(softmax_rows(L), e / e.sum(axis=-1, keepdims=True))
        ints = np.array([[3, 1, -2], [0, 0, 0]])
        got = softmax_rows(ints)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, softmax_rows(ints.astype(np.float64)))

    def test_entropy_one_hot(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0

    def test_entropy_uniform(self):
        for C in (2, 5, 1000):
            assert entropy(np.ones(C) / C) == pytest.approx(np.log(C), abs=1e-12)

    def test_entropy_oracle_value(self):
        assert entropy(softmax([1.0, 0.0, -1.0])) == pytest.approx(ENTROPY_1_0_M1, abs=1e-14)

    def test_entropy_from_logits_matches(self):
        rng = np.random.default_rng(3)
        L = rng.standard_normal((40, 6)) * 5
        identity_head = ClassifierHead(np.eye(6), np.zeros(6))  # logits are the features
        rows = EntropyLoss(identity_head).value_and_pullback(L)[0]
        for i in range(40):
            assert rows[i] == pytest.approx(entropy(softmax(L[i])), abs=1e-12)

    def test_entropy_range(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            C = int(rng.integers(1, 9))
            h = entropy(softmax(5 * rng.standard_normal(C)))
            assert -1e-15 <= h <= np.log(max(C, 1)) + 1e-12


class TestRobustProbs:
    def test_zero_sigma_reduces_to_softmax(self, h3):
        z = np.array([0.3, -0.7])
        got = robust_probs(h3, z, DiagCovariance.zeros(2))
        np.testing.assert_array_equal(got, softmax(logits(h3, z)))

    def test_h3_oracle_value(self, h3, sigma_half):
        got = robust_probs(h3, [1.0, 0.0], sigma_half)
        np.testing.assert_allclose(got, ROBUST_H3, rtol=0, atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            head = random_head(rng)
            z = rng.standard_normal(head.feature_dim)
            sigma = random_sigma(rng, head.feature_dim)
            assert abs(robust_probs(head, z, sigma).sum() - 1.0) <= 1e-12

    def test_bias_shift_invariance(self, h3, sigma_half):
        z = np.array([0.4, 1.2])
        base = robust_probs(h3, z, sigma_half)
        shifted_head = ClassifierHead(h3.weights, h3.biases + 7.3)
        np.testing.assert_allclose(robust_probs(shifted_head, z, sigma_half), base, atol=1e-12)

    def test_dimension_mismatch(self, h3):
        with pytest.raises(DimensionMismatch):
            robust_probs(h3, [1.0, 0.0], DiagCovariance(np.ones(3)))


class TestAugmentedEntropy:
    def test_zero_sigma_collapses_to_entropy(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            head = random_head(rng)
            z = rng.standard_normal(head.feature_dim)
            lae = augmented_entropy(head, z, DiagCovariance.zeros(head.feature_dim))
            h = entropy(softmax(logits(head, z)))
            assert abs(lae - h) <= 1e-9

    def test_single_class_is_zero(self):
        head = ClassifierHead(np.array([[2.0, -1.0]]), np.array([0.3]))
        assert augmented_entropy(head, [0.5, 0.5], DiagCovariance(np.ones(2))) == 0.0

    def test_h3_oracle_value_and_bounds(self, h3, sigma_half):
        v = augmented_entropy(h3, [1.0, 0.0], sigma_half)
        assert v == pytest.approx(LAE_H3, abs=1e-12)
        assert v >= CE_H3  # dominates the cross entropy of (robust, plain)

    def test_identical_prototypes_give_log_c(self):
        row = np.array([0.7, -0.2, 0.1])
        head = ClassifierHead(np.tile(row, (4, 1)), np.zeros(4))
        sigma = DiagCovariance(np.array([1.0, 2.0, 0.5]))
        v = augmented_entropy(head, [0.1, 0.2, 0.3], sigma)
        assert v == pytest.approx(np.log(4), abs=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(7)
        head = random_head(rng, C=5, d=6)
        sigma = random_sigma(rng, 6)
        Z = rng.standard_normal((20, 6))
        batch = AugmentedEntropyLoss(head, sigma).value_and_pullback(Z)[0]
        for i in range(20):
            assert batch[i] == pytest.approx(augmented_entropy(head, Z[i], sigma), abs=1e-12)

    def test_form_equivalence_sweep(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            head = random_head(rng)
            z = rng.standard_normal(head.feature_dim)
            sigma = random_sigma(rng, head.feature_dim)
            direct = augmented_entropy(head, z, sigma)
            decomposed = augmented_entropy_decomposed(head, z, sigma)
            assert abs(direct - decomposed) <= 1e-9

    def test_decomposed_zero_sigma(self, h3):
        z = np.array([1.0, 0.0])
        v = augmented_entropy_decomposed(h3, z, DiagCovariance.zeros(2))
        assert v == pytest.approx(entropy(softmax(logits(h3, z))), abs=1e-12)

    def test_non_negative_and_dominance_chain(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            head = random_head(rng)
            z = rng.standard_normal(head.feature_dim)
            sigma = random_sigma(rng, head.feature_dim)
            lae = augmented_entropy(head, z, sigma)
            pbar = robust_probs(head, z, sigma)
            ce = float(-(pbar @ log_softmax_rows(logits(head, z))))
            assert lae >= 0.0
            assert lae >= ce - 1e-10
            assert ce >= entropy(pbar) - 1e-10  # Gibbs

    def test_bias_shift_invariance(self, h3, sigma_half):
        z = np.array([-0.3, 0.9])
        v1 = augmented_entropy(h3, z, sigma_half)
        v2 = augmented_entropy(ClassifierHead(h3.weights, h3.biases - 11.0), z, sigma_half)
        assert v1 == pytest.approx(v2, abs=1e-12)


class TestClassPairWeight:
    def test_diagonal_is_one(self, h3, sigma_half):
        for i in range(3):
            assert class_pair_weight(h3, i, i, sigma_half) == 1.0

    def test_zero_sigma_is_one(self, h3):
        for i in range(3):
            for j in range(3):
                assert class_pair_weight(h3, i, j, DiagCovariance.zeros(2)) == 1.0

    def test_h3_oracle_value(self, h3, sigma_half):
        assert class_pair_weight(h3, 0, 2, sigma_half) == pytest.approx(W02_H3, rel=1e-15)

    def test_symmetry_and_lower_bound(self):
        rng = np.random.default_rng(10)
        head = random_head(rng, C=6, d=5)
        sigma = random_sigma(rng, 5)
        for i in range(6):
            for j in range(6):
                w = class_pair_weight(head, i, j, sigma)
                assert w >= 1.0
                assert w == class_pair_weight(head, j, i, sigma)

    def test_index_out_of_range(self, h3, sigma_half):
        with pytest.raises(IndexError, match="out of range"):
            class_pair_weight(h3, 0, 3, sigma_half)
        with pytest.raises(IndexError, match="out of range"):
            class_pair_weight(h3, -1, 0, sigma_half)


def fd_gradient(f, z, h_scale=1e-5):
    g = np.zeros_like(z)
    for k in range(z.size):
        h = h_scale * (1.0 + abs(z[k]))
        zp, zm = z.copy(), z.copy()
        zp[k] += h
        zm[k] -= h
        g[k] = (f(zp) - f(zm)) / (2 * h)
    return g


def fd_relative_error(analytic, fd):
    scale = max(np.abs(fd).max(), 1e-12)
    return np.abs(analytic - fd).max() / scale


class TestFeatureGradient:
    def test_zero_sigma_matches_entropy_gradient(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            head = random_head(rng)
            z = rng.standard_normal(head.feature_dim)
            zero = DiagCovariance.zeros(head.feature_dim)
            g_lae = grad_augmented_entropy_wrt_feature(head, z, zero)
            g_ent = grad_entropy_wrt_feature(head, z)
            np.testing.assert_allclose(g_lae, g_ent, atol=1e-9)
            fd = fd_gradient(lambda zz: entropy(softmax(logits(head, zz))), z)
            assert fd_relative_error(g_ent, fd) <= 1e-4

    def test_identical_prototypes_zero_gradient(self):
        head = ClassifierHead(np.tile([0.5, -1.0], (3, 1)), np.zeros(3))
        sigma = DiagCovariance(np.ones(2))
        g = grad_augmented_entropy_wrt_feature(head, [0.2, 0.4], sigma)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_fd_agreement_100_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            head = random_head(rng)
            z = rng.standard_normal(head.feature_dim)
            sigma = random_sigma(rng, head.feature_dim)
            g = grad_augmented_entropy_wrt_feature(head, z, sigma)
            fd = fd_gradient(lambda zz: augmented_entropy(head, zz, sigma), z)
            assert fd_relative_error(g, fd) <= 1e-4

    def test_batch_matches_single(self):
        rng = np.random.default_rng(13)
        head = random_head(rng, C=4, d=5)
        sigma = random_sigma(rng, 5)
        Z = rng.standard_normal((8, 5))
        pullback = AugmentedEntropyLoss(head, sigma).value_and_pullback(Z)[1]
        G = pullback()
        for i in range(8):
            np.testing.assert_allclose(
                G[i], grad_augmented_entropy_wrt_feature(head, Z[i], sigma), atol=1e-12
            )


@st.composite
def head_z_sigma(draw):
    C = draw(st.integers(2, 6))
    d = draw(st.integers(2, 6))
    vals = st.floats(-4.0, 4.0)
    A = np.array(draw(st.lists(st.lists(vals, min_size=d, max_size=d), min_size=C, max_size=C)))
    b = np.array(draw(st.lists(vals, min_size=C, max_size=C)))
    z = np.array(draw(st.lists(vals, min_size=d, max_size=d)))
    var = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=d, max_size=d)))
    return ClassifierHead(A, b), z, DiagCovariance(var)


@settings(max_examples=60, deadline=None)
@given(head_z_sigma())
def test_property_bound_chain(instance):
    head, z, sigma = instance
    lae = augmented_entropy(head, z, sigma)
    pbar = robust_probs(head, z, sigma)
    ce = float(-(pbar @ log_softmax_rows(logits(head, z))))
    assert lae >= -1e-12
    assert lae >= ce - 1e-9  # dominates the (robust, plain) cross entropy
    assert ce >= entropy(pbar) - 1e-9  # which dominates the robust entropy


@settings(max_examples=60, deadline=None)
@given(head_z_sigma(), st.floats(-20.0, 20.0))
def test_property_bias_translation(instance, c):
    head, z, sigma = instance
    shifted = ClassifierHead(head.weights, head.biases + c)
    assert augmented_entropy(head, z, sigma) == pytest.approx(
        augmented_entropy(shifted, z, sigma), abs=1e-9
    )
    np.testing.assert_allclose(
        robust_probs(head, z, sigma), robust_probs(shifted, z, sigma), atol=1e-9
    )


def literal_pair_form(head, Z, sigma):
    """The augmented entropy written out over class pairs in log space: q_ij
    from explicit prototype differences, one log-sum-exp per (sample, j)."""
    A, b, v = head.weights, head.biases, sigma.variances
    diff = A[:, None, :] - A[None, :, :]
    half_pair_q = 0.5 * (diff * diff) @ v
    L = Z @ A.T + b
    T = L[:, :, None] - L[:, None, :] + half_pair_q
    m = T.max(axis=1)
    log_inner = m + np.log(np.exp(T - m[:, None, :]).sum(axis=1))
    u = L + 0.5 * (A * A) @ v
    pbar = np.exp(u - u.max(axis=1, keepdims=True))
    pbar /= pbar.sum(axis=1, keepdims=True)
    return (pbar * log_inner).sum(axis=1)


def kernel_instance(seed, C, d, scale, n=8):
    """Head with weights and biases of size ``scale``, unit-size features."""
    rng = np.random.default_rng(seed)
    head = ClassifierHead(scale * rng.standard_normal((C, d)), scale * rng.standard_normal(C))
    return head, rng.standard_normal((n, d)), DiagCovariance(rng.uniform(0.0, 2.0, d))


@pytest.fixture
def pair_form_rows(monkeypatch):
    """How many rows ``AugmentedEntropyLoss`` recomputed in the pair form, per call."""
    calls = []
    original = AugmentedEntropyLoss._pair_form

    def spy(self, L, pbar):
        calls.append(L.shape[0])
        return original(self, L, pbar)

    monkeypatch.setattr(AugmentedEntropyLoss, "_pair_form", spy)
    return calls


class TestGemmForm:
    """The two-product form of AugmentedEntropyLoss, its underflow fallback
    and its memory use."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 6), st.floats(0.05, 60.0))
    def test_property_matches_pair_forms(self, seed, C, d, scale):
        head, Z, sigma = kernel_instance(seed, C, d, scale)
        got = AugmentedEntropyLoss(head, sigma).value_and_pullback(Z)[0]
        assert (got >= 0.0).all()
        np.testing.assert_allclose(got, literal_pair_form(head, Z, sigma), rtol=1e-9, atol=1e-12)
        for z, v in zip(Z, got):
            with np.errstate(all="ignore"):  # probability ratios overflow at large scales
                decomposed = augmented_entropy_decomposed(head, z, sigma)
            if np.isfinite(decomposed):
                assert v == pytest.approx(decomposed, rel=1e-9, abs=1e-12)

    def test_extreme_confidence_falls_back_and_agrees(self, pair_form_rows):
        n_exact = []
        for scale in (12.0, 50.0):
            for seed in range(10):
                head, Z, sigma = kernel_instance(seed, C=20, d=8, scale=scale)
                L = Z @ head.weights.T + head.biases
                assert (L.max(axis=1) - L.min(axis=1)).mean() >= 50.0
                got, pullback, _ = AugmentedEntropyLoss(head, sigma).value_and_pullback(Z)
                n_exact.append(pair_form_rows[-1])
                np.testing.assert_allclose(got, literal_pair_form(head, Z, sigma), rtol=1e-9, atol=1e-12)
                assert np.isfinite(pullback()).all()
        # at scale 12 some batches mix exact and product rows; at 50 every row falls back
        assert any(0 < k < 8 for k in n_exact[:10])
        assert n_exact[10:] == [8] * 10

    def test_fd_gradient_at_100_classes(self):
        rng = np.random.default_rng(14)
        head = ClassifierHead(rng.standard_normal((100, 16)) / 4.0, rng.standard_normal(100))
        sigma = random_sigma(rng, 16)
        loss = AugmentedEntropyLoss(head, sigma)
        Z = rng.standard_normal((4, 16))
        G = loss.value_and_pullback(Z)[1]()
        for z, g in zip(Z, G):
            fd = fd_gradient(lambda zz: loss.value_and_pullback(zz[None, :])[0][0], z)
            assert fd_relative_error(g, fd) <= 1e-6

    def test_fd_gradient_on_fallback_rows(self, pair_form_rows):
        for seed in range(3):
            head, Z, sigma = kernel_instance(seed, C=20, d=8, scale=50.0, n=2)
            loss = AugmentedEntropyLoss(head, sigma)
            G = loss.value_and_pullback(Z)[1]()
            assert pair_form_rows[-1] == 2
            for z, g in zip(Z, G):
                fd = fd_gradient(lambda zz: loss.value_and_pullback(zz[None, :])[0][0], z, 1e-6)
                assert fd_relative_error(g, fd) <= 1e-6

    def test_single_class_is_exactly_zero(self):
        rng = np.random.default_rng(15)
        for scale in (1e-3, 1.0, 100.0):
            head, Z, sigma = kernel_instance(int(rng.integers(1 << 30)), C=1, d=5, scale=scale)
            losses, pullback, _ = AugmentedEntropyLoss(head, sigma).value_and_pullback(Z)
            assert (losses == 0.0).all()
            assert (pullback() == 0.0).all()

    @pytest.mark.parametrize("scale", [0.1, 5.0, 60.0])
    def test_both_losses_return_the_plain_softmax(self, scale):
        # the third value is softmax_rows of the plain logits, bit for bit,
        # on finite, NaN and constant rows and on rows that fall back
        head, Z, sigma = kernel_instance(int(10 * scale), C=12, d=6, scale=scale, n=10)
        Z[3] = np.nan
        Z[4] = Z[4, 0]
        expected = softmax_rows(Z @ head.weights.T + head.biases)
        for loss in (EntropyLoss(head), AugmentedEntropyLoss(head, sigma)):
            with np.errstate(invalid="ignore"):
                probs = loss.value_and_pullback(Z)[2]
            assert probs.tobytes() == expected.tobytes()

    def test_no_pair_tensor_is_allocated(self, pair_form_rows):
        rng = np.random.default_rng(16)
        for C, d, limit in ((100, 64, 1 << 20), (1000, 512, 16 << 20)):
            head = random_head(rng, C=C, d=d)
            sigma = random_sigma(rng, d)
            Z = rng.standard_normal((64, d))
            loss = AugmentedEntropyLoss(head, sigma)
            tracemalloc.start()
            try:
                losses, pullback, _ = loss.value_and_pullback(Z)
                G = pullback()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # the (n, C, C) tensor alone is 5.1 MB at C=100 and 512 MB at C=1000
            assert peak <= limit
            assert pair_form_rows[-1] == 0  # measured on the finite path
            assert np.isfinite(losses).all() and np.isfinite(G).all()
        tracemalloc.start()
        try:
            AugmentedEntropyLoss(random_head(rng, C=300, d=64), random_sigma(rng, 64))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20  # the (C, C, d) pair tensor alone is 46 MB
