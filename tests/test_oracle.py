"""Monte-Carlo oracle: sampling statistics, estimator quality, bound checks."""

import copy
import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from seva.core_math import (
    ClassifierHead,
    DiagCovariance,
    DimensionMismatch,
    EntropyLoss,
    augmented_entropy,
    entropy,
    logits,
    robust_probs,
    softmax,
)
from seva import oracle
from seva.oracle import (
    BOUND_ATOL,
    MC_CHUNK_ROWS,
    McEstimate,
    bound_gap_report,
    bound_sweep,
    mc_entropy,
    mc_robust_probs_estimate,
    random_instance,
    vicinal_batch,
    vicinal_logits,
)
from seva.rng import substream
from conftest import random_head, random_sigma


class TestSampleVicinal:
    def test_zero_sigma_returns_z_exactly(self):
        z = np.array([0.3, -1.2, 4.0])
        out = vicinal_batch(z, DiagCovariance.zeros(3), substream(0), 1)
        np.testing.assert_array_equal(out, z[None, :])

    def test_seeded_sequence_is_reproducible(self):
        z = np.zeros(4)
        sigma = DiagCovariance(np.array([1.0, 2.0, 0.5, 0.1]))
        a = vicinal_batch(z, sigma, substream(42, "s"), 1)
        first = vicinal_batch(z, sigma, substream(42, "s"), 1)
        np.testing.assert_array_equal(a, first)
        gen1, gen2 = substream(7), substream(7)
        seq1 = [vicinal_batch(z, sigma, gen1, 1) for _ in range(5)]
        seq2 = [vicinal_batch(z, sigma, gen2, 1) for _ in range(5)]
        np.testing.assert_array_equal(seq1, seq2)

    def test_moments_match_target_distribution(self):
        n = 100_000
        z = np.array([1.0, -2.0, 0.5])
        variances = np.array([0.4, 1.5, 0.05])
        sigma = DiagCovariance(variances)
        draws = vicinal_batch(z, sigma, substream(3, "moments"), n)
        mean_err = np.abs(draws.mean(axis=0) - z)
        assert (mean_err <= 4.0 * np.sqrt(variances / n)).all()
        sample_var = draws.var(axis=0, ddof=1)
        assert (np.abs(sample_var - variances) <= 0.05 * variances).all()


class TestMcEntropy:
    def test_zero_sigma(self, h3):
        z = np.array([1.0, 0.0])
        est = mc_entropy(h3, z, DiagCovariance.zeros(2), 1000, substream(0))
        assert est.mean == pytest.approx(entropy(softmax(logits(h3, z))), abs=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)
        assert est.n_samples == 1000

    def test_n_too_small(self, h3, sigma_half):
        with pytest.raises(ValueError, match="n >= 2"):
            mc_entropy(h3, [1.0, 0.0], sigma_half, 1, substream(0))

    def test_h3_bound(self, h3, sigma_half):
        z = np.array([1.0, 0.0])
        est = mc_entropy(h3, z, sigma_half, 100_000, substream(1, "bound"))
        assert est.mean <= augmented_entropy(h3, z, sigma_half) + 3 * est.stderr

    def test_stderr_scaling(self, h3, sigma_half):
        z = np.array([1.0, 0.0])
        n = 20_000
        e1 = mc_entropy(h3, z, sigma_half, n, substream(2, "a"))
        e2 = mc_entropy(h3, z, sigma_half, 2 * n, substream(2, "b"))
        ratio = e2.stderr / e1.stderr
        assert ratio == pytest.approx(1 / np.sqrt(2), rel=0.2)

    def test_reproducible_bit_identical(self, h3, sigma_half):
        z = np.array([1.0, 0.0])
        a = mc_entropy(h3, z, sigma_half, 5000, substream(9, "r"))
        b = mc_entropy(h3, z, sigma_half, 5000, substream(9, "r"))
        assert a == b

    def test_central_difference_on_common_draws_is_the_mean_draw_gradient(self):
        # With the draws held fixed (the same substream on both sides), the
        # sample mean entropy is a smooth function of z whose gradient is
        # the mean over those draws of the per-draw entropy gradient.
        rng = np.random.default_rng(38)
        head = random_head(rng, C=6, d=4)
        z, sigma = rng.standard_normal(4), random_sigma(rng, 4)
        n, h = 4096, 1e-5
        Z = vicinal_batch(z, sigma, substream(39, "crn"), n)
        _, pullback, _ = EntropyLoss(head).value_and_pullback(Z)
        expected = pullback().mean(axis=0)
        fd = np.empty(4)
        for k in range(4):
            step = np.zeros(4)
            step[k] = h
            up = mc_entropy(head, z + step, sigma, n, substream(39, "crn")).mean
            down = mc_entropy(head, z - step, sigma, n, substream(39, "crn")).mean
            fd[k] = (up - down) / (2 * h)
        np.testing.assert_allclose(fd, expected, rtol=0, atol=1e-8)
        assert np.abs(expected).max() > 1e-3


class TestOracleInputChecks:
    """Both estimators check head, feature and covariance the way core_math does."""

    ESTIMATORS = [mc_entropy, mc_robust_probs_estimate]

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_head_dimension_differs_from_feature_and_covariance(self, estimator):
        head = ClassifierHead(np.eye(3), np.zeros(3))
        with pytest.raises(DimensionMismatch, match="feature has dim 2, head expects dim 3"):
            estimator(head, np.zeros(2), DiagCovariance(np.ones(2)), 100, substream(0))

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_covariance_dimension_differs_from_head(self, estimator, h3):
        with pytest.raises(DimensionMismatch, match="covariance has dim 3, head expects dim 2"):
            estimator(h3, np.zeros(2), DiagCovariance(np.ones(3)), 100, substream(0))

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_raises(self, estimator, h3, sigma_half, bad):
        with pytest.raises(ValueError, match="feature must be finite"):
            estimator(h3, np.array([1.0, bad]), sigma_half, 100, substream(0))

    def test_bound_gap_report_rejects_non_finite_feature(self, h3, sigma_half):
        # reported as an error, not as a bound violation
        with pytest.raises(ValueError, match="feature must be finite"):
            bound_gap_report(h3, [np.nan, 0.0], sigma_half, McEstimate(0.5, 0.01, 100))


def _block_edges(rows):
    return [rows - 1, rows, rows + 1, 2 * rows + 3]


# Draw counts on either side of a block boundary: of the current block size,
# and of the former 8192-row blocks, which now span several blocks each.
BLOCK_EDGE_SIZES = sorted({2, *_block_edges(MC_CHUNK_ROWS), *_block_edges(8192)})


def _explicit_mc_entropy(head, z, sigma, n, rng):
    """mean, stderr of the entropy over the explicit (n, d) feature sample."""
    L = vicinal_batch(z, sigma, rng, n) @ head.weights.T + head.biases
    logp = L - L.max(axis=1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
    ent = -(np.exp(logp) * logp).sum(axis=1)
    return ent.mean(), ent.std(ddof=1) / np.sqrt(n)


class TestFoldedChunkedSampling:
    """The folded, chunked path against the explicit feature sample."""

    @pytest.fixture
    def instance(self):
        rng = np.random.default_rng(31)
        head = random_head(rng, C=7, d=5)
        return head, rng.standard_normal(5), random_sigma(rng, 5)

    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
    def test_mc_entropy_matches_explicit_sample(self, instance, n):
        head, z, sigma = instance
        gen = substream(32, "chunks", n)
        ref_gen = copy.deepcopy(gen)
        est = mc_entropy(head, z, sigma, n, gen)
        mean, stderr = _explicit_mc_entropy(head, z, sigma, n, ref_gen)
        assert est.n_samples == n
        assert est.mean == pytest.approx(mean, rel=1e-12)
        assert est.stderr == pytest.approx(stderr, rel=1e-12)
        # exactly n*d standard normals were consumed, as by the explicit sample
        np.testing.assert_equal(gen.bit_generator.state, ref_gen.bit_generator.state)

    def test_vicinal_logits_match_explicit_features(self, instance):
        head, z, sigma = instance
        gen = substream(33, "logits")
        ref_gen = copy.deepcopy(gen)
        got = vicinal_logits(head, z, sigma, gen, 1000)
        expected = vicinal_batch(z, sigma, ref_gen, 1000) @ head.weights.T + head.biases
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_equal(gen.bit_generator.state, ref_gen.bit_generator.state)

    def test_vicinal_logits_over_several_blocks_match_explicit_features(self, instance):
        head, z, sigma = instance
        n = 2 * MC_CHUNK_ROWS + 3
        gen = substream(33, "blocks")
        ref_gen = copy.deepcopy(gen)
        got = vicinal_logits(head, z, sigma, gen, n)
        expected = vicinal_batch(z, sigma, ref_gen, n) @ head.weights.T + head.biases
        assert got.shape == (n, head.n_classes)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_equal(gen.bit_generator.state, ref_gen.bit_generator.state)

    def test_each_draw_is_shifted_by_its_own_max(self):
        # Logits spread over thousands of nats across draws: a shift shared
        # by the draws of a block would underflow every exponential of most
        # of them.
        head = ClassifierHead(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]), np.zeros(3))
        z, sigma, n = np.zeros(2), DiagCovariance(np.full(2, 1e6)), MC_CHUNK_ROWS + 1
        gen = substream(37, "spread")
        ref_gen = copy.deepcopy(gen)
        est = mc_entropy(head, z, sigma, n, gen)
        mean, stderr = _explicit_mc_entropy(head, z, sigma, n, ref_gen)
        assert np.isfinite(est.mean) and np.isfinite(est.stderr)
        assert est.mean == pytest.approx(mean, rel=1e-12)
        assert est.stderr == pytest.approx(stderr, rel=1e-12)

    def test_vicinal_logits_dimension_check(self, instance):
        head, z, _ = instance
        with pytest.raises(DimensionMismatch):
            vicinal_logits(head, z, DiagCovariance.zeros(4), substream(0), 3)

    def test_working_set_does_not_grow_with_n(self):
        # C=10, d=16 as in the certification sweep: a few (C, MC_CHUNK_ROWS)
        # and (MC_CHUNK_ROWS, d) blocks and nothing of length n. A length-n
        # entropy vector would add 8 bytes a draw (2.4 MB here), one
        # full-length (n, C) logit array 80, and the explicit (n, d) sample
        # path grew by about 380.
        rng = np.random.default_rng(34)
        head = random_head(rng, C=10, d=16)
        z, sigma = rng.standard_normal(16), random_sigma(rng, 16)

        def peak(n):
            tracemalloc.start()
            try:
                mc_entropy(head, z, sigma, n, substream(35, "peak"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(100_000), peak(400_000)
        assert small <= 8 * 2**20
        assert large - small < 64 * 2**10


class TestMcRobustProbs:
    def test_zero_sigma_equals_softmax(self, h3):
        z = np.array([1.0, 0.0])
        got, _ = mc_robust_probs_estimate(h3, z, DiagCovariance.zeros(2), 100, substream(0))
        np.testing.assert_allclose(got, softmax(logits(h3, z)), rtol=0, atol=1e-14)

    def test_h3_within_three_stderr(self, h3, sigma_half):
        z = np.array([1.0, 0.0])
        probs, stderr = mc_robust_probs_estimate(h3, z, sigma_half, 100_000, substream(4, "rp"))
        closed = robust_probs(h3, z, sigma_half)
        assert (np.abs(probs - closed) <= 3 * stderr).all()
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert abs(closed.sum() - 1.0) <= 1e-12

    def test_class_permutation_equivariance(self, h3, sigma_half):
        z = np.array([1.0, 0.0])
        perm = np.array([2, 0, 1])
        permuted_head = ClassifierHead(h3.weights[perm], h3.biases[perm])
        base, _ = mc_robust_probs_estimate(h3, z, sigma_half, 4000, substream(5, "p"))
        permuted, _ = mc_robust_probs_estimate(permuted_head, z, sigma_half, 4000, substream(5, "p"))
        np.testing.assert_allclose(permuted, base[perm], rtol=0, atol=1e-14)

    def test_random_instances_within_three_stderr(self):
        rng = np.random.default_rng(20)
        for i in range(10):
            head = random_head(rng, c_max=8, d_max=10)
            z = rng.standard_normal(head.feature_dim)
            sigma = random_sigma(rng, head.feature_dim)
            probs, stderr = mc_robust_probs_estimate(
                head, z, sigma, 100_000, substream(21, "sweep", i)
            )
            closed = robust_probs(head, z, sigma)
            assert (np.abs(probs - closed) <= 3 * stderr + 1e-12).all()


def _whole_array_robust_probs(head, z, sigma, n, rng):
    """(probs, stderr) of the ratio-of-means estimator over all n logits at once."""
    L = vicinal_logits(head, z, sigma, rng, n)
    U = np.exp(L - L.max())
    num = U.mean(axis=0)
    den = num.sum()
    probs = num / den
    resid = (U - U.sum(axis=1, keepdims=True) * probs[None, :]) / den
    return probs, resid.std(axis=0, ddof=1) / np.sqrt(n)


class TestChunkedRobustProbs:
    """The one-pass block estimator against the whole-array formula."""

    @pytest.fixture
    def instance(self):
        rng = np.random.default_rng(40)
        head = random_head(rng, C=7, d=5)
        return head, rng.standard_normal(5), random_sigma(rng, 5)

    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
    def test_matches_whole_array_formula(self, instance, n):
        head, z, sigma = instance
        gen = substream(41, "robust", n)
        ref_gen = copy.deepcopy(gen)
        probs, stderr = mc_robust_probs_estimate(head, z, sigma, n, gen)
        ref_probs, ref_stderr = _whole_array_robust_probs(head, z, sigma, n, ref_gen)
        np.testing.assert_allclose(probs, ref_probs, rtol=1e-12, atol=0)
        np.testing.assert_allclose(stderr, ref_stderr, rtol=1e-12, atol=0)
        np.testing.assert_equal(gen.bit_generator.state, ref_gen.bit_generator.state)

    def test_later_block_raising_the_max_past_exp_range(self, monkeypatch):
        # The second block's largest logit exceeds the first block's by more
        # than 709 nats, so exp(first max - second max) underflows to 0 and
        # an estimator that kept the first block's shift would overflow.
        # The draws were picked for blocks of 8192 rows.
        rows = 8192
        monkeypatch.setattr(oracle, "MC_CHUNK_ROWS", rows)
        head = ClassifierHead(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]), np.zeros(3))
        z, sigma, n = np.zeros(2), DiagCovariance(np.full(2, 1e6)), 2 * rows + 3
        L = vicinal_logits(head, z, sigma, substream(37, "shift", 10), n)
        assert L[rows:].max() - L[:rows].max() > 709
        probs, stderr = mc_robust_probs_estimate(head, z, sigma, n, substream(37, "shift", 10))
        ref_probs, ref_stderr = _whole_array_robust_probs(head, z, sigma, n, substream(37, "shift", 10))
        assert np.isfinite(probs).all() and np.isfinite(stderr).all()
        np.testing.assert_allclose(probs, ref_probs, rtol=1e-12, atol=0)
        np.testing.assert_allclose(stderr, ref_stderr, rtol=1e-12, atol=0)

    def test_tiny_coordinate_keeps_its_stderr_across_a_raised_max(self, monkeypatch):
        # A later block raises the max by ~137 nats and one class's ratio is
        # ~1e-69; its stderr (~2e-69) survives because the second moments are
        # kept about the running ratio, not about a stale first-block one.
        # The draws were picked for blocks of 8192 rows.
        rows = 8192
        monkeypatch.setattr(oracle, "MC_CHUNK_ROWS", rows)
        rng = np.random.default_rng(0)
        head = ClassifierHead(rng.standard_normal((3, 2)), np.zeros(3))
        z, sigma, n = np.zeros(2), DiagCovariance(np.full(2, 1e6)), 3 * rows
        probs, stderr = mc_robust_probs_estimate(head, z, sigma, n, substream(0, "shift"))
        ref_probs, ref_stderr = _whole_array_robust_probs(head, z, sigma, n, substream(0, "shift"))
        assert 1e-75 < probs[1] < 1e-60
        assert stderr[1] == pytest.approx(ref_stderr[1], rel=1e-12)
        np.testing.assert_allclose(probs, ref_probs, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("C", [1, 3])
    def test_zero_sigma_stderr_is_finite_zero(self, C):
        head = ClassifierHead(np.arange(2.0 * C).reshape(C, 2), np.zeros(C))
        for n in (2, MC_CHUNK_ROWS + 1):
            probs, stderr = mc_robust_probs_estimate(head, [1.0, 2.0], DiagCovariance.zeros(2), n, substream(0))
            assert np.isfinite(stderr).all()
            np.testing.assert_allclose(stderr, 0.0, rtol=0, atol=1e-15)
            np.testing.assert_allclose(probs, softmax(logits(head, [1.0, 2.0])), rtol=0, atol=1e-14)

    def test_working_set_does_not_grow_with_n(self):
        # C=10, d=16 as in the certification sweep: a few (C, MC_CHUNK_ROWS)
        # and (MC_CHUNK_ROWS, d) blocks and nothing of length n. The
        # whole-array reference above holds about 30 MiB at n=100 000.
        rng = np.random.default_rng(42)
        head = random_head(rng, C=10, d=16)
        z, sigma = rng.standard_normal(16), random_sigma(rng, 16)

        def peak(n):
            tracemalloc.start()
            try:
                mc_robust_probs_estimate(head, z, sigma, n, substream(43, "peak"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(100_000), peak(400_000)
        assert small <= 4 * 2**20
        assert large - small < 64 * 2**10


def _sampled_report(head, z, sigma, n, rng):
    return bound_gap_report(head, z, sigma, mc_entropy(head, z, sigma, n, rng))


class TestBoundGapReport:
    def test_zero_sigma_gap_zero_and_satisfied(self, h3):
        rep = _sampled_report(h3, [1.0, 0.0], DiagCovariance.zeros(2), 100, substream(0))
        assert abs(rep.gap) <= 1e-9
        assert rep.satisfied

    def test_satisfied_definition(self, h3, sigma_half):
        rep = _sampled_report(h3, [1.0, 0.0], sigma_half, 1000, substream(6))
        assert rep.satisfied == (rep.gap >= -(3 * rep.mc.stderr + BOUND_ATOL))
        assert rep.gap == pytest.approx(rep.l_ae - rep.mc.mean)

    def test_committed_sweep_all_satisfied(self):
        # seed 10 is the committed certification instance set (config mc.seed)
        reports = bound_sweep(10, n_instances=50, n_samples=10_000)
        assert len(reports) == 50
        assert all(r.satisfied for r in reports)

    def test_counterexample_instance_is_reported_not_hidden(self):
        # confident instances can genuinely exceed the closed form (the
        # ratio-form prediction underweights tail classes); this one does,
        # verified at n = 1e6, and the report says so rather than hiding it
        gen = substream(13, "bounds", 16)
        head, z, sigma = random_instance(gen)
        rep = _sampled_report(head, z, sigma, 100_000, gen)
        assert not rep.satisfied
        assert rep.gap < -3 * rep.mc.stderr

    def test_adversarially_large_sigma(self, h3):
        huge = DiagCovariance(np.full(2, 100.0))
        rep = _sampled_report(h3, [1.0, 0.0], huge, 50_000, substream(7, "huge"))
        assert rep.satisfied
        assert rep.gap > 0  # the bound grows with the covariance, entropy stays <= ln C

    def test_reproducible(self):
        a = bound_sweep(9, n_instances=3, n_samples=1000)
        b = bound_sweep(9, n_instances=3, n_samples=1000)
        assert [(r.l_ae, r.mc, r.gap) for r in a] == [(r.l_ae, r.mc, r.gap) for r in b]


class Boom(Exception):
    pass


class TestConcurrentSweep:
    """bound_sweep runs its instances on one thread per CPU, as the serial loop would."""

    SEED, N_INSTANCES, N_SAMPLES = 12, 6, 3 * MC_CHUNK_ROWS + 5

    def serial(self):
        reports = []
        for i in range(self.N_INSTANCES):
            gen = substream(self.SEED, "bounds", i)
            head, z, sigma = random_instance(gen)
            reports.append(_sampled_report(head, z, sigma, self.N_SAMPLES, gen))
        return reports

    @pytest.mark.parametrize("threads", [None, 8], ids=["per_cpu", "eight"])
    def test_equals_the_serial_loop_bit_for_bit(self, monkeypatch, threads):
        # Eight threads, more than most hosts' CPUs, on a short switch
        # interval, so the interpreter lock changes hands often.
        interval = sys.getswitchinterval()
        if threads is not None:
            monkeypatch.setattr(oracle, "_n_threads", lambda n: min(threads, n))
            sys.setswitchinterval(1e-5)
        try:
            got = bound_sweep(self.SEED, n_instances=self.N_INSTANCES, n_samples=self.N_SAMPLES)
        finally:
            sys.setswitchinterval(interval)
        assert got == self.serial()

    @pytest.mark.parametrize("n_instances", [0, -1])
    def test_no_instances_no_reports(self, n_instances):
        assert bound_sweep(self.SEED, n_instances=n_instances, n_samples=1000) == []

    def test_reports_each_instance_once_in_order(self, monkeypatch):
        seen = []
        original = oracle.bound_gap_report

        def record(head, z, sigma, mc):
            report = original(head, z, sigma, mc)
            seen.append((head, report))
            return report

        monkeypatch.setattr(oracle, "bound_gap_report", record)
        reports = bound_sweep(self.SEED, n_instances=self.N_INSTANCES, n_samples=1000)
        assert len(seen) == len(reports) == self.N_INSTANCES
        for i, (head, report) in enumerate(seen):
            assert report is reports[i]
            expected, _, _ = random_instance(substream(self.SEED, "bounds", i))
            np.testing.assert_array_equal(head.weights, expected.weights)

    @pytest.mark.parametrize("exc", [Boom, KeyboardInterrupt])
    def test_a_failing_instance_raises_after_its_threads_are_joined(self, monkeypatch, exc):
        original = oracle.mc_entropy
        bad, _, _ = random_instance(substream(self.SEED, "bounds", 2))

        def failing(head, z, sigma, n, rng):
            if np.array_equal(head.weights, bad.weights):
                raise exc("instance 2 failed")
            return original(head, z, sigma, n, rng)

        monkeypatch.setattr(oracle, "mc_entropy", failing)
        before = threading.active_count()
        with pytest.raises(exc, match="instance 2 failed"):
            bound_sweep(self.SEED, n_instances=50, n_samples=1000)
        assert threading.active_count() == before

    def test_no_instance_is_claimed_after_a_failure(self, monkeypatch):
        original = oracle.mc_entropy
        tickets = itertools.count()

        def first_fails(*args):
            if next(tickets) == 0:
                raise Boom("first instance failed")
            return original(*args)

        monkeypatch.setattr(oracle, "mc_entropy", first_fails)
        with pytest.raises(Boom):
            bound_sweep(self.SEED, n_instances=50, n_samples=1000)
        # the other threads finish what they hold and claim nothing more
        assert next(tickets) < 25
