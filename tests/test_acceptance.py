"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criteria 8-10 run on the committed scenario (seva.committed): the frozen
imbalanced severity-5 stream over ten seeds. Criterion 9 is expected to
fail there and the failure is intentional and documented: on this stream
no entropy-family training improves on the frozen model (a property of the
committed stream only: with uniform labels and feature-scale corruption at
severity 5, tent beats the frozen model, 0.889 vs 0.848 accuracy on one
seed), so accuracy rewards the tightest selection while F1 rewards the
loosest; the weighted loss sits above the plain entropy pointwise, making
its selected set a subset of the entropy baseline's at any shared
boundary, and the baseline's F1 can only be matched by also selecting
nothing. The committed scenario keeps the
non-degenerate accuracy wins (criteria 8 and 10) and reports the F1
comparison truthfully rather than committing an empty-vs-empty tie.
"""

import time

import numpy as np
import pytest

from seva.adapt import RECIPES, MethodConfig, threshold_default
from seva.committed import committed_config, committed_methods
from seva.config import resolve_config
from seva.core_math import (
    AugmentedEntropyLoss,
    ClassifierHead,
    DiagCovariance,
    EntropyLoss,
    augmented_entropy,
    augmented_entropy_decomposed,
    entropy,
    grad_augmented_entropy_wrt_feature,
    logits,
    robust_probs,
    softmax,
)
from seva.model import adaptable_params, build_network, set_adaptable_params
from seva.oracle import bound_sweep, mc_robust_probs_estimate, random_instance
from seva.rng import substream
from seva.runner import run_cells, execute_run
from conftest import random_head, random_sigma
from model_helpers import batch_loss, grad_loss_wrt_adaptable


def verdict(num, ok, detail):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def sweep_instances(seed, n):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        C = int(rng.integers(2, 11))
        d = int(rng.integers(2, 17))
        head = ClassifierHead(rng.standard_normal((C, d)), rng.standard_normal(C))
        z = rng.standard_normal(d)
        yield head, z, rng


def test_criterion_01_zero_sigma_reduction():
    t0 = time.perf_counter()
    worst = 0.0
    for head, z, _ in sweep_instances(1001, 1000):
        lae = augmented_entropy(head, z, DiagCovariance.zeros(head.feature_dim))
        h = entropy(softmax(logits(head, z)))
        worst = max(worst, abs(lae - h))
    elapsed = time.perf_counter() - t0
    verdict(1, worst <= 1e-9 and elapsed < 1.0,
            f"max |L_AE(0) - H| = {worst:.2e} over 1000 instances in {elapsed:.2f}s")


def test_criterion_02_form_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for head, z, rng in sweep_instances(1002, 1000):
        sigma = DiagCovariance(1.5 * rng.uniform(0.0, 1.0, head.feature_dim))
        direct = augmented_entropy(head, z, sigma)
        decomposed = augmented_entropy_decomposed(head, z, sigma)
        worst = max(worst, abs(direct - decomposed))
    elapsed = time.perf_counter() - t0
    verdict(2, worst <= 1e-9 and elapsed < 1.0,
            f"max |direct - decomposed| = {worst:.2e} over 1000 instances in {elapsed:.2f}s")


def test_criterion_03_upper_bound_certification():
    t0 = time.perf_counter()
    reports = bound_sweep(10, n_instances=50, n_samples=100_000)
    elapsed = time.perf_counter() - t0
    n_ok = sum(r.satisfied for r in reports)
    worst = min(r.gap + 3 * r.mc.stderr for r in reports)
    verdict(3, n_ok == 50 and elapsed < 60.0,
            f"{n_ok}/50 committed instances satisfy mc <= L_AE + 3se "
            f"(worst slack {worst:+.4f}) in {elapsed:.1f}s")


def test_criterion_04_robust_prediction_closed_form():
    t0 = time.perf_counter()
    n_ok = 0
    for i in range(50):
        gen = substream(10, "bounds", i)
        head, z, sigma = random_instance(gen)
        probs, stderr = mc_robust_probs_estimate(head, z, sigma, 100_000, gen)
        closed = robust_probs(head, z, sigma)
        coords_ok = (np.abs(probs - closed) <= 3 * stderr + 1e-12).all()
        sums_ok = abs(closed.sum() - 1.0) <= 1e-12
        n_ok += bool(coords_ok and sums_ok)
    elapsed = time.perf_counter() - t0
    verdict(4, n_ok == 50 and elapsed < 60.0,
            f"{n_ok}/50 instances: every coordinate within 3se and closed form "
            f"sums to 1 within 1e-12, in {elapsed:.1f}s")


def test_criterion_05_gradient_correctness():
    t0 = time.perf_counter()
    # feature gradients, 100 instances
    worst_feat = 0.0
    rng = np.random.default_rng(1005)
    for _ in range(100):
        head = random_head(rng)
        z = rng.standard_normal(head.feature_dim)
        sigma = random_sigma(rng, head.feature_dim)
        g = grad_augmented_entropy_wrt_feature(head, z, sigma)
        fd = np.zeros_like(z)
        for k in range(z.size):
            h = 1e-5 * (1 + abs(z[k]))
            zp, zm = z.copy(), z.copy()
            zp[k] += h
            zm[k] -= h
            fd[k] = (augmented_entropy(head, zp, sigma) - augmented_entropy(head, zm, sigma)) / (2 * h)
        worst_feat = max(worst_feat, np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-12))
    # norm-affine gradients, 20 (network, batch) instances, both loss kinds
    worst_param = 0.0
    for i in range(20):
        net = build_network(seed=500 + i, d_in=5, d=6, C=4, n_layers=2, groups=2)
        theta = adaptable_params(net) + 0.1 * rng.standard_normal(24)
        set_adaptable_params(net, theta)
        X = rng.standard_normal((3, 5))
        sigma = DiagCovariance(rng.uniform(0.0, 1.0, 6))
        for loss in (EntropyLoss(net.head), AugmentedEntropyLoss(net.head, sigma)):
            g = grad_loss_wrt_adaptable(net, X, loss)
            fd = np.zeros_like(theta)
            for k in range(theta.size):
                h = 1e-5 * (1 + abs(theta[k]))
                tp, tm = theta.copy(), theta.copy()
                tp[k] += h
                tm[k] -= h
                set_adaptable_params(net, tp)
                fp = batch_loss(net, X, loss)
                set_adaptable_params(net, tm)
                fm = batch_loss(net, X, loss)
                fd[k] = (fp - fm) / (2 * h)
            set_adaptable_params(net, theta)
            worst_param = max(worst_param, np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-12))
    elapsed = time.perf_counter() - t0
    verdict(5, worst_feat <= 1e-4 and worst_param <= 1e-4 and elapsed < 30.0,
            f"max FD rel err: features {worst_feat:.2e} (100 inst), "
            f"norm-affine {worst_param:.2e} (20 net-batch inst, both losses) in {elapsed:.1f}s")


def test_criterion_06_selection_weight_behavior():
    t0 = time.perf_counter()
    sigma = DiagCovariance(np.array([0.5, 0.5]))
    z = np.array([0.0, 1.0])
    threshold = threshold_default(2, 1.2)
    laes, entropies = [], []
    for delta in np.linspace(0.0, 4.0, 81):
        head = ClassifierHead(np.array([[delta / 2, 0.0], [-delta / 2, 0.0]]), np.zeros(2))
        entropies.append(entropy(softmax(logits(head, z))))
        laes.append(augmented_entropy(head, z, sigma))
    laes = np.array(laes)
    decisions = RECIPES["seva"].select(laes, threshold)
    entropies = np.array(entropies)
    flips = sum(1 for a, b in zip(decisions, decisions[1:]) if a != b)
    elapsed = time.perf_counter() - t0
    ok = (
        (np.diff(laes) > 0).all()
        and (np.abs(entropies - np.log(2)) <= 1e-9).all()
        and flips == 1
        and decisions[0] and not decisions[-1]
        and elapsed < 1.0
    )
    verdict(6, ok,
            f"loss strictly increasing over the prototype-distance sweep, entropy "
            f"constant at ln2, selection flips exactly {flips} time in {elapsed:.2f}s")


def test_criterion_07_efficiency_counters():
    t0 = time.perf_counter()
    cfg = resolve_config(
        {
            "master_seed": 11,
            "seeds": [0],
            "world": {"n_classes": 10, "d_in": 48},
            "network": {"feature_dim": 48, "n_layers": 2, "groups": 4},
            "stream": {
                "batch_size": 128,
                "n_batches": 79,  # 10,112 samples
                "label_schedule": {"kind": "uniform"},
                "corruption": {"specs": [{"kind": "additive_noise", "severity": 2}]},
            },
        }
    )
    roster = (
        ("tent", MethodConfig(kind="tent", lr=0.001)),
        ("seva", MethodConfig(kind="seva", lr=0.001)),
        ("va7", MethodConfig(kind="explicit_va", rounds=7, lr=0.001)),
    )
    results = {r.name: r for r in run_cells(cfg, roster, [0])}
    n = cfg.tree["stream"]["batch_size"] * cfg.tree["stream"]["n_batches"]
    tent, seva, va7 = results["tent"], results["seva"], results["va7"]

    backward_ok = seva.counters["n_backward"] <= tent.counters["n_backward"] == n
    seva_sel_batches = sum(1 for s in seva.trace.steps if s.n_selected > 0)
    va7_sel_batches = sum(1 for s in va7.trace.steps if s.n_selected > 0)
    steps_ok = (
        seva.counters["n_optimizer_steps"] == seva_sel_batches
        and va7.counters["n_optimizer_steps"] == 7 * va7_sel_batches
        and va7_sel_batches > 0
        and seva_sel_batches > 0
    )
    wall_seva = sum(s.step_wall_time for s in seva.trace.steps)
    wall_va7 = sum(s.step_wall_time for s in va7.trace.steps)
    ratio = wall_va7 / wall_seva
    elapsed = time.perf_counter() - t0
    verdict(7, backward_ok and steps_ok and ratio >= 4.0 and elapsed < 300.0,
            f"backward seva {seva.counters['n_backward']} <= tent {tent.counters['n_backward']}; "
            f"optimizer steps per selected batch seva 1x ({seva.counters['n_optimizer_steps']}"
            f"/{seva_sel_batches}), va7 7x ({va7.counters['n_optimizer_steps']}/{va7_sel_batches}); "
            f"wall ratio va7/seva = {ratio:.1f} (>= 4) in {elapsed:.0f}s")


@pytest.fixture(scope="module")
def committed_results():
    cfg = committed_config()
    by_name = {}
    for cell in run_cells(cfg, committed_methods().items(), cfg.seeds):
        by_name.setdefault(cell.name, []).append(cell)
    out = {}
    for name, cells in by_name.items():
        out[name] = {
            "accuracy": float(np.mean([c.accuracy for c in cells])),
            "f1": float(np.mean([c.selection.f1 for c in cells])),
            "n_selected": [c.n_selected for c in cells],
        }
    return out


def test_criterion_08_behavioral_ordering(committed_results):
    acc = {k: v["accuracy"] for k, v in committed_results.items()}
    ok = (
        acc["seva"] >= acc["no_adapt"]
        and acc["seva"] >= acc["tent"]
        and acc["tent"] < acc["no_adapt"]
    )
    verdict(8, ok,
            f"mean online accuracy over 10 seeds: seva {acc['seva']:.4f} >= "
            f"no_adapt {acc['no_adapt']:.4f}, seva >= tent {acc['tent']:.4f}, "
            f"tent < no_adapt (collapse)")


def test_criterion_09_selection_f1(committed_results):
    f1_seva = committed_results["seva"]["f1"]
    f1_es = committed_results["entropy_select"]["f1"]
    # Expected to FAIL on the committed scenario; see the module docstring:
    # accuracy and F1 reward opposite selection sizes when no training helps,
    # so the honest outcome here is a documented failure, not a loosened test.
    verdict(9, f1_seva >= f1_es,
            f"mean selection F1 over 10 seeds: seva {f1_seva:.4f} vs "
            f"entropy_select {f1_es:.4f}")


def test_criterion_10_ablation_grid(committed_results):
    acc = {k: v["accuracy"] for k, v in committed_results.items()}
    grid = {k: acc[k] for k in ("tent", "entropy_select", "l_ae_only", "seva")}
    best = max(grid, key=grid.get)
    ok = all(grid["seva"] >= v for v in grid.values()) and grid["tent"] <= grid["entropy_select"]
    verdict(10, ok,
            f"4-cell grid argmax is '{best}': " +
            " ".join(f"{k}={v:.4f}" for k, v in grid.items()))


def test_criterion_11_reproducibility(tmp_path):
    cfg = resolve_config(
        {
            "master_seed": 77,
            "seeds": [0, 1],
            "world": {"n_classes": 4, "d_in": 8},
            "network": {"feature_dim": 8, "n_layers": 2, "groups": 2},
            "stream": {"batch_size": 16, "n_batches": 8},
            "methods": [{"kind": "seva", "lr": 0.02}, {"kind": "tent", "lr": 0.02}],
        }
    )
    first = execute_run(cfg, tmp_path / "a")
    second = execute_run(cfg, tmp_path / "b")
    identical = all(
        p.read_bytes() == q.read_bytes() for p, q in zip(first["traces"], second["traces"])
    )
    verdict(11, identical and len(first["traces"]) == 4,
            f"{len(first['traces'])} JSONL traces byte-identical across reruns")
