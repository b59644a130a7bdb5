# Kernel sweep: what the augmented-entropy loss costs as the class count
# grows. For C in {10, 100, 300, 1000} it builds AugmentedEntropyLoss once
# per (head, covariance) and scores a batch of n=64 features, reporting the
# construction time, the value+pullback time (medians) and the tracemalloc
# peak of one value+pullback call. The loss never forms an (n, C, C) or
# (C, C, d) array, so C=1000, d=512 runs in a few MB.
#
# A second table times the Monte-Carlo oracle's two estimators,
# mc_entropy and mc_robust_probs_estimate, at n=100 000 draws for (C, d)
# in {(10, 16), (100, 64)}: median wall time of 2 calls and the
# tracemalloc peak of one call, each. Both reduce the same class-major
# (C, m) logit blocks of at most MC_CHUNK_ROWS draws in one pass, so
# neither peak grows with the full (n, C) logit array.
#
# A third table times the engine phases that every adaptation step runs:
# forward_with_caches and backward_adaptable (the group-norm forward and
# backward of a 2-layer network) at the committed shape (B=32, d_in=d=16,
# 4 groups) and the wide shape (B=64, d_in=d=64, 8 groups), as median
# microseconds per call. "from stem" is forward_with_caches started from
# the batch's first-layer stem; the difference from "forward" is the
# per-step saving of a replay plan.
import os

# BLAS is pinned to one thread before numpy is first imported, so the
# timings do not depend on how many cores a small GEMM happens to get.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from seva.core_math import AugmentedEntropyLoss, ClassifierHead, DiagCovariance  # noqa: E402
from seva.model import backward_adaptable, build_network, forward_stem, forward_with_caches  # noqa: E402
from seva.oracle import mc_entropy, mc_robust_probs_estimate  # noqa: E402

SHAPES = ((10, 16), (100, 64), (300, 64), (1000, 512))  # (C, d)
N_FEATURES = 64
MC_SHAPES = ((10, 16), (100, 64))  # (C, d)
MC_DRAWS = 100_000
ENGINE_SHAPES = (("committed", 32, 16, 4), ("wide", 64, 64, 8))  # (name, B, d_in = d, groups)


def _median_ms(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _instance(C, d):
    rng = np.random.default_rng(C)
    head = ClassifierHead(rng.standard_normal((C, d)) / np.sqrt(d), np.zeros(C))
    return rng, head, DiagCovariance(rng.uniform(0.0, 1.0, d))


def sweep(shapes=SHAPES, n=N_FEATURES, reps=15):
    rows = []
    for C, d in shapes:
        rng, head, sigma = _instance(C, d)
        Z = rng.standard_normal((n, d))
        build_ms = _median_ms(lambda: AugmentedEntropyLoss(head, sigma), reps)
        loss = AugmentedEntropyLoss(head, sigma)
        call_ms = _median_ms(lambda: loss.value_and_pullback(Z)[1](), reps)
        peak_mb = _peak_mb(lambda: loss.value_and_pullback(Z)[1]())
        rows.append({"C": C, "d": d, "n": n, "build_ms": build_ms, "call_ms": call_ms, "peak_mb": peak_mb})
    return rows


def mc_sweep(shapes=MC_SHAPES, n=MC_DRAWS, reps=2):
    rows = []
    for C, d in shapes:
        rng, head, sigma = _instance(C, d)
        z = rng.standard_normal(d)
        row = {"C": C, "d": d, "n": n}
        for key, estimator in (("entropy", mc_entropy), ("robust", mc_robust_probs_estimate)):
            call = lambda: estimator(head, z, sigma, n, np.random.default_rng(0))  # noqa: E731
            row[f"{key}_ms"], row[f"{key}_peak_mb"] = _median_ms(call, reps), _peak_mb(call)
        rows.append(row)
    return rows


def engine_sweep(shapes=ENGINE_SHAPES, n_layers=2, reps=2000):
    rows = []
    for name, B, d, groups in shapes:
        net = build_network(seed=0, d_in=d, d=d, C=10, n_layers=n_layers, groups=groups)
        rng = np.random.default_rng(d)
        X, d_feature = rng.standard_normal((B, d)), rng.standard_normal((B, d))
        _, caches = forward_with_caches(net, X)
        stem = forward_stem(net, X)
        rows.append({
            "shape": name, "B": B, "d": d, "groups": groups,
            "forward_us": 1e3 * _median_ms(lambda: forward_with_caches(net, X), reps),
            "from_stem_us": 1e3 * _median_ms(lambda: forward_with_caches(net, X, stem), reps),
            "backward_us": 1e3 * _median_ms(lambda: backward_adaptable(net, caches, d_feature), reps),
        })
    return rows


if __name__ == "__main__":
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"nproc {os.cpu_count()}, BLAS {blas.get('name')} {blas.get('version')}, "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
    print(f"{'C':>5} {'d':>4} {'n':>3} {'build ms':>9} {'value+pullback ms':>18} {'peak MB':>8}")
    for r in sweep():
        print(f"{r['C']:5d} {r['d']:4d} {r['n']:3d} {r['build_ms']:9.2f} {r['call_ms']:18.3f} {r['peak_mb']:8.2f}")
    print(f"\n{'C':>5} {'d':>4} {'n':>7} {'mc_entropy ms':>14} {'peak MB':>8} "
          f"{'mc_robust_probs_estimate ms':>28} {'peak MB':>8}")
    for r in mc_sweep():
        print(f"{r['C']:5d} {r['d']:4d} {r['n']:7d} {r['entropy_ms']:14.1f} {r['entropy_peak_mb']:8.2f} "
              f"{r['robust_ms']:28.1f} {r['robust_peak_mb']:8.2f}")
    print(f"\n{'shape':>9} {'B':>3} {'d':>3} {'groups':>6} {'forward us':>11} {'from stem us':>13} "
          f"{'backward us':>12}")
    for r in engine_sweep():
        print(f"{r['shape']:>9} {r['B']:3d} {r['d']:3d} {r['groups']:6d} "
              f"{r['forward_us']:11.1f} {r['from_stem_us']:13.1f} {r['backward_us']:12.1f}")
