"""Monte-Carlo ground truth for the vicinal-augmentation closed forms.

Samples perturbed features explicitly and estimates the quantities that
``core_math`` computes in closed form, so every inequality and reduction
can be certified numerically: the finite-sample mean entropy must stay
below ``augmented_entropy`` (within sampling error), and the ratio of
sample means must reproduce ``robust_probs``.

The samplers never form the perturbed features themselves. A draw is
z + diag(sqrt(sigma^2)) eps with eps ~ N(0, I_d), and the head is affine,
so its logits are

    A (z + diag(sqrt(sigma^2)) eps) + b = (A diag(sqrt(sigma^2))) eps + (A z + b),

with the noise scale folded into the head once per call, in one place
(``_logit_blocks``). It hands out the logits as class-major (C, m) blocks
of at most ``MC_CHUNK_ROWS`` draws, which ``mc_entropy`` and
``mc_robust_probs_estimate`` each reduce in one pass with a working set
of a few blocks, and which ``vicinal_logits`` returns transposed as one
(n, C) array. This is still explicit feature sampling: every draw
is a d-dimensional standard normal, consumed from the generator in the
same order and number as ``vicinal_batch`` takes them, so a seed gives the
same draws as the (n, d) feature sample would. Nothing here uses
K = A Sigma A^T or samples in class space, so the oracle stays independent
of the closed forms it checks. ``vicinal_batch`` remains the explicit
(n, d) feature sample, the reference the folded path is tested against.

Certification is over a committed seeded instance set; the upper-bound
check does not hold universally: in extreme-confidence
instances the ratio-of-expectations prediction underweights tail classes
relative to the true mean prediction, and the sampled mean entropy can
genuinely exceed the closed form by a few percent. ``bound_sweep``
therefore reports violations rather than hiding them, and the committed
default instance set (see the run-config ``mc.seed``) passes in full.
Each instance samples its own seeded generator, so ``bound_sweep`` samples
them on a pool of one thread per CPU (the generator and NumPy's array loops
release the interpreter lock), each thread with its own working set of a
few blocks, and still reports them in instance order, bit for bit as a
serial loop would.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core_math import (
    ClassifierHead,
    DiagCovariance,
    DimensionMismatch,
    _check_feature,
    _check_sigma,
    augmented_entropy,
)
from .rng import substream

__all__ = [
    "McEstimate",
    "BoundGapReport",
    "BOUND_ATOL",
    "MC_CHUNK_ROWS",
    "vicinal_batch",
    "vicinal_logits",
    "mc_entropy",
    "mc_robust_probs_estimate",
    "bound_gap_report",
    "random_instance",
    "bound_sweep",
]

# Absolute slack for the bound check: at Sigma = 0 the Monte-Carlo mean and
# the closed form agree only to float rounding while the stderr is ~0, so a
# strict >= -3*stderr test would flip on the last bit.
BOUND_ATOL = 1e-9

FULL_MC_SAMPLES = 100_000

# Draws per logit block: the estimators' working set is a few (C, MC_CHUNK_ROWS)
# and (MC_CHUNK_ROWS, d) arrays whatever n is, and ``bound_sweep`` holds one
# such set per thread, so larger blocks show in the process's peak RSS
# (8192 rows read +7% on the certification sweep). Smaller blocks spend more
# of each instance handing the interpreter lock between threads: 512 rows
# made the sweep about 1.5x slower than 2048.
MC_CHUNK_ROWS = 2048


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error."""

    mean: float
    stderr: float
    n_samples: int


@dataclass(frozen=True)
class BoundGapReport:
    """Closed form vs Monte-Carlo estimate of the expected entropy.

    satisfied is True iff gap >= -(3*stderr + BOUND_ATOL), i.e. the
    closed form upper-bounds the sampled mean within a 3-standard-error
    band plus a tiny float slack.
    """

    l_ae: float
    mc: McEstimate
    gap: float
    satisfied: bool


def vicinal_batch(z, sigma: DiagCovariance, rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, d) matrix of independent draws from N(z, Sigma)."""
    z = np.asarray(z, dtype=np.float64)
    if sigma.dim != z.shape[-1]:
        raise DimensionMismatch(f"covariance has dim {sigma.dim}, feature has dim {z.shape[-1]}")
    return z[None, :] + rng.standard_normal((n, z.shape[0])) * np.sqrt(sigma.variances)[None, :]


def _logit_blocks(head: ClassifierHead, z, sigma: DiagCovariance, rng: np.random.Generator, n: int):
    """Class-major (C, m) head logits of n draws from N(z, Sigma), m <= MC_CHUNK_ROWS.

    Block k is ``scaled @ eps_k.T + shift`` with ``scaled = A diag(sqrt(sigma^2))``
    and ``shift = A z + b`` folded once, and ``eps_k`` the next (m, d)
    standard normals: the blocks take the same normals, in the same order
    and number, as one (n, d) draw. The inputs are checked before the first
    block is drawn. Every block is written into the same buffer, so a block
    is overwritten by the next one.
    """
    z = _check_feature(head, z)
    _check_sigma(head, sigma)
    scaled = head.weights * np.sqrt(sigma.variances)[None, :]
    shift = (head.weights @ z + head.biases)[:, None]
    block = np.empty((head.n_classes, min(n, MC_CHUNK_ROWS)))
    for start in range(0, n, MC_CHUNK_ROWS):
        m = min(MC_CHUNK_ROWS, n - start)
        L = np.matmul(scaled, rng.standard_normal((m, z.shape[0])).T, out=block[:, :m])
        L += shift
        yield L


def vicinal_logits(
    head: ClassifierHead,
    z,
    sigma: DiagCovariance,
    rng: np.random.Generator,
    n: int,
) -> np.ndarray:
    """(n, C) head logits of n independent draws from N(z, Sigma).

    Equals ``vicinal_batch(z, sigma, rng, n) @ A.T + b`` up to rounding and
    takes the same n*d standard normals from ``rng``, but folds the noise
    scale into the head, so the (n, d) feature sample is never formed. It is
    the transpose of the estimators' class-major logit blocks.
    """
    out = np.empty((head.n_classes, n))
    start = 0
    for L in _logit_blocks(head, z, sigma, rng, n):
        out[:, start:start + L.shape[1]] = L
        start += L.shape[1]
    return out.T


def _check_samples(n: int) -> None:
    if n < 2:
        raise ValueError(f"need n >= 2 samples, got {n}")


def _entropy_cols(L: np.ndarray) -> np.ndarray:
    """Per-column softmax entropy of a class-major logit block, overwriting the block."""
    L -= L.max(axis=0)
    e = np.exp(L)
    s = e.sum(axis=0)
    e *= L
    return np.log(s) - e.sum(axis=0) / s


def mc_entropy(
    head: ClassifierHead,
    z,
    sigma: DiagCovariance,
    n: int,
    rng: np.random.Generator,
) -> McEstimate:
    """Sample mean of the per-draw prediction entropy over n vicinal draws.

    The draws come as class-major logit blocks of at most MC_CHUNK_ROWS
    columns, which consume the generator exactly as one (n, d) draw would,
    so the estimate does not depend on the chunk size beyond rounding. Per
    block, with L' = L - colmax(L), e = exp(L') and s = sum(e) over the
    classes, the entropy of a draw is log(s) - sum(e * L') / s: both terms
    are >= 0, so nothing cancels, and each reduction over the C classes is
    C elementwise passes over contiguous rows of length m. Each block's
    mean and sum of squared deviations about it are merged into the running
    ones by the pairwise update of Chan et al., so nothing of length n is
    kept.
    """
    _check_samples(n)
    count, mean, m2 = 0, 0.0, 0.0
    for L in _logit_blocks(head, z, sigma, rng, n):
        ent = _entropy_cols(L)
        block_mean = ent.mean()
        ent -= block_mean
        m = ent.shape[0]
        count += m
        delta = block_mean - mean
        mean += delta * (m / count)
        m2 += ent @ ent + delta * delta * (count - m) * m / count
    return McEstimate(float(mean), float(np.sqrt(m2 / (n - 1)) / np.sqrt(n)), n)


def mc_robust_probs_estimate(
    head: ClassifierHead,
    z,
    sigma: DiagCovariance,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """(probs, stderr) for the ratio-of-means estimator, in one pass over the blocks.

    With U = exp(L - M) per draw (M a running logit max; the shift cancels
    in the ratio) and s = sum(U) over the classes, probs = sum(U) / sum(s)
    over the draws. The per-coordinate standard errors come from the
    delta-method residuals (U - probs * s) / mean(s). Their sum of squares
    is kept about the running ratio p of the draws so far, as in a
    streaming variance: with a = U - p * s, each block first moves the sums
    so far to its new ratio p' = p + delta,

        sum (a - delta s)^2 = sum a^2 - 2 delta sum a s + delta^2 sum s^2,
        sum (a - delta s) s = sum a s - delta sum s^2,

    then adds its own draws about p'. delta shrinks as the draws add up, so
    nothing cancels catastrophically, and after the last block the sums are
    about probs itself. When a block raises M, the sums so far are rescaled
    by exp(old M - new M) (squared for the second moments). The working set
    is a few blocks whatever n is.
    """
    _check_samples(n)
    C = head.n_classes
    top = -np.inf
    ratio = np.zeros(C)
    sum_u, sum_s = np.zeros(C), 0.0
    sum_aa, sum_as, sum_ss = np.zeros(C), np.zeros(C), 0.0
    for L in _logit_blocks(head, z, sigma, rng, n):
        block_top = L.max()
        if block_top > top:
            r = np.exp(top - block_top)
            sum_u *= r
            sum_s *= r
            sum_aa *= r * r
            sum_as *= r * r
            sum_ss *= r * r
            top = block_top
        L -= top
        U = np.exp(L, out=L)
        s = U.sum(axis=0)
        sum_u += U.sum(axis=1)
        sum_s += s.sum()
        delta = sum_u / sum_s - ratio
        ratio += delta
        sum_aa += delta * (delta * sum_ss - 2.0 * sum_as)
        sum_as -= delta * sum_ss
        U -= ratio[:, None] * s
        sum_aa += np.einsum("ij,ij->i", U, U)
        sum_as += U @ s
        sum_ss += s @ s
    den = sum_s / n
    return ratio, np.sqrt(np.maximum(sum_aa, 0.0) / (n - 1)) / den / np.sqrt(n)


def bound_gap_report(
    head: ClassifierHead,
    z,
    sigma: DiagCovariance,
    mc: McEstimate,
) -> BoundGapReport:
    """Certify that the closed-form loss upper-bounds the sampled mean entropy ``mc``."""
    l_ae = augmented_entropy(head, z, sigma)
    gap = l_ae - mc.mean
    satisfied = gap >= -(3.0 * mc.stderr + BOUND_ATOL)
    return BoundGapReport(l_ae=l_ae, mc=mc, gap=float(gap), satisfied=bool(satisfied))


def random_instance(
    rng: np.random.Generator,
    c_max: int = 10,
    d_max: int = 16,
    sigma_scale: float = 1.5,
) -> tuple[ClassifierHead, np.ndarray, DiagCovariance]:
    """Random (head, feature, covariance) triple for certification sweeps.

    Prototype rows scale like 1/sqrt(d) (the regime a fitted head operates
    in), keeping the per-class quadratic forms O(1): the sampled exponential
    moments then converge at the certification sample sizes, whereas
    full-scale rows give lognormal tails whose sample means need far more
    than 1e5 draws.
    """
    C = int(rng.integers(2, c_max + 1))
    d = int(rng.integers(2, d_max + 1))
    head = ClassifierHead(
        rng.standard_normal((C, d)) / np.sqrt(d),
        0.5 * rng.standard_normal(C),
    )
    z = rng.standard_normal(d)
    sigma = DiagCovariance(sigma_scale * rng.uniform(0.0, 1.0, d))
    return head, z, sigma


def _n_threads(n_instances: int) -> int:
    """One thread per CPU this process may run on, at most one per instance."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, n_instances))


def bound_sweep(
    master_seed: int,
    n_instances: int = 50,
    n_samples: int = FULL_MC_SAMPLES,
    c_max: int = 10,
    d_max: int = 16,
    sigma_scale: float = 1.5,
) -> list[BoundGapReport]:
    """One bound-gap report per seeded random instance, in instance order.

    Instance i draws both its parameters and its Monte-Carlo noise from the
    (master_seed, "bounds", i) substream, so the sweep is reproducible and
    its instances are sampled concurrently, on a pool of one thread per
    CPU, each instance on its own generator: the reports are the serial
    loop's bit for bit. The caller waits for the instances in order and
    calls ``bound_gap_report`` on each, once, in instance order. When an
    instance fails (an interrupt included), the caller raises its exception
    on reaching it, that is once every earlier instance has finished; the
    instances that have not started by then are cancelled, and the ones
    running are waited for.
    """

    def sample(i: int) -> tuple:
        gen = substream(master_seed, "bounds", i)
        head, z, sigma = random_instance(gen, c_max=c_max, d_max=d_max, sigma_scale=sigma_scale)
        return head, z, sigma, mc_entropy(head, z, sigma, n_samples, gen)

    pool = ThreadPoolExecutor(_n_threads(n_instances), thread_name_prefix="bound_sweep")
    try:
        futures = [pool.submit(sample, i) for i in range(n_instances)]
        return [bound_gap_report(*f.result()) for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)
