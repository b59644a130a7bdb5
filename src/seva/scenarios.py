"""Synthetic desk-scale worlds and streaming protocols.

A world is a set of well-separated class prototypes in input space; clean
samples are Gaussian clouds around them. Corruptions perturb inputs with a
severity knob (1..5) whose expected perturbation magnitude is strictly
increasing. Streams order samples by a label schedule (uniform, rotating
single-class-dominated segments, or a continuously drifting distribution)
and a corruption schedule (one fixed corruption, or a mixture switching at
segment boundaries). Labels travel next to the inputs for evaluators only;
the adaptation engine never receives them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .adapt import RunTrace, sgd_momentum_step
from .core_math import ClassifierHead, softmax_rows
from .model import ToyNetwork, forward_features_batch
from .rng import substream

__all__ = [
    "World",
    "CorruptionSpec",
    "LabelSchedule",
    "CorruptionSchedule",
    "StreamSpec",
    "Batch",
    "SelectionScore",
    "InfeasibleWorldError",
    "CORRUPTION_KINDS",
    "make_world",
    "sample_clean",
    "corrupt_batch",
    "generate_stream",
    "fit_head",
    "selection_f1",
]

CORRUPTION_KINDS = ("additive_noise", "feature_scale", "rotation_mix", "occlusion_mask")
LABEL_SCHEDULES = ("uniform", "imbalanced", "online_shifting")

# Per-severity magnitudes: noise variance grows linearly (std ~ sqrt(s)),
# per-coordinate gain spread, rotation angle and masked fraction grow linearly.
NOISE_BASE_STD = 0.45
GAIN_LOG_STEP = 0.25
ROTATION_STEP = math.pi / 12
OCCLUSION_STEP = 0.1


class InfeasibleWorldError(RuntimeError):
    """Prototype sampling could not satisfy the separation floor."""


@dataclass(frozen=True)
class World:
    """Class prototypes plus the within-class noise scale."""

    prototypes: np.ndarray  # (C, d_in)
    within_scale: float
    seed: int

    @property
    def n_classes(self) -> int:
        return self.prototypes.shape[0]

    @property
    def d_in(self) -> int:
        return self.prototypes.shape[1]


@dataclass(frozen=True)
class CorruptionSpec:
    kind: str
    severity: int  # 0 = identity edge case, 1..5 increasing magnitude

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(f"unknown corruption kind '{self.kind}'")
        if not (0 <= self.severity <= 5):
            raise ValueError(f"severity must be in 0..5, got {self.severity}")


@dataclass(frozen=True)
class LabelSchedule:
    """uniform | imbalanced (rotating dominated segments) | online_shifting.

    ``dominance`` is the probability of the segment's dominant class
    (1.0 reproduces the infinite-imbalance protocol: single-class
    segments rotating over classes). ``segment_len`` is in samples.
    """

    kind: str = "uniform"
    dominance: float = 1.0
    segment_len: int = 64
    shift_concentration: float = 4.0

    def __post_init__(self):
        if self.kind not in LABEL_SCHEDULES:
            raise ValueError(f"unknown label schedule '{self.kind}'")
        if not (0.0 < self.dominance <= 1.0):
            raise ValueError(f"dominance must be in (0, 1], got {self.dominance}")
        if self.segment_len < 1:
            raise ValueError(f"segment_len must be >= 1, got {self.segment_len}")


@dataclass(frozen=True)
class CorruptionSchedule:
    """One spec throughout, or a mixture switching specs at segment boundaries."""

    specs: tuple[CorruptionSpec, ...]
    segment_len: int = 0  # samples per mixture segment; 0 = split evenly

    def __post_init__(self):
        if len(self.specs) < 1:
            raise ValueError("corruption schedule needs at least one spec")
        if self.segment_len < 0:
            raise ValueError(f"segment_len must be >= 0, got {self.segment_len}")


@dataclass(frozen=True)
class StreamSpec:
    label_schedule: LabelSchedule
    corruption_schedule: CorruptionSchedule
    batch_size: int
    n_batches: int
    seed: int

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.n_batches < 1:
            raise ValueError(f"n_batches must be >= 1, got {self.n_batches}")

    @property
    def n_samples(self) -> int:
        return self.batch_size * self.n_batches


class Batch(NamedTuple):
    inputs: np.ndarray  # (B, d_in)
    labels: np.ndarray  # (B,) hidden from the engine, for evaluators only


def make_world(
    seed: int,
    C: int,
    d_in: int,
    within_scale: float = 0.3,
    proto_scale: float = 2.0,
    min_separation: float = 2.0,
    max_retries: int = 200,
    cluster_size: int = 1,
    cluster_spread: float = 2.5,
) -> World:
    """Sample C prototypes with all pairwise distances >= min_separation.

    cluster_size > 1 groups classes into clusters of nearby prototypes
    (sibling classes ``cluster_spread`` apart, clusters much farther), so
    class-pair distances span a wide range: confusions between siblings
    are cheap, confusions across clusters are rare but damaging.
    """
    if C < 2:
        raise ValueError(f"need C >= 2 classes, got {C}")
    rng = substream(seed, "world")
    for _ in range(max_retries):
        if cluster_size <= 1:
            protos = proto_scale * rng.standard_normal((C, d_in))
        else:
            n_clusters = -(-C // cluster_size)
            centers = proto_scale * rng.standard_normal((n_clusters, d_in))
            rows = []
            for center in centers:
                direction = rng.standard_normal(d_in)
                direction /= np.linalg.norm(direction)
                for k in range(cluster_size):
                    if len(rows) == C:
                        break
                    offset = (k - (cluster_size - 1) / 2) * cluster_spread
                    rows.append(center + offset * direction)
            protos = np.stack(rows)
        dists = np.linalg.norm(protos[:, None, :] - protos[None, :, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        if dists.min() >= min_separation:
            return World(protos, within_scale, seed)
    raise InfeasibleWorldError(
        f"no prototype set with pairwise separation >= {min_separation} "
        f"found in {max_retries} tries (C={C}, d_in={d_in}, scale={proto_scale})"
    )


def sample_clean(world: World, rng: np.random.Generator, labels: np.ndarray) -> np.ndarray:
    """Clean inputs around the labelled prototypes."""
    labels = np.asarray(labels)
    noise = rng.standard_normal((labels.shape[0], world.d_in))
    return world.prototypes[labels] + world.within_scale * noise


def corrupt_batch(X: np.ndarray, spec: CorruptionSpec, rng: np.random.Generator) -> np.ndarray:
    """Apply one corruption to a batch; severity 0 is the identity."""
    X = np.asarray(X, dtype=np.float64)
    s = spec.severity
    if s == 0:
        return X.copy()
    if spec.kind == "additive_noise":
        # E||x' - x||^2 = s * NOISE_BASE_STD^2 * d_in
        return X + math.sqrt(s) * NOISE_BASE_STD * rng.standard_normal(X.shape)
    if spec.kind == "feature_scale":
        # fixed per-coordinate gain miscalibration: one log-normal gain vector
        # per corruption segment, spread growing with severity
        gains = np.exp(GAIN_LOG_STEP * s * rng.standard_normal(X.shape[1]))
        return X * gains[None, :]
    if spec.kind == "rotation_mix":
        theta = ROTATION_STEP * s
        out = X.copy()
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        d = X.shape[1]
        for k in range(0, d - 1, 2):
            a, b = X[:, k], X[:, k + 1]
            out[:, k] = cos_t * a - sin_t * b
            out[:, k + 1] = sin_t * a + cos_t * b
        return out
    # occlusion_mask: zero a fixed random fraction of coordinates, the same
    # mask for the whole batch (one systematic occlusion per corruption segment)
    d = X.shape[1]
    n_masked = int(round(OCCLUSION_STEP * s * d))
    idx = rng.permutation(d)[:n_masked]
    out = X.copy()
    out[:, idx] = 0.0
    return out


def _draw_labels(spec: StreamSpec, C: int, rng: np.random.Generator) -> np.ndarray:
    sched = spec.label_schedule
    total = spec.n_samples
    if sched.kind == "uniform":
        return rng.integers(0, C, total)
    if sched.kind == "imbalanced":
        labels = np.empty(total, dtype=np.int64)
        for start in range(0, total, sched.segment_len):
            stop = min(start + sched.segment_len, total)
            dominant = (start // sched.segment_len) % C
            seg = np.full(stop - start, dominant, dtype=np.int64)
            if sched.dominance < 1.0:
                others = [c for c in range(C) if c != dominant]
                flip = rng.random(stop - start) >= sched.dominance
                seg[flip] = rng.choice(others, size=int(flip.sum()))
            labels[start:stop] = seg
        return labels
    # online_shifting: mode of a soft categorical drifts once around the classes
    t = np.arange(total) / total
    classes = np.arange(C)
    angles = 2.0 * math.pi * (classes[None, :] / C - t[:, None])
    weights = np.exp(sched.shift_concentration * np.cos(angles))
    weights /= weights.sum(axis=1, keepdims=True)
    u = rng.random(total)
    return (weights.cumsum(axis=1) > u[:, None]).argmax(axis=1).astype(np.int64)


def _corruption_segments(spec: StreamSpec) -> list[tuple[int, int, CorruptionSpec]]:
    sched = spec.corruption_schedule
    total = spec.n_samples
    if len(sched.specs) == 1:
        return [(0, total, sched.specs[0])]
    seg_len = sched.segment_len or max(1, total // len(sched.specs))
    segments = []
    start = 0
    i = 0
    while start < total:
        stop = min(start + seg_len, total)
        segments.append((start, stop, sched.specs[i % len(sched.specs)]))
        start = stop
        i += 1
    return segments


def generate_stream(world: World, spec: StreamSpec) -> list[Batch]:
    """Materialize the full ordered stream of (inputs, hidden labels) batches.

    The batches are read-only views: one stream serves several cells, and
    an engine matches look-ahead batches by identity, so an in-place write
    raises instead of silently changing what later cells see.
    """
    rng = substream(spec.seed, "stream")
    labels = _draw_labels(spec, world.n_classes, rng)
    X = sample_clean(world, rng, labels)
    for start, stop, cspec in _corruption_segments(spec):
        X[start:stop] = corrupt_batch(X[start:stop], cspec, rng)
    X.flags.writeable = False
    labels.flags.writeable = False
    batches = []
    for b in range(spec.n_batches):
        sl = slice(b * spec.batch_size, (b + 1) * spec.batch_size)
        batches.append(Batch(inputs=X[sl], labels=labels[sl]))
    return batches


def fit_head(
    net: ToyNetwork,
    world: World,
    seed: int,
    n_train_per_class: int = 100,
    n_eval_per_class: int = 50,
    refine_steps: int = 300,
    lr: float = 0.5,
    momentum: float = 0.9,
    weight_decay: float = 0.05,
) -> tuple[ClassifierHead, float]:
    """Fit the classifier head on clean source data from the world.

    Nearest-class-mean initialization in feature space (head rows are the
    class prototypes) followed by full-batch softmax-regression refinement;
    returns the fitted head and its clean held-out accuracy. The network's
    extractor is used frozen, at its current (gamma, beta). Weight decay
    keeps the prototype norms moderate so prediction confidence stays
    calibrated rather than saturating.
    """
    rng = substream(seed, "head-fit")
    C = world.n_classes
    y_train = np.repeat(np.arange(C), n_train_per_class)
    F = forward_features_batch(net, sample_clean(world, rng, y_train))
    d = F.shape[1]

    means = np.stack([F[y_train == c].mean(axis=0) for c in range(C)])
    A = means.copy()
    b = -0.5 * (means * means).sum(axis=1)

    params = np.concatenate([A.ravel(), b])
    velocity = np.zeros_like(params)
    n = F.shape[0]
    rows = np.arange(n)
    for _ in range(refine_steps):
        A = params[: C * d].reshape(C, d)
        b = params[C * d :]
        L = F @ A.T
        L += b
        G = softmax_rows(L)
        G[rows, y_train] -= 1.0  # softmax minus one-hot labels, the residual
        gA = G.T @ F / n + weight_decay * A
        gb = G.mean(axis=0)
        params, velocity = sgd_momentum_step(params, np.concatenate([gA.ravel(), gb]), velocity, lr, momentum)
    head = ClassifierHead(params[: C * d].reshape(C, d), params[C * d :])

    y_eval = np.repeat(np.arange(C), n_eval_per_class)
    F_eval = forward_features_batch(net, sample_clean(world, rng, y_eval))
    pred = (F_eval @ head.weights.T + head.biases).argmax(axis=1)
    return head, float((pred == y_eval).mean())


@dataclass(frozen=True)
class SelectionScore:
    """Selected-vs-reliable agreement; a sample is reliable iff its
    pre-update prediction matches the hidden label."""

    precision: float
    recall: float
    f1: float
    empty_selection: bool


def selection_f1(run: RunTrace) -> SelectionScore:
    """F1 of the selection decisions against the reliable-sample criterion.

    Precision is defined as 0 on an empty selection (flagged); recall is 0
    when no sample is reliable.
    """
    selected = run.concat("selected").astype(bool)
    predicted = run.concat("predicted")
    reliable = predicted == np.concatenate(run.labels)
    tp = int((selected & reliable).sum())
    n_sel = int(selected.sum())
    n_rel = int(reliable.sum())
    precision = tp / n_sel if n_sel else 0.0
    recall = tp / n_rel if n_rel else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return SelectionScore(precision, recall, f1, empty_selection=n_sel == 0)
