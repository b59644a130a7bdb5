"""Online test-time adaptation engine.

One engine owns one network for one streaming pass. Per batch it predicts
(before any update), scores each sample with the method's loss, applies
the method's selection rule, and, iff at least one sample was selected,
applies the method's update rule to the selected samples. An optimizer
step whose gradient is not finite is skipped. A method kind is one row of
``RECIPES``:

==================  =================  ===============  =======================
kind                loss               selection        update
==================  =================  ===============  =======================
``seva``            augmented entropy  loss < rho ln C  one step
``tent``            entropy            all              one step
``entropy_select``  entropy            loss < rho ln C  one step
``explicit_va``     entropy            loss < rho ln C  ``rounds`` steps, each
                                                        a fresh forward plus one
                                                        vicinal draw per sample
``no_adapt``        entropy            none             none
==================  =================  ===============  =======================

"One step" is one SGD-with-momentum step on the mean loss of the selected
samples. Selection is strict: a sample trains only if its loss is
< rho * ln(C). Labels never enter the engine; ``run_stream`` is the
evaluator that compares the engine's pre-update predictions against the
hidden labels.

``run_stream`` reads its stream once. A sequence has a known future: its
inputs go to the engine first, with ``replay(inputs)``. Any other iterable
is stepped batch by batch as it arrives, with no plan;
``adapt_step(inputs)`` alone is the causal API. The plan is the leading
run of non-empty numeric batches of the first batch's shape. A step is on
the plan iff its input is the plan's next batch (the same object); any
other input ends the plan. On the plan the engine reuses two kinds of work
on (batches, B, ·) stacks, each batch of a stack with the bits of its own
step. Group norm is per sample, so a sample's feature, loss and prediction
do not depend on the rows scored beside it: after m steps in a row without
an update, an on-plan step with no score scores the next 2^m plan batches
as one block (capped at the plan's end; a single batch is no block), and
later steps are served from it until an update or ``calibrate`` drops the
scores. A served batch that selects samples runs its forward pass and loss
again, at the same parameters, for the caches its update needs. Only the
group-norm affine adapts, so each batch's first-layer "stem"
(``model.forward_stem``) depends on its input alone: the plan's first
forward pass computes the stems of every plan batch, and every forward on
the plan starts from them. They are held, across updates, until the plan
ends. The step that does the work is charged for it.
``Counters.n_forward`` counts each scored sample once, at the step that
reports it; block rows that an update drops are not counted.
"""

from __future__ import annotations

import math
import numbers
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import takewhile
from typing import Callable

import numpy as np

from .core_math import AugmentedEntropyLoss, DiagCovariance, EntropyLoss
from .model import (
    LayerCache,
    ToyNetwork,
    adaptable_params,
    backward_adaptable,
    calibrate_covariance,
    check_input,
    forward_features_batch,
    forward_stem,
    forward_with_caches,
    set_adaptable_params,
)
from .rng import substream

__all__ = [
    "MethodConfig",
    "StepReport",
    "RunTrace",
    "Counters",
    "AdaptEngine",
    "threshold_default",
    "sgd_momentum_step",
    "run_stream",
]


# Look-ahead blocks are scored, and the plan's stems computed, in stacks of
# at most this many rows (at least one batch each): that bounds their
# temporaries, which one unchunked pass grows by megabytes.
BLOCK_CHUNK_ROWS = 256


def _below_threshold(losses: np.ndarray, threshold: float) -> np.ndarray:
    return losses < threshold


def _select_all(losses: np.ndarray, threshold: float) -> np.ndarray:
    return np.ones(losses.shape[0], dtype=bool)


def _select_none(losses: np.ndarray, threshold: float) -> np.ndarray:
    return np.zeros(losses.shape[0], dtype=bool)


def _one_step(engine: "AdaptEngine", X, caches, pullback, selected, n_selected: int) -> None:
    d_feat = pullback()
    if n_selected != len(selected):
        # Unselected rows are zeroed in the cached activations too: a zero
        # feature gradient times a non-finite activation would still be NaN.
        keep = selected[:, None]
        d_feat = np.where(keep, d_feat, 0.0)
        caches = [
            LayerCache(
                normalized=np.where(keep, c.normalized, 0.0),
                inv_std=np.where(keep, c.inv_std, 0.0),
                output=np.where(keep, c.output, 0.0),
            )
            for c in caches
        ]
    grads = backward_adaptable(engine.net, caches, d_feat / n_selected)
    engine.counters.n_backward += n_selected
    engine._optimizer_step(grads)


def _vicinal_rounds(engine: "AdaptEngine", X, caches, pullback, selected, n_selected: int) -> None:
    std = np.sqrt(engine.sigma.variances)
    X_sel = X[selected]
    for _ in range(engine.method.rounds):
        f_sel, c_sel = forward_with_caches(engine.net, X_sel)
        engine.counters.n_forward += n_selected
        noisy = f_sel + engine._va_rng.standard_normal(f_sel.shape) * std[None, :]
        noisy_pullback = engine.loss.value_and_pullback(noisy)[1]
        grads = backward_adaptable(engine.net, c_sel, noisy_pullback() / n_selected)
        engine.counters.n_backward += n_selected
        engine._optimizer_step(grads)


def _entropy(head, sigma) -> EntropyLoss:
    return EntropyLoss(head)


@dataclass(frozen=True)
class Recipe:
    """What a method kind does with a batch.

    ``loss`` builds the loss object from (head, covariance); ``select``
    maps (per-sample losses, threshold) to a boolean mask; ``update``
    trains on the selected samples (None: the method never updates, so its
    selection must be empty). ``needs_sigma`` says the method cannot run
    before the covariance is calibrated; ``has_rounds`` says it honours
    ``MethodConfig.rounds``.
    """

    loss: Callable
    select: Callable[[np.ndarray, float], np.ndarray]
    update: Callable | None
    needs_sigma: bool = False
    has_rounds: bool = False


RECIPES = {
    "seva": Recipe(AugmentedEntropyLoss, _below_threshold, _one_step, needs_sigma=True),
    "tent": Recipe(_entropy, _select_all, _one_step),
    "entropy_select": Recipe(_entropy, _below_threshold, _one_step),
    "explicit_va": Recipe(_entropy, _below_threshold, _vicinal_rounds, needs_sigma=True, has_rounds=True),
    "no_adapt": Recipe(_entropy, _select_none, None),
}


@dataclass(frozen=True)
class MethodConfig:
    """Method kind plus its hyperparameters.

    threshold_rho scales the selection boundary rho * ln(C); sigma_scale
    multiplies the calibrated feature variances; rounds is the number of
    update rounds (1 unless the kind's recipe has rounds).
    """

    kind: str
    threshold_rho: float = 1.0
    sigma_scale: float = 1.5
    lr: float = 0.01
    momentum: float = 0.9
    rounds: int = 1

    def __post_init__(self):
        if self.kind not in RECIPES:
            raise ValueError(f"unknown method kind '{self.kind}'")
        recipe = self.recipe
        if recipe.update is not None and not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0 for method '{self.kind}', got {self.lr}")
        if recipe.update is not None and not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1) for method '{self.kind}', got {self.momentum}")
        for key in ("lr", "momentum"):  # finite for every kind, so a resolved config is strict JSON
            if not -math.inf < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if not 0 <= self.sigma_scale < math.inf:
            raise ValueError(f"sigma_scale must be finite and >= 0, got {self.sigma_scale}")
        if isinstance(self.rounds, bool) or not isinstance(self.rounds, numbers.Integral):
            raise ValueError(f"rounds must be an integer, got {self.rounds!r}")
        if recipe.has_rounds and self.rounds < 1:
            raise ValueError(f"rounds must be >= 1 for method '{self.kind}', got {self.rounds}")
        if not recipe.has_rounds and self.rounds != 1:
            raise ValueError(f"rounds must be 1 for method '{self.kind}', which has no rounds; got {self.rounds}")
        if not self.threshold_rho > 0:
            raise ValueError(f"threshold_rho must be > 0, got {self.threshold_rho}")

    @property
    def recipe(self) -> Recipe:
        return RECIPES[self.kind]

    @property
    def needs_sigma(self) -> bool:
        return self.recipe.needs_sigma


@dataclass
class Counters:
    """Per-sample work counters (calibration tracked separately)."""

    n_forward: int = 0
    n_backward: int = 0
    n_optimizer_steps: int = 0
    n_calibration_forward: int = 0


@dataclass
class StepReport:
    """Everything observable about one batch, predictions taken pre-update."""

    losses: np.ndarray
    selected: np.ndarray
    predicted: np.ndarray
    confidence: np.ndarray
    n_selected: int
    updated: bool  # at least one optimizer step was applied
    step_wall_time: float


@dataclass
class RunTrace:
    """Evaluator-side record of a full streaming pass."""

    steps: list[StepReport] = field(default_factory=list)
    labels: list[np.ndarray] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def accuracy(self) -> float:
        """Share of pre-update predictions that match the labels."""
        return float(np.mean(self.concat("predicted") == np.concatenate(self.labels))) if self.steps else 0.0

    def concat(self, attr: str) -> np.ndarray:
        return np.concatenate([getattr(s, attr) for s in self.steps])


def threshold_default(C: int, rho: float) -> float:
    """Selection boundary rho * ln(C); an infinite rho gives an infinite
    boundary for every C (at C = 1, inf * ln 1 would be NaN)."""
    if C < 1:
        raise ValueError(f"need C >= 1, got {C}")
    if not rho > 0:
        raise ValueError(f"need rho > 0, got {rho}")
    return math.inf if rho == math.inf else rho * math.log(C)


def sgd_momentum_step(
    params: np.ndarray,
    grads: np.ndarray,
    velocity: np.ndarray,
    lr: float,
    momentum: float,
) -> tuple[np.ndarray, np.ndarray]:
    """v <- momentum * v + g; theta <- theta - lr * v; returns (theta, v).
    No dampening, no Nesterov."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != velocity.shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, velocity {velocity.shape}"
        )
    velocity = momentum * velocity + grads
    return params - lr * velocity, velocity


class AdaptEngine:
    """Owns one network, its momentum buffer, and one method for a run.

    The covariance enters only through ``sigma=`` or ``calibrate()``; either
    one builds the method's loss object, which then scores every batch.
    """

    def __init__(
        self,
        net: ToyNetwork,
        method: MethodConfig,
        sigma: DiagCovariance | None = None,
        seed: int = 0,
    ):
        self.net = net
        self.method = method
        self.threshold = threshold_default(net.head.n_classes, method.threshold_rho)
        self.velocity = np.zeros_like(adaptable_params(net))  # momentum buffer, shaped like the flat parameters
        self.counters = Counters()
        self._va_rng = substream(seed, "vicinal-rounds")
        self._idle_steps = 0  # steps in a row without an update
        self._plan: list = []  # replay(): inputs of the coming batches, in order
        self._next = 0  # plan index of the next on-plan step
        self._stems = None  # the plan's (normalized, inv_std) stacks, from its first forward on
        self._scores: dict = {}  # plan index -> (losses, predicted, confidence)
        self._set_sigma(sigma)

    @property
    def sigma(self) -> DiagCovariance | None:
        return self._sigma

    def _set_sigma(self, sigma: DiagCovariance | None) -> None:
        self._scores.clear()
        self._sigma = sigma
        recipe = self.method.recipe
        self.loss = None if sigma is None and recipe.needs_sigma else recipe.loss(self.net.head, sigma)

    def calibrate(self, inputs) -> DiagCovariance:
        """Fix the vicinal covariance from a calibration batch (pre-adaptation)."""
        inputs = np.asarray(inputs, dtype=np.float64)
        self._set_sigma(calibrate_covariance(self.net, inputs, self.method.sigma_scale))
        self.counters.n_calibration_forward += inputs.shape[0]
        return self.sigma

    def _optimizer_step(self, grads: np.ndarray) -> None:
        """One SGD-with-momentum step; a non-finite gradient is skipped whole,
        leaving parameters, momentum and the step counter as they were."""
        if not np.isfinite(grads).all():
            return
        params = adaptable_params(self.net)
        new_params, self.velocity = sgd_momentum_step(
            params, grads, self.velocity, self.method.lr, self.method.momentum
        )
        set_adaptable_params(self.net, new_params)
        self.counters.n_optimizer_steps += 1

    def replay(self, inputs) -> None:
        """Plan the coming batches from the sequence of their inputs, the
        next one first: hold them up to the first that is not a numeric array
        of the first one's non-empty (B, d_in) shape, so that a malformed
        batch is never held (the plan's first forward converts every held
        batch) and fails at its own step, with its own error. Replaces any
        plan held; ``replay(())`` ends it."""
        shape = getattr(inputs[0], "shape", ()) if len(inputs) else ()
        if len(shape) != 2 or not shape[0] or shape[1] != self.net.d_in:
            inputs = ()
        self._plan = list(
            takewhile(lambda b: isinstance(b, np.ndarray) and b.dtype.kind in "biuf" and b.shape == shape, inputs)
        )
        self._next = 0
        self._stems = None
        self._scores.clear()

    def _chunks(self, lo: int, hi: int):
        """Slices of plan batches lo … hi−1, of at most BLOCK_CHUNK_ROWS rows
        (at least one batch) each."""
        step = max(1, BLOCK_CHUNK_ROWS // len(self._plan[0]))
        return (slice(a, min(a + step, hi)) for a in range(lo, hi, step))

    def _stem(self, part) -> tuple:
        """``(stem,)`` of plan batch ``part`` (an index) or of the stack of
        plan batches ``part`` (a slice), or ``()`` on a network without
        layers: the extra argument of a forward that starts from it. The
        first call computes the stems of every plan batch into one (batches,
        B, channels) and one (batches, B, groups) array, a chunk at a time."""
        if not self.net.layers:
            return ()
        if self._stems is None:
            layer, shape = self.net.layers[0], (len(self._plan), len(self._plan[0]))
            self._stems = np.empty(shape + (layer.channels,)), np.empty(shape + (layer.groups,))
            for chunk in self._chunks(0, len(self._plan)):
                self._stems[0][chunk], self._stems[1][chunk] = forward_stem(self.net, np.stack(self._plan[chunk]))
        return (tuple(s[part] for s in self._stems),)

    def _score_block(self, i: int) -> None:
        """Losses, predictions and confidences of plan batches i … i+2^m−1
        after m idle steps, at the current parameters, a stack at a time,
        each from its stems."""
        end = min(i + (1 << self._idle_steps), len(self._plan))
        if end - i < 2:
            return
        for chunk in self._chunks(i, end):
            feats = forward_features_batch(self.net, np.stack(self._plan[chunk]), *self._stem(chunk))
            losses, _, probs = self.loss.value_and_pullback(feats)
            scores = zip(losses, probs.argmax(axis=-1), probs.max(axis=-1))
            self._scores.update(zip(range(chunk.start, chunk.stop), scores))

    def adapt_step(self, inputs) -> StepReport:
        """Predict, score, select, and (maybe) update on one batch."""
        X = check_input(self.net, inputs)
        if X.shape[0] == 0:
            raise ValueError("empty batch")
        if self.loss is None:
            raise RuntimeError(f"method '{self.method.kind}' requires calibration first")
        t0 = time.perf_counter()
        recipe = self.method.recipe
        i = self._next
        on_plan = i < len(self._plan) and self._plan[i] is inputs
        if not on_plan and self._plan:
            self.replay(())  # any other input ends the plan
        served = None
        if on_plan:
            self._next = i + 1
            if self._idle_steps and i not in self._scores:
                self._score_block(i)
            served = self._scores.pop(i, None)

        if served is None:
            feats, caches = forward_with_caches(self.net, X, *(self._stem(i) if on_plan else ()))
            losses, pullback, probs = self.loss.value_and_pullback(feats)
            predicted, confidence = probs.argmax(axis=1), probs.max(axis=1)
        else:
            losses, predicted, confidence = served
        self.counters.n_forward += X.shape[0]
        selected = recipe.select(losses, self.threshold)
        n_selected = int(np.count_nonzero(selected))
        steps_before = self.counters.n_optimizer_steps
        if n_selected > 0:
            if served is not None:
                feats, caches = forward_with_caches(self.net, X, *self._stem(i))
                pullback = self.loss.value_and_pullback(feats)[1]
            recipe.update(self, X, caches, pullback, selected, n_selected)
        updated = self.counters.n_optimizer_steps > steps_before
        if updated:
            self._idle_steps = 0
            self._scores.clear()
        else:
            self._idle_steps += 1

        return StepReport(
            losses=losses,
            selected=selected,
            predicted=predicted,
            confidence=confidence,
            n_selected=n_selected,
            updated=updated,
            step_wall_time=time.perf_counter() - t0,
        )


def run_stream(engine: AdaptEngine, stream) -> RunTrace:
    """Single ordered pass that reads ``stream`` once; online accuracy from
    pre-update predictions.

    ``stream`` yields batches exposing ``inputs`` and ``labels``; only the
    inputs ever reach the engine, one ``adapt_step`` call per batch, in
    order. A ``Sequence`` first hands all of them to ``engine.replay``, which
    lets the engine reuse scores and stems (see the module docstring); the
    plan ends with the stream, so the engine holds no stem past it. Any
    other iterable is stepped as it arrives, with no plan:
    ``run_stream(engine, iter(stream))`` is the causal pass. The trace keeps
    its own copy of each batch's labels, so a loader may reuse its buffers;
    a batch without one label per input fails at its own step.
    """
    if engine.method.needs_sigma and engine.sigma is None:
        raise RuntimeError(f"method '{engine.method.kind}' requires calibration before streaming")
    if isinstance(stream, Sequence):
        engine.replay([b.inputs for b in stream])
    trace = RunTrace()
    t0 = time.perf_counter()
    try:
        for batch in stream:
            report = engine.adapt_step(batch.inputs)
            labels = np.array(batch.labels)
            if labels.shape != report.predicted.shape:  # accuracy pairs them up across the whole stream
                raise ValueError(f"step {len(trace.steps)}: {labels.shape} labels for {len(report.predicted)} inputs")
            trace.steps.append(report)
            trace.labels.append(labels)
        trace.wall_time = time.perf_counter() - t0
    finally:
        engine.replay(())
    return trace
