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

While the parameters stay fixed, ``run_stream`` lets the engine score the
coming batches as one block. Group norm is per sample, so a sample's
feature, loss and prediction do not depend on the rows scored beside it.
After m steps in a row without an update the engine is handed the next
2^m batches (capped at the rest of the stream); the ``adapt_step`` call
of the first of them scores the whole block, and each later call whose
input is the next block batch (the same object) is served from it. An
update, or any other input, drops the rest of the block. A served batch
that selects samples runs its forward pass and loss again, at the same
parameters and with the same bits, for the caches its update needs.
``Counters.n_forward`` counts each scored sample once, at the step that
reports it; block rows that an update drops are not counted.

Only the group-norm affine adapts, so each batch's first-layer "stem"
(``model.forward_stem``) depends on its input alone. ``run_stream`` also
hands the engine a window of coming batches, up to ``STEM_WINDOW_ROWS``
rows. The first ``adapt_step`` in the window that runs a forward pass
(scoring its batch or a look-ahead block, or recomputing a served batch
that selects samples) computes the stems of every batch left in the
window, and every later forward on a window batch starts from its stem,
with the same bits. Stems survive updates; a step whose input is not the
next window batch (the same object) drops the window.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import islice, takewhile
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
    "OptimizerState",
    "StepReport",
    "RunTrace",
    "Counters",
    "AdaptEngine",
    "threshold_default",
    "sgd_momentum_step",
    "run_stream",
]


# A look-ahead block is scored in chunks of whole batches of at most this
# many rows (at least one batch each): that bounds the loss's (rows, C)
# temporaries, which an unchunked 89-batch block grows by megabytes.
BLOCK_CHUNK_ROWS = 256

# A stem window holds the coming batches up to this many rows. The step
# that computes the window's stems pays for all of them, so the window is
# long enough to make such steps rare: at B=32 it is 64 batches, about 2
# window-start steps per 100-step stream, which stay out of the 95th
# percentile of step times (256-row windows put one in every 8 steps, and
# in every method's tail). At d=16 its stems hold about 330 KB.
STEM_WINDOW_ROWS = 2048


def _whole_batch_chunks(batches: list):
    """(lo, hi) runs of consecutive whole batches of at most
    BLOCK_CHUNK_ROWS rows, at least one batch each."""
    lo = 0
    while lo < len(batches):
        hi, rows = lo + 1, len(batches[lo])
        while hi < len(batches) and rows + len(batches[hi]) <= BLOCK_CHUNK_ROWS:
            rows += len(batches[hi])
            hi += 1
        yield lo, hi
        lo = hi


def _split(arrays: tuple, batches: list):
    """For each of ``batches`` in turn, its rows of every one of ``arrays``."""
    start = 0
    for b in batches:
        part = slice(start, start + len(b))
        yield tuple(a[part] for a in arrays)
        start = part.stop


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
        if not 0 <= self.sigma_scale < math.inf:
            raise ValueError(f"sigma_scale must be finite and >= 0, got {self.sigma_scale}")
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
class OptimizerState:
    """Momentum buffer, shaped like the flat adaptable-parameter vector."""

    velocity: np.ndarray

    @classmethod
    def zeros_like(cls, params: np.ndarray) -> "OptimizerState":
        return cls(np.zeros_like(params))


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
    n_samples: int = 0
    n_correct: int = 0
    wall_time: float = 0.0

    @property
    def accuracy(self) -> float:
        return self.n_correct / self.n_samples if self.n_samples else 0.0

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
    state: OptimizerState,
    lr: float,
    momentum: float,
) -> tuple[np.ndarray, OptimizerState]:
    """v <- momentum * v + g; theta <- theta - lr * v. No dampening, no Nesterov."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.velocity.shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, "
            f"velocity {state.velocity.shape}"
        )
    velocity = momentum * state.velocity + grads
    return params - lr * velocity, OptimizerState(velocity)


class AdaptEngine:
    """Owns one network, one optimizer state, and one method for a run.

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
        self.opt_state = OptimizerState.zeros_like(adaptable_params(net))
        self.counters = Counters()
        self._va_rng = substream(seed, "vicinal-rounds")
        self._idle_steps = 0  # steps in a row without an update
        self._ahead: deque = deque()  # look-ahead batch inputs not yet served
        self._scored: deque = deque()  # their (losses, predicted, confidence), once scored
        self._window: deque = deque()  # stem-window batch inputs, from this step's on
        self._stems: deque = deque()  # their forward_stem (normalized, inv_std), once computed
        self._set_sigma(sigma)

    @property
    def sigma(self) -> DiagCovariance | None:
        return self._sigma

    def _set_sigma(self, sigma: DiagCovariance | None) -> None:
        self._drop_look_ahead()
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
        new_params, self.opt_state = sgd_momentum_step(
            params, grads, self.opt_state, self.method.lr, self.method.momentum
        )
        set_adaptable_params(self.net, new_params)
        self.counters.n_optimizer_steps += 1

    @property
    def _block_size(self) -> int:
        """Batches to look ahead: 2^m after m steps in a row without an update."""
        return 1 << self._idle_steps

    def _leading_batches(self, upcoming):
        """The inputs of ``upcoming`` up to the first that is not an
        (n, d_in) array, so that a malformed batch is never held ahead and
        fails at its own step, with its own error."""
        d_in = self.net.d_in
        return takewhile(lambda b: isinstance(b, np.ndarray) and b.shape[1:] == (d_in,), upcoming)

    def _look_ahead(self, upcoming: list) -> None:
        """Queue the inputs of the coming batches, the next one first, to be
        scored as one block by the ``adapt_step`` call of the first; a
        single batch is no block."""
        self._drop_look_ahead()
        block = list(self._leading_batches(upcoming))
        if len(block) > 1:
            self._ahead.extend(block)

    def _drop_look_ahead(self) -> None:
        self._ahead.clear()
        self._scored.clear()

    def _open_window(self, upcoming) -> None:
        """Hold the inputs of the coming batches, the next one first, as the
        stem window: as many as fit in STEM_WINDOW_ROWS rows. A network
        without layers has no stem, and a single batch is no window."""
        self._drop_window()
        if not self.net.layers:
            return
        window, rows = [], 0
        for b in self._leading_batches(upcoming):
            rows += len(b)
            if rows > STEM_WINDOW_ROWS:
                break
            window.append(b)
        if len(window) > 1:
            self._window.extend(window)

    def _drop_window(self) -> None:
        self._window.clear()
        self._stems.clear()

    def _window_stems(self, n: int) -> list:
        """Stems of the next ``n`` window batches (fewer if the window holds
        fewer); the first call that needs one computes the stems of every
        batch left in the window, in chunks of whole batches."""
        if n and self._window and not self._stems:
            held = list(self._window)
            for lo, hi in _whole_batch_chunks(held):
                self._stems.extend(_split(forward_stem(self.net, held[lo:hi]), held[lo:hi]))
        return list(islice(self._stems, n))

    def _score_block(self) -> None:
        """Losses, predictions and confidences of every look-ahead batch at
        the current parameters, in chunks of whole batches, each chunk from
        its stems when all of its batches are in the window."""
        batches = list(self._ahead)
        in_window = sum(1 for _ in takewhile(lambda pair: pair[0] is pair[1], zip(self._window, batches)))
        stems = self._window_stems(in_window)
        for lo, hi in _whole_batch_chunks(batches):
            stem = tuple(map(np.concatenate, zip(*stems[lo:hi]))) if hi <= len(stems) else None
            feats = forward_features_batch(self.net, np.concatenate(batches[lo:hi]), stem)
            losses, _, probs = self.loss.value_and_pullback(feats)
            self._scored.extend(_split((losses, probs.argmax(axis=1), probs.max(axis=1)), batches[lo:hi]))

    def _serve(self, inputs):
        """The look-ahead scores of ``inputs`` if it is the next block batch,
        else None (and the block is dropped)."""
        if not self._ahead or self._ahead[0] is not inputs:
            self._drop_look_ahead()
            return None
        if not self._scored:
            self._score_block()
        self._ahead.popleft()
        return self._scored.popleft()

    def adapt_step(self, inputs) -> StepReport:
        """Predict, score, select, and (maybe) update on one batch."""
        X = check_input(self.net, inputs)
        if X.shape[0] == 0:
            raise ValueError("empty batch")
        if self.loss is None:
            raise RuntimeError(f"method '{self.method.kind}' requires calibration first")
        t0 = time.perf_counter()
        recipe = self.method.recipe
        if self._window and self._window[0] is not inputs:
            self._drop_window()

        served = self._serve(inputs)
        if served is None:
            # this step's batch is the window's first, if the window holds any
            feats, caches = forward_with_caches(self.net, X, *self._window_stems(1))
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
                feats, caches = forward_with_caches(self.net, X, *self._window_stems(1))
                pullback = self.loss.value_and_pullback(feats)[1]
            recipe.update(self, X, caches, pullback, selected, n_selected)
        updated = self.counters.n_optimizer_steps > steps_before
        if updated:
            self._idle_steps = 0
            self._drop_look_ahead()
        else:
            self._idle_steps += 1
        if self._window:
            self._window.popleft()
            if self._stems:
                self._stems.popleft()

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
    """Single ordered pass; online accuracy from pre-update predictions.

    ``stream`` yields batches exposing ``inputs`` and ``labels``; only the
    inputs ever reach the engine, one ``adapt_step`` call per batch. When
    the engine has no look-ahead batches left, it is first handed the
    inputs of the next ``2^m`` batches, and when it has no stem window
    left, those of the next ``STEM_WINDOW_ROWS`` rows (see the module
    docstring).
    """
    if engine.method.needs_sigma and engine.sigma is None:
        raise RuntimeError(f"method '{engine.method.kind}' requires calibration before streaming")
    batches = list(stream)
    trace = RunTrace()
    t0 = time.perf_counter()
    for i, batch in enumerate(batches):
        if not engine._window:
            engine._open_window(batches[j].inputs for j in range(i, len(batches)))
        if not engine._ahead:
            engine._look_ahead([b.inputs for b in batches[i : i + engine._block_size]])
        report = engine.adapt_step(batch.inputs)
        labels = np.asarray(batch.labels)
        trace.steps.append(report)
        trace.labels.append(labels)
        trace.n_samples += labels.shape[0]
        trace.n_correct += int((report.predicted == labels).sum())
    trace.wall_time = time.perf_counter() - t0
    return trace
