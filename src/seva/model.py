"""A small frozen feature extractor whose only trainable knobs are the
scale/shift parameters of its per-sample group-normalization blocks.

Layer l applies a frozen linear map, group normalization over its output
channels (statistics per sample, so batch size 1 is well defined and
batching never changes a sample's feature), a learnable per-channel affine
(gamma, beta), and a fixed smooth activation. The final activation output
is the feature fed to the classifier head, and is also the tap point for
covariance calibration.

Layer norm is the one-group special case. The activation is tanh so that
finite-difference gradient checks are free of kink noise.

Forward and backward work on the (n, groups, k) view of each layer's
channels, k = c // groups, with ``np.add.reduce(..., axis=2) / k`` as the
group mean. That is the reduction and the division np.mean and np.var run
internally (population variance: the mean of squared deviations from that
mean), so features, caches and gradients match the np.mean / np.var /
np.repeat form bit for bit, without its per-call Python dispatch.

Only the affine parameters adapt, so the first layer's linear map and its
group-norm statistics depend on the input alone. ``forward_stem`` returns
them as a "stem" (normalized values, 1/std), and ``forward_with_caches`` /
``forward_features_batch`` can start from a batch's stem instead of
recomputing them, with the same bits. A network without layers has no stem.
``forward_stem`` and ``forward_features_batch`` also take a (k, n, d_in)
stack of equal batches: every step works over the leading axes and
``matmul`` takes a stack slice by slice, so each batch gets its own bits.

All adaptable state is one flat float64 vector, ``ToyNetwork.theta``: layer
by layer, that layer's gamma then its beta. An optimizer updates it in
place. Forward and backward take each layer's (gamma, beta) as views of
``theta`` at call time and store none, so ``dataclasses.replace(net,
theta=net.theta.copy())`` is a network that adapts on its own. A layer
normalizes inside its matmul's output, then applies the affine and the
activation in place on one fresh array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_math import ClassifierHead, DiagCovariance, DimensionMismatch
from .rng import substream

__all__ = [
    "NORM_EPS",
    "ACTIVATIONS",
    "NormAffineLayer",
    "ToyNetwork",
    "LayerCache",
    "build_network",
    "check_input",
    "forward_features_batch",
    "forward_stem",
    "forward_with_caches",
    "backward_adaptable",
    "adaptable_params",
    "set_adaptable_params",
    "calibrate_covariance",
]

NORM_EPS = 1e-5

# activation -> (f, derivative expressed through the activation output)
ACTIVATIONS = {
    "tanh": (np.tanh, lambda out: 1.0 - out * out),
}


@dataclass
class NormAffineLayer:
    """Frozen linear map + group norm; its per-channel affine lives in
    ``ToyNetwork.theta``."""

    weight: np.ndarray  # (c_out, c_in), frozen after construction
    groups: int

    @property
    def channels(self) -> int:
        return self.weight.shape[0]


@dataclass
class ToyNetwork:
    layers: list[NormAffineLayer]
    head: ClassifierHead
    d_in: int
    feature_dim: int
    theta: np.ndarray  # (2 * d * len(layers),) every layer's gamma then beta
    activation: str = "tanh"
    seed: int = 0


@dataclass
class LayerCache:
    """Per-layer forward intermediates needed by the backward pass."""

    normalized: np.ndarray  # (n, c) group-normalized pre-affine values
    inv_std: np.ndarray  # (n, groups) 1/sqrt(var + eps)
    output: np.ndarray  # (n, c) post-activation values


def build_network(
    seed: int,
    d_in: int,
    d: int,
    C: int,
    n_layers: int,
    groups: int,
    activation: str = "tanh",
) -> ToyNetwork:
    """Seeded network with frozen scaled-Gaussian weights, gamma=1, beta=0.

    Hidden widths all equal the feature dimension d; ``groups`` must divide
    d. ``n_layers = 0`` gives the identity extractor and requires d_in = d.
    """
    if activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation '{activation}'")
    if d_in < 1 or d < 1 or C < 1:
        raise ValueError(f"invalid dims d_in={d_in}, d={d}, C={C}")
    if n_layers < 0:
        raise ValueError(f"n_layers must be >= 0, got {n_layers}")
    if n_layers == 0 and d_in != d:
        raise ValueError(f"identity extractor needs d_in == d, got {d_in} != {d}")
    if n_layers > 0 and d % groups != 0:
        raise ValueError(f"groups={groups} does not divide channel count {d}")
    layers = []
    c_in = d_in
    for l in range(n_layers):
        gen = substream(seed, "layer", l)
        w = gen.standard_normal((d, c_in)) / np.sqrt(c_in)
        layers.append(NormAffineLayer(w, groups))
        c_in = d
    gen = substream(seed, "head")
    head = ClassifierHead(gen.standard_normal((C, d)) / np.sqrt(d), np.zeros(C))
    theta = np.tile(np.concatenate([np.ones(d), np.zeros(d)]), n_layers)
    return ToyNetwork(layers, head, d_in, d, theta, activation, seed)


def _affine(net: ToyNetwork) -> tuple[np.ndarray, np.ndarray]:
    """(layers, d) views of ``net.theta``: every layer's gamma, every layer's beta."""
    rows = net.theta.reshape(-1, net.feature_dim)
    return rows[0::2], rows[1::2]


def _forward(net: ToyNetwork, X, keep_caches: bool, stem=None, stem_only: bool = False):
    """Features and caches of the batch or stack X, the first layer's group
    norm taken from ``stem`` when one is given; with ``stem_only``, X's stem."""
    act, _ = ACTIVATIONS[net.activation]
    caches: list[LayerCache] = []
    v = X
    for layer, gamma, beta in zip(net.layers, *_affine(net)):
        if stem is None:
            normalized = v @ layer.weight.T
            k = normalized.shape[-1] // layer.groups
            grouped = normalized.reshape(*normalized.shape[:-1], layer.groups, k)
            grouped -= np.add.reduce(grouped, axis=-1, keepdims=True) / k  # deviations
            var = np.add.reduce(grouped * grouped, axis=-1) / k  # population variance
            inv = 1.0 / np.sqrt(var + NORM_EPS)
            grouped *= inv[..., None]
            if stem_only:
                return normalized, inv
        else:
            (normalized, inv), stem = stem, None
        v = gamma * normalized
        v += beta
        act(v, out=v)
        if keep_caches:
            caches.append(LayerCache(normalized=normalized, inv_std=inv, output=v))
    return v, caches


def check_input(net: ToyNetwork, X) -> np.ndarray:
    """X as a float64 (n, d_in) batch; anything else raises DimensionMismatch."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.d_in:
        raise DimensionMismatch(
            f"input batch has shape {X.shape}, network expects (n, {net.d_in})"
        )
    return X


def _check_inputs(net: ToyNetwork, X) -> np.ndarray:
    """X as a float64 (n, d_in) batch or (k, n, d_in) stack of batches."""
    X = np.asarray(X, dtype=np.float64)
    return X if X.ndim == 3 and X.shape[-1] == net.d_in else check_input(net, X)


def forward_stem(net: ToyNetwork, X) -> tuple[np.ndarray, np.ndarray]:
    """The first layer's group-normalized values (..., c) and 1/std
    (..., groups) of a batch or stack X: all of its forward that the
    adaptable parameters do not touch, with the bits of its own forward."""
    X = _check_inputs(net, X)
    if not net.layers:
        raise ValueError("a network without layers has no stem")
    return _forward(net, X, keep_caches=False, stem_only=True)


def _check_stem(net: ToyNetwork, X: np.ndarray, stem) -> None:
    if not net.layers or stem[0].shape != X.shape[:-1] + (net.layers[0].channels,):
        raise DimensionMismatch(
            f"stem of shape {stem[0].shape} does not fit an input batch of shape {X.shape}"
        )


def forward_features_batch(net: ToyNetwork, X, stem=None) -> np.ndarray:
    """(..., d) features of a batch or stack X, from its ``forward_stem``
    when one is given."""
    X = _check_inputs(net, X)
    if stem is not None:
        _check_stem(net, X, stem)
    feats, _ = _forward(net, X, keep_caches=False, stem=stem)
    return feats


def forward_with_caches(net: ToyNetwork, X, stem=None) -> tuple[np.ndarray, list[LayerCache]]:
    """Features plus the per-layer intermediates the backward pass consumes,
    from the batch's ``forward_stem`` when one is given."""
    X = check_input(net, X)
    if stem is not None:
        _check_stem(net, X, stem)
    feats, caches = _forward(net, X, keep_caches=True, stem=stem)
    return feats, caches


def backward_adaptable(net: ToyNetwork, caches: list[LayerCache], d_feature: np.ndarray) -> np.ndarray:
    """Backpropagate per-sample feature gradients to the flat (gamma, beta) vector.

    ``d_feature`` is (n, d): the gradient of the scalar loss with respect to
    each sample's feature. Rows may be zero for samples excluded from the loss.
    The first layer stops at its (gamma, beta) gradients: the gradient with
    respect to the input is never used.
    """
    _, d_act = ACTIVATIONS[net.activation]
    grads: list[np.ndarray] = []
    delta = np.asarray(d_feature, dtype=np.float64)
    layers = zip(reversed(net.layers), _affine(net)[0][::-1], reversed(caches))
    for depth, (layer, gamma, cache) in enumerate(layers, 1):
        d_pre = delta * d_act(cache.output)
        grads.append(np.add.reduce(d_pre, axis=0))  # d_beta
        grads.append(np.add.reduce(d_pre * cache.normalized, axis=0))  # d_gamma
        if depth == len(net.layers):
            break
        # group-norm backward: dh = inv * (dn - mean(dn) - nh * mean(dn * nh))
        n, c = d_pre.shape
        k = c // layer.groups
        dn = (d_pre * gamma).reshape(n, layer.groups, k)
        nh = cache.normalized.reshape(n, layer.groups, k)
        mean_dn = np.add.reduce(dn, axis=2, keepdims=True) / k
        mean_dn_nh = np.add.reduce(dn * nh, axis=2, keepdims=True) / k
        dh = cache.inv_std[:, :, None] * (dn - mean_dn - nh * mean_dn_nh)
        delta = dh.reshape(n, c) @ layer.weight
    grads.reverse()
    return np.concatenate(grads) if grads else np.zeros(0)


def adaptable_params(net: ToyNetwork) -> np.ndarray:
    """A copy of ``net.theta``: every layer's gamma then beta."""
    return net.theta.copy()


def set_adaptable_params(net: ToyNetwork, vec) -> None:
    """Write ``vec`` into ``net.theta``, in place."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != net.theta.shape:
        raise DimensionMismatch(f"parameter vector has shape {vec.shape}, expected {net.theta.shape}")
    net.theta[...] = vec


def calibrate_covariance(net: ToyNetwork, calibration_inputs, scale: float) -> DiagCovariance:
    """Per-dimension feature variance over a calibration batch, times ``scale``.

    Fixed for the whole run once computed; identical inputs or scale = 0
    give the zero covariance, collapsing the augmented loss to plain entropy.
    """
    X = check_input(net, calibration_inputs)
    if X.shape[0] < 2:
        raise ValueError(f"need at least 2 calibration inputs, got {X.shape[0]}")
    feats = forward_features_batch(net, X)
    return DiagCovariance(float(scale) * feats.var(axis=0))
