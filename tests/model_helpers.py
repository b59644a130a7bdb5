"""Network helpers that only tests need: the flat parameter layout and
each layer's (gamma, beta) in it, the batch-mean loss and its parameter
gradient, and the construction spec."""

import numpy as np

from seva.model import (
    ToyNetwork,
    backward_adaptable,
    check_input,
    forward_features_batch,
    forward_with_caches,
)


def network_spec(net: ToyNetwork) -> dict:
    """Construction parameters, sufficient to rebuild the frozen parts."""
    return {
        "seed": net.seed,
        "d_in": net.d_in,
        "feature_dim": net.feature_dim,
        "n_classes": net.head.n_classes,
        "n_layers": len(net.layers),
        "groups": net.layers[0].groups if net.layers else 1,
        "activation": net.activation,
    }


def adaptable_layout(net: ToyNetwork) -> tuple[tuple[int, str, int], ...]:
    """(layer index, name, size) triples describing the flat vector layout."""
    layout = []
    for idx, layer in enumerate(net.layers):
        layout.append((idx, "gamma", layer.channels))
        layout.append((idx, "beta", layer.channels))
    return tuple(layout)


def layer_affines(net: ToyNetwork) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's (gamma, beta), as views of ``net.theta`` cut along
    ``adaptable_layout``."""
    parts = np.split(net.theta, np.cumsum([size for _, _, size in adaptable_layout(net)])[:-1])
    return list(zip(parts[0::2], parts[1::2]))


def batch_loss(net: ToyNetwork, X, loss) -> float:
    """Mean per-sample ``loss`` (a core_math loss object) over the batch,
    at the current parameters."""
    losses = loss.value_and_pullback(forward_features_batch(net, X))[0]
    return float(np.mean(losses))


def grad_loss_wrt_adaptable(net: ToyNetwork, X, loss) -> np.ndarray:
    """Gradient of the batch-mean ``loss`` w.r.t. all (gamma, beta) parameters."""
    X = check_input(net, X)
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    feats, caches = forward_with_caches(net, X)
    pullback = loss.value_and_pullback(feats)[1]
    return backward_adaptable(net, caches, pullback() / X.shape[0])
