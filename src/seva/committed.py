"""The committed behavioral scenario and its frozen method roster.

One imbalanced-label-shift stream (rotating single-class segments, additive
noise at severity 5) over ten fixed seeds, tuned once and frozen. On this
stream the boundary rho = 0.5 admits no sample under the augmented loss
(nothing on a severity-5 stream is reliable enough), a moderate slice under
the plain-entropy loss, and every method that trains loses accuracy:

* tent trains on everything and collapses below the frozen model,
* the entropy-threshold baseline trains on its selected slice and degrades,
* the unselective augmented loss collapses hardest,
* seva's selection admits nothing, so it preserves the frozen model exactly
  and tops the grid.

The numbers demonstrate the collapse-prevention claim, not adaptation gains:
on this stream no entropy-family training improves on the frozen model, so
the selective methods' value here is refusing harmful updates. That is a
property of the committed stream, not of the system: with uniform labels
and feature-scale corruption at severity 5, tent beats the frozen model
(0.889 vs 0.848 accuracy, one seed).
"""

from __future__ import annotations

import math
from dataclasses import replace

from .adapt import MethodConfig
from .config import RunConfig, resolve_config

__all__ = [
    "COMMITTED_MASTER_SEED",
    "COMMITTED_SEEDS",
    "COMMITTED_RHO",
    "COMMITTED_LR",
    "committed_config",
    "committed_methods",
]

COMMITTED_MASTER_SEED = 107
COMMITTED_SEEDS = list(range(10))
COMMITTED_RHO = 0.5  # same boundary coefficient for both selective methods
COMMITTED_LR = 0.02


def committed_config() -> RunConfig:
    return resolve_config(
        {
            "master_seed": COMMITTED_MASTER_SEED,
            "seeds": COMMITTED_SEEDS,
            "world": {"n_classes": 10, "d_in": 16},
            "network": {"feature_dim": 16, "n_layers": 2, "groups": 4},
            "stream": {
                "batch_size": 32,
                "n_batches": 100,
                "label_schedule": {"kind": "imbalanced", "dominance": 1.0, "segment_len": 64},
                "corruption": {"specs": [{"kind": "additive_noise", "severity": 5}]},
            },
            "methods": [
                {"kind": "no_adapt", "name": "no_adapt", "lr": 1.0},
                {"kind": "tent", "name": "tent", "lr": COMMITTED_LR},
                {
                    "kind": "entropy_select",
                    "name": "entropy_select",
                    "threshold_rho": COMMITTED_RHO,
                    "lr": COMMITTED_LR,
                },
                {"kind": "seva", "name": "seva", "threshold_rho": COMMITTED_RHO, "lr": COMMITTED_LR},
            ],
        }
    )


def committed_methods() -> dict[str, MethodConfig]:
    """The five-cell roster used by the behavioral and ablation checks: the
    committed config's four methods plus seva without its selection rule."""
    methods = dict(committed_config().methods())
    seva = methods.pop("seva")
    return {**methods, "l_ae_only": replace(seva, threshold_rho=math.inf), "seva": seva}
