"""SEVA: single-step ensemble of vicinal augmentations for test-time adaptation.

The package pairs a closed-form training loss (the augmented entropy, an
upper bound on the expected prediction entropy under Gaussian feature
perturbation) and its reliable-sample selection rule with a Monte-Carlo
oracle that certifies every closed form and inequality numerically, plus a
small online adaptation engine and synthetic streaming scenarios to
exercise the method end to end.
"""

from .core_math import (
    ClassifierHead,
    DiagCovariance,
    DimensionMismatch,
    augmented_entropy,
    augmented_entropy_decomposed,
    class_pair_weight,
    entropy,
    grad_augmented_entropy_wrt_feature,
    logits,
    robust_probs,
    softmax,
)
from .oracle import (
    BoundGapReport,
    McEstimate,
    bound_gap_report,
    bound_sweep,
    mc_entropy,
)
from .model import (
    ToyNetwork,
    build_network,
    calibrate_covariance,
)
from .adapt import (
    AdaptEngine,
    MethodConfig,
    RunTrace,
    StepReport,
    run_stream,
    sgd_momentum_step,
    threshold_default,
)
from .scenarios import (
    Batch,
    CorruptionSpec,
    StreamSpec,
    World,
    generate_stream,
    make_world,
    selection_f1,
)
from .config import RunConfig, load_config, resolve_config
from .rng import substream

__version__ = "0.1.0"
