"""Pinned bytes of everything set-up builds: worlds, streams and fitted heads.

How ``scenarios`` builds these (its temporaries, its block sizes, its
order of in-place operations) may change; the arrays it returns may not.
Every label schedule meets every corruption kind here, as a two-spec
mixture whose segment boundaries fall inside batches. The trace digests
cover only imbalanced, additive-noise streams, and only through the
engine. A deliberate change re-records these digests and says why.
"""

import hashlib
import itertools

import numpy as np
import pytest

from seva.committed import committed_config
from seva.config import resolve_config
from seva.runner import build_stream, build_world_and_model
from seva.scenarios import (
    CORRUPTION_KINDS,
    CorruptionSchedule,
    CorruptionSpec,
    LabelSchedule,
    StreamSpec,
    generate_stream,
    make_world,
)

LABEL_SCHEDULES = {
    "uniform": LabelSchedule("uniform"),
    "imbalanced": LabelSchedule("imbalanced", dominance=0.75, segment_len=40),
    "online_shifting": LabelSchedule("online_shifting"),
}
STREAM_CASES = list(itertools.product(LABEL_SCHEDULES, CORRUPTION_KINDS))

# The shape of the benchmark's wide_stream workload: C=100, d_in=64, an
# online_shifting stream of 19,200 samples.
WIDE_CONFIG = {
    "master_seed": 0,
    "seeds": [0],
    "world": {"n_classes": 100, "d_in": 64},
    "network": {
        "feature_dim": 64,
        "n_layers": 2,
        "groups": 8,
        "head_fit": {"n_train_per_class": 30, "refine_steps": 150},
    },
    "stream": {
        "batch_size": 64,
        "n_batches": 300,
        "label_schedule": {"kind": "online_shifting"},
        "corruption": {"specs": [{"kind": "additive_noise", "severity": 5}]},
    },
    "methods": [{"kind": "seva", "name": "seva", "threshold_rho": 1.0}],
}

WORLD_DIGESTS = {
    "plain": "d756ffea581a254c894ceda83e733378fcd45cc0b6c4fc6a69540d4217ee81c0",
    "clustered": "b59cad7dc589f06b10db2f03b2a119f0afa94bca37bd860d11979cc768929437",
    "retried": "d11c0ef9cc9132f14caf8db10489c6fea9b6542396fb5870348885e10e4a610c",
}

# (label schedule, corruption kind) -> (inputs, labels)
STREAM_DIGESTS = {
    ("uniform", "additive_noise"): (
        "fb812595fe3aacff4568534ce8892a3bd8ea0e5fa96a535ab94516c92ffbb084",
        "1b0a9bbcef0c96644cedfa3546303df62698562d1187bd502d009318d8746f45",
    ),
    ("uniform", "feature_scale"): (
        "2a153151d28752ce285bed49cda3f23a590659ec39b6792fb680014cfedc5f88",
        "5d8ece01a75f421cf4c629494c6310edd17390e425b5c6d3fe746a6aa2b5e71a",
    ),
    ("uniform", "rotation_mix"): (
        "1ad1fc6e880a6faa111b68eec7e11cd11b499e1bb2a11c0fe4500baf3d37eeb0",
        "9d7b5ab09d471df8318caa207f5f489344e02ae44256ed961fa9bb059c6f8a51",
    ),
    ("uniform", "occlusion_mask"): (
        "cfa5bf63c5e27a84202ab6d787ad4b72acb194aae05b7f253402fdabdbf0f71e",
        "d6f40cd00125fe923985a59686ff878dcead1049997c9b17eeac49aba7aa44e8",
    ),
    ("imbalanced", "additive_noise"): (
        "1fe723eb27ab802f8292bbd9a3767838bb8a8bdac5344153d7929a01c564088d",
        "dfe4675fed7bc5eca33f015373a747663b30cfb937dced50849489a3b519bb94",
    ),
    ("imbalanced", "feature_scale"): (
        "59922dc65f6162fc771a5daee35442989df43c5328465063a70a9eece1fe652a",
        "325e26578d5844ffa8e1e336ff5fcdd9836c77075726624f800497e413441b93",
    ),
    ("imbalanced", "rotation_mix"): (
        "e9afd6b2a843df5d9ba0f64256f7081cdd80c1e960b68dc12e91a0e6f6d24639",
        "99ed2d3e4dd47137ae17b66934e4f020ee1243b4874f93a5b1c0aceed8d12419",
    ),
    ("imbalanced", "occlusion_mask"): (
        "e1235a50a3e19bd22b7e5ebdc734b8ac3b205fb98ebacc8ddf8a7b3a9e04e252",
        "13149519fdee71f365be368d937223c83849a0dbf3bbf34917287702bd115d20",
    ),
    ("online_shifting", "additive_noise"): (
        "de816f2cf3208464109d2236f0efaf198334fd49bc5e9df44a6c1cbff93248a3",
        "b889023942b8382f1032cfc2d8229ab94e568f3da0b0847032a266a4c8f44ca3",
    ),
    ("online_shifting", "feature_scale"): (
        "cb4eff2fdcc4ba5da862b064ce5399de9adebf4c86ebced8658b2aea23232cd5",
        "4695a7f37df8344d73773fc8ebe2f3d14a4f01afac5c41154d6945b63686d7c1",
    ),
    ("online_shifting", "rotation_mix"): (
        "e3bce27d7e0456eac697f292272363a3193d1d741eb98e2fb26040739b22c98e",
        "040f976750e19ba2ca014d1f5b1ede767d898fc33cec43a5ba18317591caf380",
    ),
    ("online_shifting", "occlusion_mask"): (
        "ca0aca8dfcd8f41ff2b9b677f4130894b4f22a39b3a81a0ddc162f83531b07e1",
        "6af972f6d3eda90bd18f5ef836fa65442f7b5e9050c09a940943f058e7815c59",
    ),
}

HEAD_DIGESTS = {
    "committed": {
        "prototypes": "c367e83f182f8719e6478ec9e26f203091efbe399b56d980a250b543830b923a",
        "weights": "9270b0ce3bcc2e3b2d4774e0003ffcbcbfd6add9097dc83c4f477d29b46c1af5",
        "biases": "50e8b49b468f82ac4ce30f1ea2bc1871f9ea3420e5766179822d5d2ee61c3e59",
        "clean_accuracy": 0.998,
    },
    "wide": {
        "prototypes": "03af670d6eaf4c879ae5fd104526cedbd4b9787d0db8e9ac041aecb8e457b0d6",
        "weights": "1ce1daa9a71d1387cfd71dea9a354271d8602199bf2f031c3a197b661646eed8",
        "biases": "944a30ce0cd78092c4dfcd2e2d7d23aa08666b5296b6b6ca773195047a79f72a",
        "clean_accuracy": 1.0,
        "inputs": "b2fbbb5cbb98e425a24d15395df42eaa6a371f66cba33e3d4c5c3687daf05bdd",
        "labels": "579da45da85da0b6280e1372efe65da936ff5d3cb3e4658fc5f87baf7826455b",
    },
}


def digest(a) -> str:
    """sha256 over an array's dtype, shape and bytes."""
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def build_world(case: str):
    if case == "plain":
        return make_world(seed=5, C=12, d_in=8)
    if case == "clustered":
        return make_world(seed=6, C=10, d_in=8, cluster_size=3)
    # the separation floor rejects this world's first three draws
    return make_world(seed=0, C=12, d_in=4)


def build_case_stream(schedule: str, kind: str):
    specs = (CorruptionSpec(kind, 4), CorruptionSpec(kind, 2))
    spec = StreamSpec(
        label_schedule=LABEL_SCHEDULES[schedule],
        corruption_schedule=CorruptionSchedule(specs, segment_len=100),
        batch_size=24,
        n_batches=15,
        seed=50 + STREAM_CASES.index((schedule, kind)),
    )
    return generate_stream(make_world(seed=40, C=6, d_in=10), spec)


def stream_digests(stream) -> tuple[str, str]:
    return (
        digest(np.concatenate([b.inputs for b in stream])),
        digest(np.concatenate([b.labels for b in stream])),
    )


def built_digests(cfg, with_stream: bool) -> dict:
    world, net, clean_acc = build_world_and_model(cfg)
    got = {
        "prototypes": digest(world.prototypes),
        "weights": digest(net.head.weights),
        "biases": digest(net.head.biases),
        "clean_accuracy": clean_acc,
    }
    if with_stream:
        got["inputs"], got["labels"] = stream_digests(build_stream(cfg, world, cfg.seeds[0]))
    return got


@pytest.mark.parametrize("case", list(WORLD_DIGESTS))
def test_world_prototypes_match_their_pinned_digest(case):
    assert digest(build_world(case).prototypes) == WORLD_DIGESTS[case]


@pytest.mark.parametrize("schedule,kind", STREAM_CASES)
def test_stream_inputs_and_labels_match_their_pinned_digests(schedule, kind):
    assert stream_digests(build_case_stream(schedule, kind)) == STREAM_DIGESTS[(schedule, kind)]


def test_committed_head_matches_its_pinned_digest():
    assert built_digests(committed_config(), with_stream=False) == HEAD_DIGESTS["committed"]


def test_wide_head_and_stream_match_their_pinned_digests():
    assert built_digests(resolve_config(WIDE_CONFIG), with_stream=True) == HEAD_DIGESTS["wide"]
