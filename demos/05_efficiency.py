# The efficiency claim at desk scale: the augmented loss integrates the
# augmentation ensemble into one gradient step, so its per-batch work equals
# plain entropy training, while explicit vicinal augmentation pays one full
# forward/backward round per draw.
from seva.adapt import MethodConfig
from seva.config import resolve_config
from seva.runner import run_cells

cfg = resolve_config(
    {
        "master_seed": 11,
        "seeds": [0],
        "world": {"n_classes": 10, "d_in": 48},
        "network": {"feature_dim": 48, "n_layers": 2, "groups": 4},
        "stream": {
            "batch_size": 128,
            "n_batches": 40,
            "label_schedule": {"kind": "uniform"},
            "corruption": {"specs": [{"kind": "additive_noise", "severity": 2}]},
        },
    }
)

roster = [
    ("no_adapt", MethodConfig(kind="no_adapt", lr=1.0)),
    ("tent", MethodConfig(kind="tent", lr=0.001)),
    ("seva", MethodConfig(kind="seva", lr=0.001)),
    ("explicit_va_5", MethodConfig(kind="explicit_va", rounds=5, lr=0.001)),
    ("explicit_va_7", MethodConfig(kind="explicit_va", rounds=7, lr=0.001)),
]

print(f"{'method':>14} {'forward':>8} {'backward':>9} {'steps':>6} {'wall':>8} {'acc':>6}")
walls = {}
for r in run_cells(cfg, roster, [0]):
    wall = sum(s.step_wall_time for s in r.trace.steps)
    walls[r.name] = wall
    c = r.counters
    print(f"{r.name:>14} {c['n_forward']:8d} {c['n_backward']:9d} "
          f"{c['n_optimizer_steps']:6d} {wall:7.3f}s {r.accuracy:6.3f}")

print(f"\nwall-time ratio explicit_va_7 / seva = {walls['explicit_va_7'] / walls['seva']:.1f}")
print("one training pass with the closed-form loss replaces the seven explicit")
print("augmentation rounds; the integrated ensemble costs one backward pass.")
