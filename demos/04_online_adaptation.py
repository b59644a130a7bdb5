# One seed of the committed behavioral scenario: a rotating single-class
# stream under severity-5 noise. Methods that train on everything drift and
# collapse below the frozen model; the selective augmented-entropy method
# refuses every unreliable sample here and preserves accuracy.
import numpy as np

from seva.committed import committed_config, committed_methods
from seva.runner import run_cells

cfg = committed_config()
print("committed scenario, seed 0: 10 classes, severity-5 noise, single-class")
print("segments of 64 rotating over classes, 3200 samples, batch 32\n")
print(f"{'method':>16} {'accuracy':>9} {'selected':>9} {'F1':>6}   accuracy by fifth of stream")

for result in run_cells(cfg, committed_methods().items(), [0]):
    trace = result.trace
    per_batch = np.array([(s.predicted == labels).mean() for s, labels in zip(trace.steps, trace.labels)])
    blocks = " ".join(f"{v:.2f}" for v in per_batch.reshape(5, 20).mean(axis=1))
    print(f"{result.name:>16} {result.accuracy:9.4f} {result.n_selected:9d} {result.selection.f1:6.3f}   {blocks}")

print("\n(clean accuracy of the frozen model before the stream: "
      f"{result.clean_accuracy:.3f}; every update any method makes here is unsupervised)")
