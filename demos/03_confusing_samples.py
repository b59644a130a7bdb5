# The selection story: two classes, probabilities pinned at [1/2, 1/2], and
# an increasing distance between the class prototypes. Plain entropy cannot
# tell the cases apart; the augmented loss grows with the class-pair weight
# exp(q/2) and the selection rule starts refusing the sample once the
# prototypes are far enough apart to make the confusion dangerous.
import numpy as np

from seva import ClassifierHead, DiagCovariance, augmented_entropy, class_pair_weight, entropy, softmax
from seva.adapt import RECIPES, threshold_default

sigma = DiagCovariance(np.array([0.5, 0.5]))
z = np.array([0.0, 1.0])  # orthogonal to the prototype axis: p stays uniform
threshold = threshold_default(2, 1.2)

print(f"selection boundary = 1.2 * ln(2) = {threshold:.4f}\n")
deltas = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
heads = [ClassifierHead(np.array([[d / 2, 0.0], [-d / 2, 0.0]]), np.zeros(2)) for d in deltas]
losses = np.array([augmented_entropy(head, z, sigma) for head in heads])
kept = RECIPES["seva"].select(losses, threshold)  # the engine's rule: loss < threshold

print(f"{'distance':>8} {'entropy':>8} {'pair weight':>12} {'loss':>8}  decision")
for delta, head, loss, keep in zip(deltas, heads, losses, kept):
    h = entropy(softmax(head.weights @ z))
    w = class_pair_weight(head, 0, 1, sigma)
    print(f"{delta:8.1f} {h:8.4f} {w:12.4f} {loss:8.4f}  {'train' if keep else 'refuse'}")

print(
    "\nentropy is blind to the prototype distance; the weighted loss flips the\n"
    "decision exactly once along the sweep, excluding the sample precisely\n"
    "when sharpening it would blur a boundary between distant classes."
)
