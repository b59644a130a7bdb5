# What the closed forms buy you: a three-class head, one feature, and a
# diagonal covariance. The robust prediction and augmented entropy come out
# of single expressions; Monte-Carlo sampling of the same quantities needs
# 100k draws to agree to three decimals.
import numpy as np

from seva import (
    ClassifierHead,
    DiagCovariance,
    augmented_entropy,
    entropy,
    logits,
    mc_entropy,
    robust_probs,
    softmax,
    substream,
)
from seva.oracle import mc_robust_probs_estimate

head = ClassifierHead(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]), np.zeros(3))
z = np.array([1.0, 0.0])
sigma = DiagCovariance(np.array([0.5, 0.5]))

p = softmax(logits(head, z))
print("plain prediction     ", np.round(p, 5), " entropy", round(entropy(p), 5))

pbar = robust_probs(head, z, sigma)
print("robust prediction    ", np.round(pbar, 5), " (closed form)")
p_mc, _ = mc_robust_probs_estimate(head, z, sigma, 100_000, substream(0, "demo"))
print("robust prediction    ", np.round(p_mc, 5), " (100k vicinal draws)")

lae = augmented_entropy(head, z, sigma)
est = mc_entropy(head, z, sigma, 100_000, substream(1, "demo"))
print(f"\naugmented entropy     {lae:.5f}  (closed form, one expression)")
print(f"mean sampled entropy  {est.mean:.5f} +- {est.stderr:.5f}  (100k draws)")
print(f"the closed form upper-bounds the sampled mean by {lae - est.mean:+.4f} nats")

# shrink the covariance and the loss collapses onto the plain entropy
for scale in (1.0, 0.25, 0.01, 0.0):
    v = augmented_entropy(head, z, sigma.scaled(scale))
    print(f"  covariance x{scale:<5g} -> loss {v:.6f}   (entropy = {entropy(p):.6f})")
