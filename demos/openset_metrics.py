"""The open-set metrics on a small hand-built set of predictions.

Shows how AKS, AUS, NA, F1-open, and AUROC react as a gate moves from
accepting everything to rejecting everything.
Run: python3 demos/openset_metrics.py
"""

import numpy as np

from fsos.metrics import (
    UNKNOWN,
    aks,
    aks_one_vs_rest,
    auroc,
    aus,
    f1_open,
    normalized_accuracy,
)

rng = np.random.default_rng(0)

# 3 known classes x 10 queries plus 15 unknown-truth queries; the closed-set
# classifier is 90% right on knowns, and known-ness scores are noisy but
# informative
true = np.concatenate([np.repeat([0, 1, 2], 10), np.full(15, UNKNOWN)])
closed = np.where(rng.random(45) < 0.9, true, (true + 1) % 3)
closed[true == UNKNOWN] = rng.integers(0, 3, 15)
score = np.where(true != UNKNOWN, rng.normal(1.0, 0.6, 45), rng.normal(-1.0, 0.6, 45))

print(f"{'gate policy':<22} {'AKS':>6} {'AUS':>6} {'NA':>6} {'F1-open':>8} {'AUROC':>6}")
for label, accept in [
    ("accept everything", np.ones(45, bool)),
    ("score >= 0 gate", score >= 0),
    ("reject everything", np.zeros(45, bool)),
]:
    final = np.where(accept, closed, UNKNOWN)
    triple = (true, final, score)
    a, u = aks(triple), aus(triple)
    print(f"{label:<22} {a:>6.3f} {u:>6.3f} {normalized_accuracy(a, u):>6.3f} "
          f"{f1_open(triple):>8.3f} {auroc(triple):>6.3f}")

print("\nAUROC only ranks scores, so it is identical for all three policies.")
print("NA = (AKS + AUS) / 2 rewards gates that balance both error types.")

triple = (true, np.where(score >= 0, closed, UNKNOWN), score)
print(f"\nthe alternative per-class AKS variant counts true negatives too: "
      f"{aks_one_vs_rest(triple):.3f} vs plain {aks(triple):.3f}")
