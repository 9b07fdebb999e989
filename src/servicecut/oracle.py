"""Exhaustive search over k-partitions of small graphs; the independent
check on what the spectral pipeline returns."""

from __future__ import annotations

import numpy as np

from .feature_graph import FeatureGraph
from .metrics import batch_scores

MAX_VERTICES = 10


def restricted_growth_strings(n: int, k: int) -> np.ndarray:
    """(P, n) rows of all surjective labelings of n items onto exactly k
    labels, in canonical first-occurrence order (no label permutations),
    listed lexicographically."""
    if not 1 <= k <= n:
        return np.empty((0, n), dtype=np.intp)
    rows = np.zeros((1, 1), dtype=np.intp)
    for _ in range(n - 1):
        # each prefix, in order, extended by every label up to one past its largest
        choices = np.minimum(rows.max(axis=1) + 2, k)
        starts = np.repeat(np.cumsum(choices) - choices, choices)
        rows = np.column_stack([np.repeat(rows, choices, axis=0),
                                np.arange(choices.sum()) - starts])
    return rows[rows.max(axis=1) == k - 1]


def brute_force_best(core: FeatureGraph, k: int, objective: str) -> tuple[np.ndarray, float]:
    """Enumerate every partition of the vertices of ``core``, a graph without
    isolated vertices, into exactly k non-empty parts; return the (n,)
    labels of the best one under the objective (maximize ``mqw``, minimize
    ``cut``) and its value."""
    if objective not in ("mqw", "cut"):
        raise ValueError(f"unknown objective {objective!r}")
    n = len(core.vertices)
    if n > MAX_VERTICES:
        raise ValueError(f"brute force bounded to {MAX_VERTICES} vertices, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    labels = restricted_growth_strings(n, k)
    mqw_values, cuts = batch_scores(labels, k, core)
    # the first best in enumeration order
    best = int(mqw_values.argmax() if objective == "mqw" else cuts.argmin())
    value = mqw_values[best] if objective == "mqw" else cuts[best]
    # the strings number the parts in first-occurrence order over the sorted
    # vertices, which is smallest-vertex-id order: the canonical labeling
    return labels[best], float(value)
