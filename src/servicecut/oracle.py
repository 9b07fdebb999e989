"""Exhaustive search over k-partitions of small graphs; the independent
check on what the spectral pipeline returns."""

from __future__ import annotations

from collections.abc import Iterator

from .feature_graph import FeatureGraph, split_core
from .metrics import cut_value, mqw
from .spectral import Partition, canonicalize

MAX_VERTICES = 10


def restricted_growth_strings(n: int, k: int) -> Iterator[list[int]]:
    """All surjective labelings of n items onto exactly k labels, in
    canonical first-occurrence order (no label permutations)."""
    labels = [0] * n

    def rec(i: int, used: int):
        if i == n:
            if used == k:
                yield list(labels)
            return
        for c in range(min(used + 1, k)):
            labels[i] = c
            yield from rec(i + 1, used + (1 if c == used else 0))

    if 1 <= k <= n:
        yield from rec(0, 0)


def brute_force_best(g: FeatureGraph, k: int, objective: str) -> tuple[Partition, float]:
    """Enumerate every partition of the non-isolated vertices into exactly k
    non-empty parts; return the best partition under the objective
    (maximize ``mqw``, minimize ``cut``)."""
    if objective not in ("mqw", "cut"):
        raise ValueError(f"unknown objective {objective!r}")
    n = len(g.vertices) - len(g.isolated_vertices())
    if n > MAX_VERTICES:
        raise ValueError(f"brute force bounded to {MAX_VERTICES} vertices, got {n}")
    core, _, isolated = split_core(g)
    verts = core.vertices
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    best_p, best_v = None, None
    for labels in restricted_growth_strings(n, k):
        p = canonicalize(dict(zip(verts, labels)), k)
        if objective == "mqw":
            value = mqw(p, core)[2]
            better = best_v is None or value > best_v
        else:
            value = cut_value(p, core)
            better = best_v is None or value < best_v
        if better:
            best_p, best_v = p, value
    best_p.unassigned = set(isolated)
    return best_p, best_v
