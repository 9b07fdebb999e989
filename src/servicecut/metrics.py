"""Partition quality: cohesion/coupling, modularity quality for unweighted
(MQ) and weighted (MQw) graphs, and the raw multiway cut value.

All three scores come from the edges of the graph the partition was
clustered on: MQ from edge counts, MQw from counts and weights, and the cut
as the summed weight of the directed edges between candidates, which equals
half the affinity crossing candidate boundaries.

Conventions: edges are directed and self-loop free; sigma for a cluster pair
aggregates both directions, matching the 2 * N_i * N_j denominator; with a
single cluster the coupling term is vacuous and MQ equals mean cohesion.
A partition is a label array over ``g.vertices`` and its k; the labeling
rule, which ``label_stats`` alone enforces: k at least 1, a label in [0, k)
for every vertex of the graph, and every label used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations

import numpy as np

from .feature_graph import FeatureGraph


@dataclass
class QualityReport:
    coh: list[float]            # per-cluster cohesion, unweighted
    cop: dict[tuple[int, int], float]
    mq: float
    coh_w: list[float]          # per-cluster cohesion, weighted
    cop_w: dict[tuple[int, int], float]
    mqw: float
    cut: float
    k: int
    mode: str

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "mode": self.mode,
            "coh": self.coh,
            "cop": {f"{i},{j}": v for (i, j), v in sorted(self.cop.items())},
            "MQ": self.mq,
            "coh_w": self.coh_w,
            "cop_w": {f"{i},{j}": v for (i, j), v in sorted(self.cop_w.items())},
            "MQw": self.mqw,
            "cut": self.cut,
        }

    def to_csv(self) -> str:
        """The header and one row: the mean weighted cohesion and coupling,
        MQw, MQ and the cut."""
        coh_w = sum(self.coh_w) / len(self.coh_w)
        cop_w = sum(self.cop_w.values()) / len(self.cop_w) if self.cop_w else 0.0
        values = ",".join(repr(x) for x in (coh_w, cop_w, self.mqw, self.mq, self.cut))
        return f"mode,k,coh_w,cop_w,MQw,MQ,cut\n{self.mode},{self.k},{values}\n"


def label_stats(labels: np.ndarray, k: int, g: FeatureGraph):
    """Statistics of each row of the (P, n) cluster ``labels``, a label in
    [0, k) for every vertex, over the edges of ``g``: (P, k) sizes and intra
    edge counts/weights, (P, k, k) inter counts/weights at [i, j], i < j
    (both directions aggregated), and the (P,) cut, the summed weight of
    the edges between clusters. Each row's bins are offset by its index, so
    one ``np.bincount`` serves all rows, and it adds the weights in edge
    order: the sums are those of a loop over the edges. A row that breaks
    the labeling rule (see the module docstring) is a ValueError."""
    src, dst, w = g.src, g.dst, g.weight
    rule = (f"a labeling gives each of the {len(g.vertices)} vertices a label in [0, {k}) "
            "and uses every label")
    if k < 1:
        raise ValueError(f"{rule}, with k at least 1; got k = {k}")
    if labels.ndim != 2 or labels.shape[1] != len(g.vertices):
        raise ValueError(f"{rule}; got labels of shape {labels.shape}")
    if ((labels < 0) | (labels >= k)).any():
        raise ValueError(f"{rule}; got labels in [{labels.min()}, {labels.max()}]")
    P = labels.shape[0]
    row = np.arange(P)[:, None]
    ci, cj = labels[:, src], labels[:, dst]
    intra = ci == cj
    inter = ~intra
    w = np.broadcast_to(w, ci.shape)
    sizes = np.bincount((labels + k * row).ravel(), minlength=P * k).reshape(P, k)
    if not sizes.all():
        raise ValueError(f"{rule}; a row leaves label {np.argwhere(sizes == 0)[0, 1]} unused")
    key = (ci + k * row)[intra]
    u = np.bincount(key, minlength=P * k).reshape(P, k)
    uw = np.bincount(key, weights=w[intra], minlength=P * k).reshape(P, k)
    pair = (np.minimum(ci, cj) * k + np.maximum(ci, cj) + k * k * row)[inter]
    sigma = np.bincount(pair, minlength=P * k * k).reshape(P, k, k)
    sigmaw = np.bincount(pair, weights=w[inter], minlength=P * k * k).reshape(P, k, k)
    cut = np.bincount(np.broadcast_to(row, ci.shape)[inter], weights=w[inter], minlength=P)
    return sizes, u, uw, sigma, sigmaw, cut


def _ratio(num, denom):
    # ratios are within [0, 1] by construction; clamp float roundoff
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0, np.minimum(1.0, num / denom), 0.0)


def _quality(k, sizes, u, uw, sigma, sigmaw):
    """Cohesion coh_i = u'_i / (N_i^2 + u'_i - u_i), pairwise coupling
    cop_ij = sigma'_ij / (2 N_i N_j + sigma'_ij - sigma_ij) and their
    difference, for each row of ``label_stats``. With the counts standing in
    for the weights these are MQ's u_i / N_i^2 and sigma_ij / (2 N_i N_j).
    Returns (P, k) coh, (P, k(k-1)/2) cop in ``combinations`` order and (P,)
    values. The means add left to right, as ``sum`` does; ``ndarray.sum``
    adds pairwise, which moves bits from 8 terms up."""
    coh = _ratio(uw, sizes ** 2 + uw - u)
    i, j = np.triu_indices(k, 1)
    s, sw = sigma[:, i, j], sigmaw[:, i, j]
    cop = _ratio(sw, 2 * sizes[:, i] * sizes[:, j] + sw - s)
    value = reduce(np.add, coh.T) / k
    if k > 1:
        value = value - reduce(np.add, cop.T) / (k * (k - 1) / 2)
    return coh, cop, value


# Each (rows, edges) temporary of a ``batch_scores`` chunk holds at most this many values.
_CHUNK_VALUES = 2 ** 16


def batch_scores(labels: np.ndarray, k: int, g: FeatureGraph) -> tuple[np.ndarray, np.ndarray]:
    """(P,) MQw and (P,) cut of each row of the (P, n) cluster ``labels``
    over the edges of ``g``, scored in chunks of rows."""
    rows = max(1, _CHUNK_VALUES // max(1, g.src.size))
    mqw_values, cuts = [], []
    for start in range(0, labels.shape[0], rows):
        *stats, cut = label_stats(labels[start:start + rows], k, g)
        mqw_values.append(_quality(k, *stats)[2])
        cuts.append(cut)
    return np.concatenate(mqw_values), np.concatenate(cuts)


def score(labels: np.ndarray, k: int, g: FeatureGraph, mode: str) -> QualityReport:
    """Assemble a full QualityReport of the (n,) cluster ``labels`` from one
    pass over the mode graph's edges: MQ from the edge counts, MQw from
    counts and weights, and the cut from the weights between candidates."""
    sizes, u, uw, sigma, sigmaw, cut = label_stats(labels[None], k, g)
    pairs = list(combinations(range(k), 2))
    coh, cop, mq_value = _quality(k, sizes, u, u, sigma, sigma)
    coh_w, cop_w, mqw_value = _quality(k, sizes, u, uw, sigma, sigmaw)
    return QualityReport(
        coh=coh[0].tolist(), cop=dict(zip(pairs, cop[0].tolist())), mq=float(mq_value[0]),
        coh_w=coh_w[0].tolist(), cop_w=dict(zip(pairs, cop_w[0].tolist())),
        mqw=float(mqw_value[0]), cut=float(cut[0]), k=k, mode=mode,
    )
