"""Partition quality: cohesion/coupling, modularity quality for unweighted
(MQ) and weighted (MQw) graphs, and the raw multiway cut value.

All three scores come from the edges of the graph the partition was
clustered on: MQ from edge counts, MQw from counts and weights, and the cut
as the summed weight of the directed edges between candidates, which equals
half the affinity crossing candidate boundaries.

Conventions: edges are directed and self-loop free; sigma for a cluster pair
aggregates both directions, matching the 2 * N_i * N_j denominator; with a
single cluster the coupling term is vacuous and MQ equals mean cohesion.
Unassigned (isolated) vertices are excluded from scoring.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .feature_graph import FeatureGraph, edge_arrays
from .spectral import Partition


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

    @property
    def mean_coh_w(self) -> float:
        return sum(self.coh_w) / len(self.coh_w)

    @property
    def mean_cop_w(self) -> float:
        return sum(self.cop_w.values()) / len(self.cop_w) if self.cop_w else 0.0

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

    def to_csv_row(self) -> str:
        return ",".join(
            [self.mode, str(self.k)]
            + [repr(x) for x in (self.mean_coh_w, self.mean_cop_w, self.mqw, self.mq, self.cut)]
        )

    @staticmethod
    def csv_header() -> str:
        return "mode,k,coh_w,cop_w,MQw,MQ,cut"


def label_stats(labels: np.ndarray, k: int, edges: tuple[np.ndarray, np.ndarray, np.ndarray]):
    """Per-cluster sizes, intra edge counts/weights, and pairwise inter
    counts/weights (both directions aggregated) of the vertices' cluster
    ``labels`` (-1: not scored) over ``edge_arrays``. ``np.bincount`` adds
    the weights in edge order, so the sums are those of a loop over the
    edges; the pairs are listed in the order they first occur."""
    src, dst, w = edges
    ci, cj = labels[src], labels[dst]
    scored = (ci >= 0) & (cj >= 0)
    ci, cj, w = ci[scored], cj[scored], w[scored]
    intra = ci == cj
    sizes = np.bincount(labels[labels >= 0], minlength=k)
    u = np.bincount(ci[intra], minlength=k)
    uw = np.bincount(ci[intra], weights=w[intra], minlength=k)
    pair = np.minimum(ci, cj)[~intra] * k + np.maximum(ci, cj)[~intra]
    sigma_all = np.bincount(pair, minlength=k * k)
    sigmaw_all = np.bincount(pair, weights=w[~intra], minlength=k * k)
    present, first = np.unique(pair, return_index=True)
    sigma, sigmaw = {}, {}
    for pr in present[np.argsort(first)].tolist():
        sigma[divmod(pr, k)] = int(sigma_all[pr])
        sigmaw[divmod(pr, k)] = float(sigmaw_all[pr])
    return sizes.tolist(), u.tolist(), uw.tolist(), sigma, sigmaw


def _cluster_stats(p: Partition, g: FeatureGraph):
    """``label_stats`` of a partition over the graph's edges; vertices the
    partition leaves unassigned are not scored."""
    absent = p.labels.keys() - set(g.vertices)
    if absent:
        raise ValueError(f"partition references vertex {min(absent)!r} absent from graph")
    labels = np.array([p.labels.get(v, -1) for v in g.vertices], dtype=np.intp)
    return label_stats(labels, p.k, edge_arrays(g))


def _quality(k, sizes, u, uw, sigma, sigmaw):
    """Cohesion, pairwise coupling and their difference:

    coh_i = u'_i / (N_i^2 + u'_i - u_i)
    cop_ij = sigma'_ij / (2 N_i N_j + sigma'_ij - sigma_ij)

    With the counts standing in for the weights (u' = u, sigma' = sigma)
    these are MQ's u_i / N_i^2 and sigma_ij / (2 N_i N_j)."""
    coh = []
    for i in range(k):
        denom = sizes[i] ** 2 + uw[i] - u[i]
        # ratios are within [0, 1] by construction; clamp float roundoff
        coh.append(min(1.0, uw[i] / denom) if denom > 0 else 0.0)
    cop = {}
    for i, j in combinations(range(k), 2):
        s, sw = sigma.get((i, j), 0), sigmaw.get((i, j), 0.0)
        denom = 2 * sizes[i] * sizes[j] + sw - s
        cop[(i, j)] = min(1.0, sw / denom) if denom > 0 else 0.0
    value = sum(coh) / k
    if k > 1:
        value -= sum(cop.values()) / (k * (k - 1) / 2)
    return coh, cop, value


def mq(p: Partition, g: FeatureGraph) -> tuple[list[float], dict[tuple[int, int], float], float]:
    """Unweighted modularity quality: mean cohesion minus mean pairwise
    coupling. coh_i = u_i / N_i^2, cop_ij = sigma_ij / (2 N_i N_j)."""
    sizes, u, _, sigma, _ = _cluster_stats(p, g)
    return _quality(p.k, sizes, u, u, sigma, sigma)


def mqw(p: Partition, g: FeatureGraph) -> tuple[list[float], dict[tuple[int, int], float], float]:
    """Weighted modularity quality; collapses exactly to MQ on unit weights."""
    return _quality(p.k, *_cluster_stats(p, g))


def cut_value(p: Partition, g: FeatureGraph) -> float:
    """Summed weight of the directed edges between candidates."""
    return sum(_cluster_stats(p, g)[4].values(), 0.0)


def score(p: Partition, g: FeatureGraph, mode: str) -> QualityReport:
    """Assemble a full QualityReport from one pass over the mode graph's
    edges: MQ from the edge counts, MQw from counts and weights, and the cut
    from the weights between candidates."""
    sizes, u, uw, sigma, sigmaw = _cluster_stats(p, g)
    coh, cop, mq_value = _quality(p.k, sizes, u, u, sigma, sigma)
    coh_w, cop_w, mqw_value = _quality(p.k, sizes, u, uw, sigma, sigmaw)
    return QualityReport(
        coh=coh, cop=cop, mq=mq_value,
        coh_w=coh_w, cop_w=cop_w, mqw=mqw_value,
        cut=sum(sigmaw.values(), 0.0), k=p.k, mode=mode,
    )


def report_to_json_str(report: QualityReport) -> str:
    return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
