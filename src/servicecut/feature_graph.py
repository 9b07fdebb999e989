"""Weighted program feature graphs: class-level construction from call
records, performance-attribute attachment, fusion, and the symmetric affinity
matrix fed to the clusterer."""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .cost_model import SizeModel, edge_cost
from .records import CallRecord, PerfRecord, TypeCatalog

log = logging.getLogger(__name__)


@dataclass
class FeatureGraph:
    """Directed weighted graph over classes.

    Vertices are kept sorted so downstream matrices are reproducible. Absent
    edge pairs mean weight zero; self-loops are never stored.
    """

    vertices: list[str]
    edges: dict[tuple[str, str], float]
    vertex_attrs: dict[str, tuple[float, float]] | None = None
    self_calls_dropped: int = 0

    def __post_init__(self):
        self.vertices = sorted(self.vertices)
        for (i, j), w in self.edges.items():
            if i == j:
                raise ValueError(f"self-loop on {i!r}")
            if not 0 < w < math.inf:
                raise ValueError(f"non-positive or non-finite weight {w!r} on ({i!r}, {j!r})")

    def total_weight(self) -> float:
        return sum(self.edges.values())

    def isolated_vertices(self) -> set[str]:
        touched = {v for e in self.edges for v in e}
        return set(self.vertices) - touched

    def without_vertices(self, drop: set[str]) -> "FeatureGraph":
        keep = [v for v in self.vertices if v not in drop]
        edges = {e: w for e, w in self.edges.items() if e[0] not in drop and e[1] not in drop}
        attrs = None if self.vertex_attrs is None else {
            v: a for v, a in self.vertex_attrs.items() if v not in drop}
        return FeatureGraph(keep, edges, attrs, self.self_calls_dropped)


@dataclass
class AffinityMatrix:
    """Sparse (CSR) symmetric non-negative matrix with an empty diagonal,
    rows aligned to ``vertex_ids``; any 2-D array is converted. Symmetry is
    exact: the dense eigensolver reads one triangle and Lanczos the whole
    matrix, so an asymmetric W would give solver-dependent eigenpairs."""

    entries: sp.csr_array
    vertex_ids: list[str]

    def __post_init__(self):
        W = sp.csr_array(self.entries, dtype=float)
        W.sum_duplicates()
        W.eliminate_zeros()
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("affinity matrix must be square")
        if W.shape[0] != len(self.vertex_ids):
            raise ValueError("vertex_ids length must match matrix dimension")
        if (W != W.T).nnz:
            raise ValueError("affinity matrix must be symmetric")
        if (W.data < 0).any():
            raise ValueError("affinity matrix must be non-negative")
        if W.diagonal().any():
            raise ValueError("affinity matrix must have zero diagonal")
        with np.errstate(over="ignore"):  # reported just below
            if not np.isfinite(W.sum(axis=1)).all():
                raise OverflowError("affinity degrees overflow float64")
        self.entries = W

    @property
    def n(self) -> int:
        return len(self.vertex_ids)


def build_class_graph(records: list[CallRecord], catalog: TypeCatalog,
                      model: SizeModel | None = None) -> FeatureGraph:
    """Build the class-level digraph keyed on the records' class fields.
    Repeated (caller_class, callee_class) pairs accumulate by weight
    summation; intra-class calls add no edge, so a class seen only in them
    becomes an isolated vertex. Self-calls are dropped with a warning."""
    model = model or SizeModel()
    classes: set[str] = set()
    edges: dict[tuple[str, str], float] = {}
    dropped = 0
    for r in records:
        classes.add(r.caller_class)
        classes.add(r.callee_class)
        if r.is_self_call:
            dropped += 1
            continue
        if r.caller_class == r.callee_class:
            continue
        key = (r.caller_class, r.callee_class)
        edges[key] = edges.get(key, 0.0) + edge_cost(r.callee_params, catalog, model)
    if dropped:
        log.warning("dropped %d self-call record(s)", dropped)
    return FeatureGraph(sorted(classes), edges, self_calls_dropped=dropped)


def attach_perf(g: FeatureGraph, perf: list[PerfRecord], normalize: bool = True) -> FeatureGraph:
    """Attach (cpu_time, retained_bytes) attributes to every class vertex.

    Missing classes get (0, 0). With ``normalize`` (the default) each
    attribute is divided by its maximum over all classes so both lie in
    [0, 1]; an all-zero attribute stays all-zero.
    """
    known = set(g.vertices)
    by_class = {}
    for r in perf:
        if r.class_id not in known:
            log.warning("perf record for %r has no call-graph vertex; ignored", r.class_id)
            continue
        by_class[r.class_id] = (r.cpu_time, r.retained_bytes)
    t_max = max((t for t, _ in by_class.values()), default=0.0)
    r_max = max((r for _, r in by_class.values()), default=0.0)
    attrs = {}
    for v in g.vertices:
        t, r = by_class.get(v, (0.0, 0.0))
        if normalize:
            t = t / t_max if t_max > 0 else 0.0
            r = r / r_max if r_max > 0 else 0.0
        attrs[v] = (t, r)
    return replace(g, vertex_attrs=attrs)


def fuse(g: FeatureGraph) -> FeatureGraph:
    """Reweight each directed edge (i -> j) by the callee factor
    (t_j + r_j + 1). Edge set and vertex set are unchanged."""
    if g.vertex_attrs is None:
        raise ValueError("fuse requires vertex attributes; call attach_perf first")
    edges = {}
    for (i, j), w in g.edges.items():
        t, r = g.vertex_attrs[j]
        edges[(i, j)] = w * (t + r + 1.0)
        if edges[(i, j)] == math.inf:
            raise OverflowError(f"fused weight of ({i!r}, {j!r}) overflows float64")
    return replace(g, edges=edges)


def unit_structure(g: FeatureGraph) -> FeatureGraph:
    """Replace every edge weight with 1, keeping the edge set. Used by the
    dynamic-only mode so fused weights carry only performance signal."""
    return replace(g, edges={e: 1.0 for e in g.edges})


def edge_arrays(g: FeatureGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(src, dst, weight) of ``g.edges`` in their order, as indices into
    ``g.vertices`` and float weights."""
    index = {v: i for i, v in enumerate(g.vertices)}
    src = np.array([index[s] for s, _ in g.edges], dtype=np.intp)
    dst = np.array([index[d] for _, d in g.edges], dtype=np.intp)
    return src, dst, np.array(list(g.edges.values()), dtype=float)


def to_affinity(g: FeatureGraph) -> AffinityMatrix:
    """Symmetrize by directional sum: W[i][j] = w(i->j) + w(j->i), exact as
    edge keys are unique and never self-loops."""
    src, dst, w = edge_arrays(g)
    n = len(g.vertices)
    A = sp.csr_array((w, (src, dst)), shape=(n, n))
    return AffinityMatrix(A + A.T, list(g.vertices))


def split_core(g: FeatureGraph) -> tuple[FeatureGraph, AffinityMatrix, set[str]]:
    """Split off the isolated vertices, which no partition assigns. Returns
    (core, affinity of the core, isolated vertices)."""
    isolated = g.isolated_vertices()
    core = g.without_vertices(isolated)
    return core, to_affinity(core), isolated


# --- export helpers ---------------------------------------------------------


def write_edge_list(g: FeatureGraph, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "weight"])
        for (src, dst) in sorted(g.edges):
            writer.writerow([src, dst, repr(g.edges[(src, dst)])])


def graph_to_json(g: FeatureGraph) -> dict:
    doc = {
        "granularity": "class",
        "vertices": list(g.vertices),
        "edges": [
            {"src": src, "dst": dst, "weight": g.edges[(src, dst)]}
            for (src, dst) in sorted(g.edges)
        ],
    }
    if g.vertex_attrs is not None:
        doc["vertex_attrs"] = {
            v: {"cpu_time": t, "retained": r} for v, (t, r) in sorted(g.vertex_attrs.items())
        }
    return doc


def write_graph_json(g: FeatureGraph, path: str | Path) -> None:
    Path(path).write_text(json.dumps(graph_to_json(g), indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def write_affinity_csv(W: AffinityMatrix, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + W.vertex_ids)
        # the dense n x n export; W itself stays sparse
        for vid, row in zip(W.vertex_ids, W.entries.toarray()):
            writer.writerow([vid] + [repr(float(x)) for x in row])
