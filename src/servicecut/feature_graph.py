"""Weighted program feature graphs: class-level construction from call
records, the core split, and the symmetric affinity of a graph, from which
the clusterer builds its Laplacian."""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .cost_model import SizeModel, api_estimate
from .records import CallRecord, TypeCatalog, TypeRef


@dataclass(eq=False)
class FeatureGraph:
    """Directed weighted graph over the class ``vertices``. Only the edges
    are checked: three arrays sorted by (src, dst), ``src`` and ``dst``
    indexing ``vertices``, ``weight`` positive and finite, a pair at most
    once and never a self-loop. The modes differ only in ``weight``. The
    commands' graphs list distinct vertices, sorted: ``weigh_calls`` sorts
    them and ``split_core`` keeps their order, so ``first_occurrence``
    numbers their clusters by smallest vertex id."""

    vertices: list[str]
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        loops = self.src == self.dst
        if loops.any():
            raise ValueError(f"self-loop on {self.vertices[self.src[loops.argmax()]]!r}")
        unsorted = np.diff(self.src * len(self.vertices) + self.dst) <= 0
        if unsorted.any():
            e = unsorted.argmax() + 1
            raise ValueError(f"edge {self.pair(e)!r} repeats or precedes {self.pair(e - 1)!r} "
                             f"in (src, dst) order")
        bad = ~((self.weight > 0) & (self.weight < math.inf))
        if bad.any():
            e = bad.argmax()
            raise ValueError(f"non-positive or non-finite weight {float(self.weight[e])!r} "
                             f"on {self.pair(e)!r}")

    @property
    def edges(self) -> dict[tuple[str, str], float]:
        """``{(src, dst): weight}`` in edge order, derived from the arrays."""
        return dict(zip(map(self.pair, range(self.src.size)), self.weight.tolist()))

    def pair(self, e: int) -> tuple[str, str]:
        """The (src, dst) class names of edge ``e``."""
        return self.vertices[self.src[e]], self.vertices[self.dst[e]]


@dataclass
class CallTable:
    """What the class graph needs of a call log, read in one pass: each
    class numbered as first seen in ``code``, and for each inter-class row
    its caller and callee class numbers and the number of its
    callee-parameter tuple in ``params``, the distinct tuples as first seen.
    ``rows`` counts every record, and ``self_calls`` the self-calls among
    them."""

    code: dict[str, int]
    callers: list[int]
    callees: list[int]
    params: list[tuple[TypeRef, ...]]
    row_params: list[int]
    rows: int
    self_calls: int


def collect_calls(records: Iterable[CallRecord]) -> CallTable:
    """Read ``records`` once into a ``CallTable``; no record is kept.
    Callee tuples are numbered by value, so ``params`` holds each once."""
    code: dict[str, int] = {}
    callers: list[int] = []
    callees: list[int] = []
    tuples: dict[tuple[TypeRef, ...], int] = {}
    row_params: list[int] = []
    dropped = rows = 0
    for rows, (caller_method, callee_method, caller_class, callee_class, _, p) in enumerate(
            records, start=1):
        a = code.setdefault(caller_class, len(code))
        b = code.setdefault(callee_class, len(code))
        if a == b:
            # a self-call; the fields are compared, as ids joined as
            # class::method would confuse ns::A/m with ns/A::m
            dropped += caller_method == callee_method
            continue
        callers.append(a)
        callees.append(b)
        row_params.append(tuples.setdefault(p, len(tuples)))
    return CallTable(code, callers, callees, list(tuples), row_params, rows, dropped)


def weigh_calls(calls: CallTable, catalog: TypeCatalog,
                model: SizeModel = SizeModel()) -> FeatureGraph:
    """The class-level digraph of ``calls``, edges sorted by (src, dst), a
    pair at most once. Repeated class pairs accumulate by weight summation;
    intra-class calls add no edge, so a class seen only in them becomes an
    isolated vertex (``collect_calls`` drops self-calls and counts them,
    and this function logs nothing). Each distinct parameter type is sized
    once, and each distinct callee-parameter tuple
    (an entry of ``calls.params``) costs 1 plus its types' sizes, in order;
    ``np.bincount`` adds each pair's costs one row at a time, in row order:
    count x cost would round differently once the sum passes 2**53. A sum
    past the float range is an OverflowError naming the smallest such pair."""
    types = dict.fromkeys(t for p in calls.params for t in p)
    sizes = {t: api_estimate(t, catalog, model) for t in types}
    # float() raises OverflowError for an int cost past the float range
    costs = [float(1 + sum(map(sizes.__getitem__, p))) for p in calls.params]
    vertices = sorted(calls.code)
    index = {v: i for i, v in enumerate(vertices)}
    rank = np.array([index[v] for v in calls.code], dtype=np.int64)
    # np.unique's work arrays set the peak memory of a load: the keys are
    # built in place and the row costs only after it
    n = len(vertices)
    keys = rank[calls.callers]
    keys *= n
    keys += rank[calls.callees]
    pairs, inverse = np.unique(keys, return_inverse=True)
    row_costs = np.array(costs)[np.array(calls.row_params, dtype=np.intp)]
    weight = np.bincount(inverse, weights=row_costs, minlength=pairs.size)
    src, dst = pairs // n, pairs % n
    overflow = np.isinf(weight)
    if overflow.any():
        e = overflow.argmax()
        key = (vertices[src[e]], vertices[dst[e]])
        raise OverflowError(f"summed weight of {key!r} overflows float64")
    return FeatureGraph(vertices, src, dst, weight)


def to_affinity(g: FeatureGraph) -> sp.csr_array:
    """W = A + A.T over ``g.vertices``: W[i][j] = w(i->j) + w(j->i). It is
    exactly symmetric, non-negative and zero on the diagonal: the weights
    are positive and finite and never on a self-loop, each (src, dst) pair
    appears once (``FeatureGraph`` checks all three), and float addition
    commutes, so W[i][j] and W[j][i] add the same two terms."""
    n = len(g.vertices)
    A = sp.csr_array((g.weight, (g.src, g.dst)), shape=(n, n))
    W = A + A.T
    if np.isinf(W.data).any():
        e = np.isinf(W[g.src, g.dst]).argmax()
        raise OverflowError(f"affinity of {g.pair(e)!r} overflows float64")
    return W


def split_core(g: FeatureGraph) -> tuple[FeatureGraph, list[str]]:
    """Split off the isolated vertices, which no partition assigns: returns
    (core, isolated vertices), both in vertex order. The isolated vertices
    touch no edge, so the core keeps every edge, in order, and renumbers."""
    touched = np.bincount(np.concatenate([g.src, g.dst]), minlength=len(g.vertices)) > 0
    index = np.cumsum(touched) - 1
    flags = touched.tolist()
    keep = [v for v, t in zip(g.vertices, flags) if t]
    core = FeatureGraph(keep, index[g.src], index[g.dst], g.weight)
    return core, [v for v, t in zip(g.vertices, flags) if not t]


# --- export helpers ---------------------------------------------------------


def write_edge_list(g: FeatureGraph, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "weight"])
        for (src, dst), w in g.edges.items():
            writer.writerow([src, dst, repr(w)])


def graph_to_json(g: FeatureGraph, attrs: np.ndarray | None = None) -> dict:
    """The graph as a JSON document; ``attrs``, the (n, 2) perf attributes
    over ``g.vertices``, are written as ``vertex_attrs`` when given."""
    doc = {
        "granularity": "class",
        "vertices": list(g.vertices),
        "edges": [{"src": src, "dst": dst, "weight": w} for (src, dst), w in g.edges.items()],
    }
    if attrs is not None:
        doc["vertex_attrs"] = {
            v: {"cpu_time": t, "retained": r} for v, (t, r) in zip(g.vertices, attrs.tolist())
        }
    return doc


def write_affinity_csv(g: FeatureGraph, path: str | Path) -> None:
    """The affinity of ``g`` as a dense n x n table over ``g.vertices``,
    written one row at a time from the stored entries of W: ``"0.0"`` in
    every cell, then each stored value at its column. No n x n array is
    built; W's stored columns are distinct within a row (``to_affinity``
    returns canonical CSR)."""
    W = to_affinity(g)
    zeros = [repr(0.0)] * len(g.vertices)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + g.vertices)
        for vid, lo, hi in zip(g.vertices, W.indptr[:-1].tolist(), W.indptr[1:].tolist()):
            row = zeros.copy()
            for j, w in zip(W.indices[lo:hi].tolist(), W.data[lo:hi].tolist()):
                row[j] = repr(w)
            writer.writerow([vid] + row)
