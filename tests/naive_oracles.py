"""Independent brute-force implementations used as oracles.

These deliberately avoid the library's aggregation code paths: quality
metrics are computed by enumerating every ordered vertex pair, object sizes
by a flat hand-layout table and by the cost model's recursion without a memo,
the class graph by costing every call row anew, the affinity one edge at a
time, k-means one restart after another, and the logs by reading every line
through its own ``csv.reader`` and parsing every params field anew.
``graph_from_edges`` builds the ``FeatureGraph`` of an edge dict for them and
for the tests, and ``build_class_graph`` the library's class graph of a
record list.
"""

from __future__ import annotations

import csv
import math
from itertools import combinations

import numpy as np

from servicecut.cost_model import SizeModel
from servicecut.feature_graph import FeatureGraph, collect_calls, split_core, weigh_calls
from servicecut.metrics import score
from servicecut.oracle import MAX_VERTICES, restricted_growth_strings
from servicecut.records import (
    BOOLEAN_ARRAY_ELEMENT_SIZE,
    CALL_HEADER,
    PERF_HEADER,
    CallRecord,
    LogParseError,
    PerfRecord,
    PRIMITIVE_SIZES,
    ObjectLayout,
    OpaqueLayout,
    TypeCatalog,
    TypeRef,
)
from servicecut.spectral import NumericError


def naive_mq(labels: dict[str, int], edges: dict[tuple[str, str], float], k: int) -> float:
    verts = sorted(labels)
    u = [0] * k
    sizes = [0] * k
    for v in verts:
        sizes[labels[v]] += 1
    sigma = {(i, j): 0 for i, j in combinations(range(k), 2)}
    for a in verts:
        for b in verts:
            if a == b or (a, b) not in edges:
                continue
            ca, cb = labels[a], labels[b]
            if ca == cb:
                u[ca] += 1
            else:
                sigma[(min(ca, cb), max(ca, cb))] += 1
    coh = sum(u[i] / sizes[i] ** 2 for i in range(k)) / k
    if k == 1:
        return coh
    cop = sum(
        sigma[(i, j)] / (2 * sizes[i] * sizes[j]) for i, j in combinations(range(k), 2)
    ) / (k * (k - 1) / 2)
    return coh - cop


def naive_mqw(labels: dict[str, int], edges: dict[tuple[str, str], float], k: int) -> float:
    verts = sorted(labels)
    u = [0] * k
    uw = [0.0] * k
    sizes = [0] * k
    for v in verts:
        sizes[labels[v]] += 1
    sigma = {(i, j): 0 for i, j in combinations(range(k), 2)}
    sigmaw = {(i, j): 0.0 for i, j in combinations(range(k), 2)}
    for a in verts:
        for b in verts:
            if a == b or (a, b) not in edges:
                continue
            w = edges[(a, b)]
            ca, cb = labels[a], labels[b]
            if ca == cb:
                u[ca] += 1
                uw[ca] += w
            else:
                key = (min(ca, cb), max(ca, cb))
                sigma[key] += 1
                sigmaw[key] += w
    coh_terms = []
    for i in range(k):
        denom = sizes[i] ** 2 + uw[i] - u[i]
        coh_terms.append(uw[i] / denom if denom > 0 else 0.0)
    coh = sum(coh_terms) / k
    if k == 1:
        return coh
    cop_terms = []
    for i, j in combinations(range(k), 2):
        denom = 2 * sizes[i] * sizes[j] + sigmaw[(i, j)] - sigma[(i, j)]
        cop_terms.append(sigmaw[(i, j)] / denom if denom > 0 else 0.0)
    cop = sum(cop_terms) / (k * (k - 1) / 2)
    return coh - cop


def naive_cut(labels: dict[str, int], affinity: dict[tuple[str, str], float], k: int) -> float:
    """Half the sum, over clusters, of affinity leaving the cluster."""
    verts = sorted(labels)
    total = 0.0
    for c in range(k):
        inside = {v for v in verts if labels[v] == c}
        outside = [v for v in verts if labels[v] != c]
        for a in inside:
            for b in outside:
                total += affinity.get((a, b), 0.0)
    return total / 2.0


def naive_cluster_stats(labels: dict[str, int], edges: dict[tuple[str, str], float], k: int):
    """Cluster sizes, intra counts/weights, inter-pair counts/weights and
    the cut total by one loop over the edges in their order; pairs in
    first-seen order."""
    sizes = [0] * k
    for c in labels.values():
        sizes[c] += 1
    u = [0] * k
    uw = [0.0] * k
    sigma: dict[tuple[int, int], int] = {}
    sigmaw: dict[tuple[int, int], float] = {}
    cut = 0.0
    for (src, dst), w in edges.items():
        if src not in labels or dst not in labels:
            continue
        ci, cj = labels[src], labels[dst]
        if ci == cj:
            u[ci] += 1
            uw[ci] += w
        else:
            pair = (min(ci, cj), max(ci, cj))
            sigma[pair] = sigma.get(pair, 0) + 1
            sigmaw[pair] = sigmaw.get(pair, 0.0) + w
            cut += w
    return sizes, u, uw, sigma, sigmaw, cut


def canonicalize(labels: dict[str, int]) -> dict[str, int]:
    """Renumber clusters by their smallest contained vertex id so partitions
    compare across runs regardless of k-means label permutation."""
    rep = {}
    for v, c in labels.items():
        if c not in rep or v < rep[c]:
            rep[c] = v
    order = sorted(rep, key=lambda c: rep[c])
    remap = {c: i for i, c in enumerate(order)}
    return {v: remap[c] for v, c in labels.items()}


def naive_brute_force_best(g: FeatureGraph, k: int,
                           objective: str) -> tuple[dict[str, int], float]:
    """Enumerate every partition of the non-isolated vertices into exactly k
    non-empty parts; return the best partition under the objective
    (maximize ``mqw``, minimize ``cut``). One partition scored at a time."""
    if objective not in ("mqw", "cut"):
        raise ValueError(f"unknown objective {objective!r}")
    core, _ = split_core(g)
    verts = core.vertices
    n = len(verts)
    if n > MAX_VERTICES:
        raise ValueError(f"brute force bounded to {MAX_VERTICES} vertices, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    best_p, best_v = None, None
    for labels in restricted_growth_strings(n, k):
        p = canonicalize(dict(zip(verts, labels)))
        r = score(np.array([p[v] for v in verts]), k, core, "")
        if objective == "mqw":
            value = r.mqw
            better = best_v is None or value > best_v
        else:
            value = r.cut
            better = best_v is None or value < best_v
        if better:
            best_p, best_v = p, value
    return best_p, best_v


def graph_from_edges(vertices, edges: dict[tuple[str, str], float]) -> FeatureGraph:
    """The graph of ``{(src, dst): weight}`` over ``vertices``, any order:
    its edges sorted by (src, dst), as ``FeatureGraph`` requires."""
    vertices = sorted(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    pairs = sorted(((index[s], index[d]), w) for (s, d), w in edges.items())
    src = np.array([s for (s, _), _ in pairs], dtype=np.intp)
    dst = np.array([d for (_, d), _ in pairs], dtype=np.intp)
    return FeatureGraph(vertices, src, dst, np.array([w for _, w in pairs], dtype=float))


def build_class_graph(records, catalog: TypeCatalog,
                      model: SizeModel = SizeModel()) -> FeatureGraph:
    """The library's class graph of ``records``, read in one pass."""
    return weigh_calls(collect_calls(records), catalog, model)


def naive_build_class_graph(records: list[CallRecord], catalog: TypeCatalog,
                            model: SizeModel | None = None) -> tuple[FeatureGraph, int]:
    """``build_class_graph`` with no cost memo: every inter-class row costs
    1 plus the unmemoized size of each callee parameter, and each cost is
    added to its class pair in row order.
    Returns the graph, its edges sorted by (src, dst), and the count of
    self-calls dropped."""
    model = model or SizeModel()
    classes: set[str] = set()
    edges: dict[tuple[str, str], float] = {}
    dropped = 0
    for r in records:
        classes.add(r.caller_class)
        classes.add(r.callee_class)
        if (r.caller_class, r.caller_method) == (r.callee_class, r.callee_method):
            dropped += 1
            continue
        if r.caller_class == r.callee_class:
            continue
        key = (r.caller_class, r.callee_class)
        cost = 1 + sum(naive_api_estimate(p, catalog, model) for p in r.callee_params)
        edges[key] = edges.get(key, 0.0) + cost
    return graph_from_edges(classes, dict(sorted(edges.items()))), dropped


def naive_affinity(g) -> np.ndarray:
    """Directional-sum symmetrization one edge at a time:
    W[i][j] = w(i->j) + w(j->i), rows in ``g.vertices`` order."""
    ids = list(g.vertices)
    index = {v: i for i, v in enumerate(ids)}
    W = np.zeros((len(ids), len(ids)))
    for (src, dst), w in g.edges.items():
        i, j = index[src], index[dst]
        W[i, j] += w
        W[j, i] += w
    return W


def hand_object_size(field_sizes: list[int], header: int = 12, alignment: int = 8) -> int:
    """Flat manual layout: header plus field bytes, padded up."""
    total = header + sum(field_sizes)
    remainder = total % alignment
    return total if remainder == 0 else total + alignment - remainder


def naive_api_estimate(t: TypeRef, catalog: TypeCatalog, model: SizeModel) -> int:
    """``api_estimate`` without a memo: every field of every object on every
    path is costed anew, so the time is exponential in the depth."""
    return _naive_estimate(t, catalog, model, 0, frozenset())


def _naive_estimate(t: TypeRef, catalog: TypeCatalog, model: SizeModel,
                    depth: int, visiting: frozenset[str]) -> int:
    if t.array_rank > 0:
        element = TypeRef(t.name, t.array_rank - 1)
        if element.array_rank == 0 and element.name in PRIMITIVE_SIZES:
            elem_size = (BOOLEAN_ARRAY_ELEMENT_SIZE if element.name == "boolean"
                         else PRIMITIVE_SIZES[element.name])
        else:
            elem_size = _naive_estimate(element, catalog, model, depth + 1, visiting)
        return model.align(model.header_array + model.assumed_array_len * elem_size)

    if t.name in PRIMITIVE_SIZES:
        return PRIMITIVE_SIZES[t.name]
    layout = catalog.layouts.get(t.name)
    if layout is None:
        return model.default_unknown
    if isinstance(layout, OpaqueLayout):
        return layout.size_bytes
    assert isinstance(layout, ObjectLayout)
    if depth >= model.max_depth or t.name in visiting:
        return model.ref_slot
    visiting = visiting | {t.name}
    data = sum(_naive_estimate(f, catalog, model, depth + 1, visiting) for f in layout.fields)
    return model.align(model.header_plain + data)


# k-means with one Lloyd run per restart, each restart's k-means++ centers
# drawn with rng.choice: the labels the batched library kmeans must match.


def naive_kmeans(points: np.ndarray, k: int, seed: int, n_restarts: int = 10,
                 max_iter: int = 300) -> np.ndarray:
    """Lloyd's algorithm with distance-weighted seeding, deterministic given
    the seed. Keeps the best of ``n_restarts`` runs by inertia; runs that
    collapse to an empty cluster are retried (bounded)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if np.unique(pts, axis=0).shape[0] < k:
        raise ValueError("k exceeds distinct embedded points")
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    attempts = 0
    runs = 0
    while runs < n_restarts and attempts < 4 * n_restarts:
        attempts += 1
        labels, inertia = _naive_lloyd_once(pts, k, rng, max_iter)
        if labels is None:
            continue  # empty-cluster collapse; retry with fresh init
        runs += 1
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    if best_labels is None:
        raise NumericError("k-means failed to produce k non-empty clusters")
    return best_labels


def _naive_kmeanspp_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    # each squared distance adds its squared coordinate differences in
    # coordinate order, one accumulator for all d terms
    n, d = pts.shape
    centers = np.empty((k, d))
    centers[0] = pts[rng.integers(n)]
    d2 = sum((pts[:, j] - centers[0, j]) ** 2 for j in range(d))
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            # all remaining points coincide with chosen centers; pick any
            # point distinct from them (guaranteed by the distinct-count check)
            taken = {tuple(c) for c in centers[:i]}
            idx = next(j for j in range(n) if tuple(pts[j]) not in taken)
        centers[i] = pts[idx]
        d2 = np.minimum(d2, sum((pts[:, j] - centers[i, j]) ** 2 for j in range(d)))
    return centers


def _naive_lloyd_once(pts, k, rng, max_iter):
    centers = _naive_kmeanspp_init(pts, k, rng)
    labels = None
    for _ in range(max_iter):
        dists = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        if np.unique(new_labels).size < k:
            return None, np.inf
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = pts[labels == c].mean(axis=0)
    inertia = float(((pts - centers[labels]) ** 2).sum())
    return labels, inertia


# log parsing with one csv.reader per physical line: the fields the library's
# split of quote-free lines must match


def _naive_rows(path, header: tuple[str, ...]):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = list(fh)
    first = True
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip() or raw.strip().startswith("#"):
            continue
        try:
            (row,) = csv.reader([raw])
        except csv.Error as exc:
            raise LogParseError(str(exc), path, lineno) from None
        row = tuple(f.strip() for f in row)
        if len(row) != len(header):
            raise LogParseError(f"expected {len(header)} columns, got {len(row)}", path, lineno)
        if not (first and row == header):
            yield lineno, row
        first = False


def naive_parse_call_log(path) -> list[CallRecord]:
    records = []
    for lineno, row in _naive_rows(path, CALL_HEADER):
        for label, value in zip(CALL_HEADER, row[:4]):
            if not value:
                raise LogParseError(f"empty {label}", path, lineno)
        params = []
        for text in row[4:]:
            refs = []
            for token in text.split(";") if text else ():
                try:
                    refs.append(TypeRef.parse(token))
                except ValueError as exc:
                    raise LogParseError(str(exc), path, lineno) from exc
            params.append(tuple(refs))
        records.append(CallRecord(*row[:4], *params))
    return records


def naive_parse_perf_log(path) -> list[PerfRecord]:
    records = []
    for lineno, (class_id, cpu_text, retained_text) in _naive_rows(path, PERF_HEADER):
        if not class_id:
            raise LogParseError("empty class_id", path, lineno)
        if any(r.class_id == class_id for r in records):
            raise LogParseError(f"duplicate class_id {class_id!r}", path, lineno)
        try:
            cpu, retained = float(cpu_text), float(retained_text)
        except ValueError as exc:
            raise LogParseError(f"non-numeric field: {exc}", path, lineno) from exc
        if not (math.isfinite(cpu) and math.isfinite(retained)):
            raise LogParseError("non-finite cpu_time or retained_bytes", path, lineno)
        if cpu < 0:
            raise LogParseError("negative cpu_time", path, lineno)
        if retained < 0:
            raise LogParseError("negative retained_bytes", path, lineno)
        records.append(PerfRecord(class_id, cpu, retained))
    return records
