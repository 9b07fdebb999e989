"""Spectral relaxation of the multiway min-cut: unnormalized Laplacian,
smallest-k eigenvector embedding, seeded k-means on the embedded rows."""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackError, eigsh

from .feature_graph import FeatureGraph, to_affinity


class NumericError(RuntimeError):
    """Eigensolver or clustering failure."""


@dataclass
class Embedding:
    """Columns of U are eigenvectors of the k smallest eigenvalues of L,
    ascending; the rows are the points handed to k-means."""

    U: np.ndarray
    eigenvalues: np.ndarray


def build_laplacian(g: FeatureGraph) -> sp.csr_array:
    """L = D - W, with W the affinity of ``g`` (see ``to_affinity``) and D
    the diagonal matrix of its degrees, as a CSR array."""
    if not g.vertices:
        raise ValueError("empty graph")
    W = to_affinity(g)
    with np.errstate(over="ignore"):  # reported just below
        degrees = W.sum(axis=1)
    if not np.isfinite(degrees).all():
        raise OverflowError("affinity degrees overflow float64")
    return sp.csr_array(sp.diags_array(degrees) - W)


# Above this many vertices ``embed`` solves for the k smallest eigenpairs by
# Lanczos. A full dense ``eigh`` is faster below n = 500-600 (2-core host);
# the margin keeps graphs up to this size on the exact dense solve.
_DENSE_MAX_N = 1000
_CHECK_TOL = 1e-6  # both eigenpair checks' tolerance, relative to L's largest entry


def embed(g: FeatureGraph, k: int) -> Embedding:
    """Eigenpairs of the k smallest eigenvalues of the Laplacian of ``g``,
    ascending; row i belongs to ``g.vertices[i]``.

    Graphs above ``_DENSE_MAX_N`` vertices are solved by Lanczos; if it does
    not converge, or its eigenpairs fail the residual or kernel check, the
    dense solve runs instead. Every returned embedding passed the residual
    check."""
    L = build_laplacian(g)
    n = L.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if n > _DENSE_MAX_N and k + 1 < n:
        try:
            emb = _lanczos(L, k)
            _check_residuals(L, emb)
            _check_kernel(L, emb)
            return emb
        except (ArpackError, NumericError):
            pass  # the dense solve below is exact where Lanczos falls short
    try:
        eigenvalues, vectors = np.linalg.eigh(L.toarray())
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    # a copy of the k columns releases the dense n x n eigenvectors
    emb = Embedding(vectors[:, :k].copy(), eigenvalues[:k])
    _check_residuals(L, emb)
    return emb


def _lanczos(L: sp.csr_array, k: int) -> Embedding:
    """The k smallest eigenpairs of L, ascending, as the k largest of
    c*I - L with c = 2 * max degree, which bounds L's spectrum (Gershgorin).
    ARPACK's stopping test is relative to each Ritz value, so the shift holds
    every wanted pair to about tol * c; unshifted (``which="SA"``, which needs
    no factorization either), eigenvalues near 0 must converge almost exactly,
    and a weighted 1,500-vertex path at k = 2 failed after 15,001 iterations."""
    n = L.shape[0]
    c = 2.0 * float(L.diagonal().max())
    # a fixed start vector: ARPACK's default one is random on every call, and
    # the constant vector is an eigenvector of L, so its Krylov space is
    # one-dimensional
    v0 = np.random.default_rng(0).standard_normal(n)
    mu, vectors = eigsh(sp.eye_array(n, format="csr") * c - L, k=k, which="LA",
                        tol=1e-12, v0=v0)
    # contiguous rows for k-means
    return Embedding(vectors[:, ::-1].copy(), (c - mu)[::-1])


def _scale(L: sp.csr_array) -> float:
    return float(np.abs(L.data).max(initial=1.0))


def _check_residuals(L: sp.csr_array, emb: Embedding) -> None:
    # relative to the largest entry, so the norm's squares cannot overflow
    residuals = np.linalg.norm((L @ emb.U - emb.U * emb.eigenvalues) / _scale(L), axis=0)
    worst = int(residuals.argmax())
    if not residuals[worst] <= _CHECK_TOL:
        raise NumericError(f"eigenpair {worst} residual {residuals[worst]:.3e} exceeds tolerance")


def _check_kernel(L: sp.csr_array, emb: Embedding) -> None:
    """Lanczos can miss copies of a repeated eigenvalue and still return
    exact eigenpairs. Eigenvalue 0 has one copy per connected component, so
    the embedding must hold min(k, components) of them."""
    components = connected_components(L, directed=False, return_labels=False)
    zeros = int(np.count_nonzero(np.abs(emb.eigenvalues) <= _CHECK_TOL * _scale(L)))
    if zeros < min(emb.U.shape[1], components):
        raise NumericError(f"{zeros} zero eigenvalues found for {components} components")


# About this many float64 values (1 MiB) bound each batch of ``kmeans``: the
# point-distance table exists only when its n * n values fit, and seeds per
# k-means++ batch are capped at it over n * d, so a column-wise distance pass,
# the table's one or a batch's, holds one accumulator within it and one term.
# A Lloyd pass over a pool of R restarts holds F, (R, k, n), with its mask
# written over it, two (R, n) label arrays and the (R, n) one-hot array of
# its means, and an (R, n, d) array for the inertia of the restarts that
# stop, so the pool is capped at half of it over n * max(k, d) restarts; a
# pass runs its direct-form fallback in chunks of about this many terms.
_BATCH_VALUES = 2 ** 17
_RESTARTS = 10  # Lloyd runs kept per seed
_MAX_ITER = 300  # Lloyd iterations per run


def kmeans(points: np.ndarray, k: int, seeds: Sequence[int]) -> np.ndarray:
    """Lloyd's algorithm with distance-weighted seeding on (n, d >= 2) points
    for 2 <= k <= n, run once per seed: (len(seeds), n) labels, row i fixed by ``seeds[i]``.
    Each seed keeps the best of ``_RESTARTS`` (10) runs: the lowest
    inertia, and among equal inertias the earliest attempt, which is the
    first strictly lowest in attempt order. Each run is of at most
    ``_MAX_ITER`` (300) Lloyd iterations; runs that collapse to an empty
    cluster are retried, up to ``4 * _RESTARTS`` attempts per seed.

    The restarts of all seeds share one pool of Lloyd iterations
    (``_lloyd``). It starts with every seed's first ``_RESTARTS`` attempts,
    whose k-means++ centers are drawn attempt index by attempt index, for
    all seeds at once, up to ``_BATCH_VALUES // (n * d)`` seeds per batch.
    Up to ``_BATCH_VALUES // (2 * n * max(k, d))`` restarts (at least 1) run
    as one array operation, and when one stops (converged, collapsed or at
    the iteration cap) the pool's next restart takes its slot, so restarts
    stop out of order. A collapsed restart's retry is drawn when it stops
    and joins the end of the pool, so a seed's pool rows follow its attempt
    order and the tie rule above is the lowest (inertia, pool row), which
    makes the winner independent of the stopping order. Each seed draws
    from its own Generator in attempt order, and Lloyd draws nothing, so
    each seed's draws, and with them its labels, are those of running its
    restarts one after another.

    Every k-means++ center is one of the points, so seeding reads the
    squared distances from a center to all points as rows of the points'
    own distances (``_point_rows``): an (n, n) table built once per call
    when its n * n values fit in ``_BATCH_VALUES``, else the row of each
    drawn point summed when it is drawn. Either way a squared distance is
    its d squared coordinate differences added in coordinate order into one
    accumulator (``_column_sum``), so the draws do not depend on which. The
    d^2 values feed the sampling CDF bit for bit, so no point may skip them.

    Labels are those of the direct form ``((x - c) ** 2).sum()``, whose
    argmin ties and inertia bits they depend on. A Lloyd pass finds them
    from one matrix product, |c|^2 - 2x.c (``_certified_labels``); that
    expanded form sums in another order, so a point keeps its argmin only
    where the gap to every other center exceeds a rounding bound, and the
    few points without that certificate, exact ties among them, take the
    direct form (``_assign``). Its means are one sparse product
    (``_centroids``), bit-equal to each cluster's ``mean``."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 2 or not 2 <= k <= pts.shape[0]:
        raise ValueError(f"k-means takes (n, d >= 2) points and 2 <= k <= n, "
                         f"got shape {pts.shape} and k={k}")
    n, d = pts.shape
    if not np.isfinite(pts).all():
        raise NumericError("k-means points contain NaN or inf")
    with np.errstate(over="ignore"):
        # bounds every squared distance, and the sum of n of them
        bound = n * float(((pts.max(axis=0) - pts.min(axis=0)) ** 2).sum())
    if not np.isfinite(bound):
        raise NumericError("k-means squared distances overflow float64")
    if np.unique(pts, axis=0).shape[0] < k:
        raise NumericError("k exceeds distinct embedded points")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    best_labels = np.zeros((len(rngs), n), dtype=np.intp)
    best_inertia = np.full(len(rngs), np.inf)
    best_row = np.zeros(len(rngs), dtype=int)
    runs = np.zeros(len(rngs), dtype=int)
    attempts = np.full(len(rngs), _RESTARTS)
    seeding = max(1, _BATCH_VALUES // (n * d))
    rows = _point_rows(pts)
    # pool row r is an attempt of seed owner[r]: the first _RESTARTS of
    # every seed, attempt index by attempt index, then retries as drawn
    owner = list(range(len(rngs))) * _RESTARTS
    centers = [c for _ in range(_RESTARTS) for lo in range(0, len(rngs), seeding)
               for c in _kmeanspp_init(pts, k, rngs[lo:lo + seeding], rows)]
    width = max(1, _BATCH_VALUES // (2 * n * max(k, d)))
    for r, labels, inertia in _lloyd(pts, k, centers, width):
        s = owner[r]
        if labels is None:  # empty-cluster collapse: retried in the same pool
            if attempts[s] < 4 * _RESTARTS:
                attempts[s] += 1
                owner.append(s)
                centers.extend(_kmeanspp_init(pts, k, [rngs[s]], rows))
            continue
        runs[s] += 1
        if (inertia, r) < (best_inertia[s], best_row[s]):
            best_labels[s], best_inertia[s], best_row[s] = labels, inertia, r
    if not runs.all():
        raise NumericError("k-means failed to produce k non-empty clusters")
    return best_labels


def _point_rows(pts: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """idx -> the (P, n) squared distances from the points ``pts[idx]`` to
    all n points, each row as ``_column_sum`` sums it: summed per call, or,
    when the n * n values fit in ``_BATCH_VALUES``, read from the (n, n)
    table of every point's row, built in one call."""
    n = pts.shape[0]
    columns = pts.T.copy()
    rows = lambda idx: _column_sum(columns, pts[idx])
    return rows if n * n > _BATCH_VALUES else rows(np.arange(n)).__getitem__


def _kmeanspp_init(pts: np.ndarray, k: int, rngs: list[np.random.Generator],
                   rows: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """(P, k, d) k-means++ centers, row p drawn from ``rngs[p]`` as
    ``rng.choice(n, p=d2 / d2.sum())`` would draw each center after the
    first, without its checks; ``rows`` maps (P,) point indices to their
    (P, n) squared distances to all points (see ``_point_rows``)."""
    n, d = pts.shape
    centers = np.empty((len(rngs), k, d))
    idx = np.array([rng.integers(n) for rng in rngs])
    centers[:, 0] = pts[idx]
    d2 = rows(idx)  # a fresh array: updated in place below
    for i in range(1, k):
        total = d2.sum(axis=1)
        with np.errstate(invalid="ignore"):  # rows with total 0 take the fallback
            cdf = (d2 / total[:, None]).cumsum(axis=1)
            cdf /= cdf[:, -1:]
        u = np.array([rng.random() if t > 0 else np.nan for rng, t in zip(rngs, total)])
        # the cdf never decreases, so this count is searchsorted(u, side="right")
        idx = (cdf <= u[:, None]).sum(axis=1)
        for p in np.flatnonzero(~(total > 0)):
            # all remaining points coincide with chosen centers; pick any
            # point distinct from them (guaranteed by the distinct-count check)
            taken = {tuple(c) for c in centers[p, :i]}
            idx[p] = next(j for j in range(n) if tuple(pts[j]) not in taken)
        centers[:, i] = pts[idx]
        np.minimum(d2, rows(idx), out=d2)
    return centers


def _column_sum(columns: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(R, n) squared distances from the (R, d) ``centers`` to the points of
    the (d, n) ``columns``: the squared differences of coordinate j,
    ``(centers[:, j, None] - columns[j]) ** 2``, added into one accumulator
    in coordinate order, j = 0, 1, ..., d - 1, so the innermost loop runs
    over the n points."""
    acc = np.square(centers[:, :1] - columns[0])
    t = np.empty_like(acc)
    for j in range(1, columns.shape[0]):
        np.subtract(centers[:, j, None], columns[j], out=t)
        acc += np.square(t, out=t)
    return acc


_UNIT_ROUNDOFF = 2.0 ** -53
# Far above what underflowing products can add to the compared sums: at most
# (4d + 8) * 2^-1074, or (4d + 8) * 2^-1022 where subnormal products are
# flushed to zero, for any d below 2^18.
_UNDERFLOW_FLOOR = 2.0 ** -1000


def _certified_labels(pts: np.ndarray, norms: np.ndarray,
                      centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, n) argmins of F = |c|^2 - 2x.c, the squared distance less |x|^2,
    from one matrix product of the (n, d) ``pts`` (of Euclidean ``norms``)
    and the (R, k, d) ``centers``, and an (R, n) mask of the points whose
    argmin is certified to be the direct form's (see ``_assign``); the
    labels of the other points are meaningless.

    With u = 2^-53, g = (d + 2)u / (1 - (d + 2)u) and M = (|x| + max |c|)^2,
    the computed F of each center is within g * M of the exact one in any
    summation order, and the direct form's sum within g * D <= g * M of the
    exact squared distance D (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1). F and D differ by |x|^2 alone, so a center j whose F
    is lower than every other center's by more than 4g * M is also the
    direct form's strict minimum. The test
    doubles that bound, for the rounded norms and the comparison itself, and
    adds ``_UNDERFLOW_FLOOR``. A point is certified when j is the only
    center within the bound of the minimum and the bound and all its F are
    finite, so ties, overflow and NaN are never certified."""
    R, k, d = centers.shape
    n = pts.shape[0]
    m = (d + 2) * _UNIT_ROUNDOFF
    gamma = m / (1 - m)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values fail below
        sq = (centers ** 2).sum(axis=-1)
        F = ((-2.0 * centers).reshape(R * k, d) @ pts.T).reshape(R, k, n)
        F += sq[:, :, None]
        bound = norms + np.sqrt(sq.max(axis=1))[:, None]
        bound *= 2.0
        bound *= bound  # 4M: finite only with headroom for every sum above
        bound *= 2.0 * gamma
        bound += _UNDERFLOW_FLOOR
        bound += F.min(axis=1)  # NaN if any F is NaN
        certified = np.isfinite(bound)
        # a finite bound implies finite F; checked so no label rests on that alone
        if not np.isfinite(F.max()):
            certified &= np.isfinite(F).all(axis=1)
        near = np.less_equal(F, bound[:, None, :], out=F)  # 1.0 within the bound, over F
        # each center within the bound adds k + j: one center j sums to
        # k + j, below 2k, and two or more to at least 2k + 1 (exact in float64)
        code = np.arange(k, 2 * k, dtype=float) @ near
        certified &= code < 2 * k
    return code.astype(np.intp) - k, certified


def _assign(pts: np.ndarray, norms: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(R, n) labels equal to the argmin over k of the direct form
    ``((pts[:, None, :] - centers[:, None]) ** 2).sum(axis=-1)``: the
    certified argmins of ``_certified_labels``, and that direct form for
    every other point, in chunks of about ``_BATCH_VALUES`` terms."""
    labels, certified = _certified_labels(pts, norms, centers)
    r, i = np.nonzero(~certified)
    _, k, d = centers.shape
    step = max(1, _BATCH_VALUES // (k * d))
    for lo in range(0, r.size, step):
        rs, ps = r[lo:lo + step], i[lo:lo + step]
        labels[rs, ps] = ((pts[ps][:, None, :] - centers[rs]) ** 2).sum(axis=-1).argmin(axis=-1)
    return labels


def _lloyd(pts: np.ndarray, k: int, centers: list[np.ndarray],
           width: int) -> Iterator[tuple[int, np.ndarray | None, float]]:
    """Lloyd iterations of the restarts of the (k, d) ``centers``, at most
    ``width`` at once as one array operation. A restart stops when its
    labels stop changing, when a cluster goes empty (its labels are then
    None) or at ``_MAX_ITER``, and the next restart, in row order, takes its
    slot. Yields (row, labels, inertia) of each restart as it stops. The
    caller may extend ``centers`` while iterating: a slot that frees up
    reads ``len(centers)``, so an appended restart joins the pool."""
    n, d = pts.shape
    with np.errstate(over="ignore"):  # an overflowed norm fails every certificate
        norms = np.sqrt((pts ** 2).sum(axis=1))
    # per slot: its restart's row, centers, labels (-1 before the first
    # pass) and passes run
    live = np.zeros(0, dtype=int)
    current = np.zeros((0, k, d))
    labels = np.zeros((0, n), dtype=np.intp)
    passes = np.zeros(0, dtype=int)
    started = 0
    while True:
        if fill := min(width - live.size, len(centers) - started):
            live = np.concatenate([live, np.arange(started, started + fill)])
            current = np.concatenate([current, centers[started:started + fill]])
            labels = np.concatenate([labels, np.full((fill, n), -1)])
            passes = np.concatenate([passes, np.zeros(fill, dtype=int)])
            started += fill
        if not live.size:
            return
        new = _assign(pts, norms, current)
        counts = np.bincount((new + k * np.arange(live.size)[:, None]).ravel(),
                             minlength=live.size * k).reshape(-1, k)
        empty = (counts == 0).any(axis=1)
        moved = ~empty & (new != labels).any(axis=1)
        labels = new  # unchanged where nothing moved; unused where a cluster is empty
        current[moved] = _centroids(pts, new[moved], counts[moved])
        passes += 1
        stop = ~moved | (passes == _MAX_ITER)
        if not stop.any():
            continue
        for r in live[empty]:
            yield r, None, np.inf
        # each row sums its n * d terms as ((pts - centers[labels]) ** 2).sum() does
        done = np.flatnonzero(stop & ~empty)
        inertia = ((pts - current[done[:, None], labels[done]]) ** 2).reshape(
            done.size, pts.size).sum(axis=1)
        for i, value in zip(done, inertia.tolist()):
            yield live[i], labels[i], value
        keep = ~stop
        live, current, labels, passes = live[keep], current[keep], labels[keep], passes[keep]


def _centroids(pts: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(R, k, d) cluster means for (R, n) labels whose clusters are all
    non-empty, each bit-identical to ``pts[labels[r] == c].mean(axis=0)``:
    the sums are one product of the (R * k, n) one-hot CSC array and
    ``pts``, which adds each point's row into its cluster's sum in point
    order, starting from zero, as the mean does."""
    R, k = counts.shape
    n, d = pts.shape
    if not R:
        return np.zeros((0, k, d))
    onehot = sp.csc_array((np.ones(R * n), (labels + k * np.arange(R)[:, None]).T.ravel(),
                           np.arange(0, R * n + 1, R)), shape=(R * k, n))
    return (onehot @ pts).reshape(R, k, d) / counts[:, :, None]


def extract_candidates(g: FeatureGraph, k: int, seed: int) -> np.ndarray:
    """End-to-end on a graph without isolated vertices: smallest-k embedding,
    k-means, canonical relabeling (clusters renumbered by smallest contained
    vertex id). Returns the (n,) labels over ``g.vertices``. A k outside
    [2, n] is a ValueError from ``embed`` or ``kmeans``."""
    return first_occurrence(kmeans(embed(g, k).U, k, [seed]), k)[0]


def candidates(vertices: Sequence[str], labels: np.ndarray, k: int) -> list[list[str]]:
    """The k candidates of the (n,) ``labels`` over the sorted ``vertices``:
    candidate i lists, in vertex order, the vertices labeled i."""
    groups: list[list[str]] = [[] for _ in range(k)]
    for v, c in zip(vertices, labels.tolist()):
        groups[c].append(v)
    return groups


def first_occurrence(labels: np.ndarray, k: int) -> np.ndarray:
    """Renumber the clusters of each row of (P, n) ``labels`` in the order
    they first occur along the row, so partitions compare across runs
    regardless of k-means label permutation. Rows that follow the sorted
    vertex ids are numbered by each cluster's smallest vertex id."""
    P, n = labels.shape
    first = np.full(P * k, n)
    present, at = np.unique(labels + k * np.arange(P)[:, None], return_index=True)
    first[present] = at % n
    rank = np.argsort(np.argsort(first.reshape(P, k), axis=1), axis=1)
    return np.take_along_axis(rank, labels, axis=1)
