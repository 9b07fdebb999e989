"""Spectral relaxation of the multiway min-cut: unnormalized Laplacian,
smallest-k eigenvector embedding, seeded k-means on the embedded rows."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackError, eigsh

from .feature_graph import AffinityMatrix


class NumericError(RuntimeError):
    """Eigensolver or clustering failure."""


@dataclass
class Laplacian:
    """L = D - W with D the diagonal degree matrix of W, as a CSR array."""

    matrix: sp.csr_array

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass
class Embedding:
    """Columns of U are eigenvectors of the k smallest eigenvalues of L,
    ascending; the rows are the points handed to k-means."""

    U: np.ndarray
    eigenvalues: np.ndarray


@dataclass
class Partition:
    """Assignment of every non-isolated class vertex to one of K candidates."""

    labels: dict[str, int]
    k: int
    unassigned: set[str] = field(default_factory=set)

    def __post_init__(self):
        used = set(self.labels.values())
        if used and used != set(range(self.k)):
            raise ValueError("every candidate index in [0, K) must be non-empty")

    def candidates(self) -> list[list[str]]:
        groups: list[list[str]] = [[] for _ in range(self.k)]
        for v in sorted(self.labels):
            groups[self.labels[v]].append(v)
        return groups

    def to_json(self, seed: int | None = None) -> dict:
        doc = {
            "k": self.k,
            "candidates": self.candidates(),
            "unassigned": sorted(self.unassigned),
        }
        if seed is not None:
            doc["seed"] = seed
        return doc


def build_laplacian(W: AffinityMatrix) -> Laplacian:
    if W.n == 0:
        raise ValueError("empty graph")
    return Laplacian(sp.csr_array(sp.diags_array(W.entries.sum(axis=1)) - W.entries))


# Above this many vertices ``embed`` solves for the k smallest eigenpairs by
# Lanczos. A full dense ``eigh`` is faster below n = 500-600 (2-core host);
# the margin keeps graphs up to this size on the exact dense solve.
_DENSE_MAX_N = 1000


def embed(L: Laplacian, k: int) -> Embedding:
    """Eigenpairs of the k smallest eigenvalues, ascending, with a
    deterministic sign convention (first nonzero coordinate positive).

    Graphs above ``_DENSE_MAX_N`` vertices are solved by Lanczos; if it does
    not converge, or its eigenpairs fail the residual or kernel check, the
    dense solve runs instead. Every returned embedding passed the residual
    check."""
    n = L.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if n > _DENSE_MAX_N and k + 1 < n:
        try:
            emb = _signed(*_lanczos(L, k))
            _check_residuals(L, emb)
            _check_kernel(L, emb)
            return emb
        except (ArpackError, NumericError):
            pass  # the dense solve below is exact where Lanczos falls short
    try:
        eigenvalues, vectors = np.linalg.eigh(L.matrix.toarray())
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    emb = _signed(eigenvalues[:k], vectors[:, :k])
    _check_residuals(L, emb)
    return emb


def _lanczos(L: Laplacian, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k smallest eigenpairs of L, ascending, as the k largest of
    c*I - L with c = 2 * max degree, which bounds L's spectrum (Gershgorin),
    so the wanted end is the largest and no factorization is needed."""
    n = L.n
    c = 2.0 * float(L.matrix.diagonal().max())
    # a fixed start vector: ARPACK's default one is random on every call, and
    # the constant vector is an eigenvector of L, so its Krylov space is
    # one-dimensional
    v0 = np.random.default_rng(0).standard_normal(n)
    mu, vectors = eigsh(sp.eye_array(n, format="csr") * c - L.matrix, k=k, which="LA",
                        tol=1e-12, v0=v0)
    return (c - mu)[::-1], vectors[:, ::-1]


def _signed(eigenvalues: np.ndarray, vectors: np.ndarray) -> Embedding:
    U = vectors.copy()
    for col in range(U.shape[1]):
        v = U[:, col]
        nonzero = np.flatnonzero(np.abs(v) > 1e-12 * max(1.0, np.abs(v).max()))
        if nonzero.size and v[nonzero[0]] < 0:
            U[:, col] = -v
    return Embedding(U, eigenvalues.copy())


def _scale(L: Laplacian) -> float:
    return float(np.abs(L.matrix.data).max(initial=1.0))


def _check_residuals(L: Laplacian, emb: Embedding, tol: float = 1e-6) -> None:
    # relative to the largest entry, so the norm's squares cannot overflow
    residuals = np.linalg.norm((L.matrix @ emb.U - emb.U * emb.eigenvalues) / _scale(L), axis=0)
    worst = int(residuals.argmax())
    if not residuals[worst] <= tol:
        raise NumericError(f"eigenpair {worst} residual {residuals[worst]:.3e} exceeds tolerance")


def _check_kernel(L: Laplacian, emb: Embedding, tol: float = 1e-6) -> None:
    """Lanczos can miss copies of a repeated eigenvalue and still return
    exact eigenpairs. Eigenvalue 0 has one copy per connected component, so
    the embedding must hold min(k, components) of them."""
    components = connected_components(L.matrix, directed=False, return_labels=False)
    zeros = int(np.count_nonzero(np.abs(emb.eigenvalues) <= tol * _scale(L)))
    if zeros < min(emb.U.shape[1], components):
        raise NumericError(f"{zeros} zero eigenvalues found for {components} components")


# Restarts per Lloyd batch are capped so the (R, n, k, d) distance temporary
# holds at most this many float64 values (16 MiB).
_BATCH_VALUES = 2 ** 21


def kmeans(points: np.ndarray, k: int, seed: int, n_restarts: int = 10,
           max_iter: int = 300) -> np.ndarray:
    """Lloyd's algorithm with distance-weighted seeding, deterministic given
    the seed. Keeps the best of ``n_restarts`` runs by inertia (the first
    strictly lowest, in attempt order); runs that collapse to an empty
    cluster are retried, up to ``4 * n_restarts`` attempts in all.

    The Lloyd iterations of up to ``_BATCH_VALUES // (n * k * d)`` restarts
    (at least 1, at most ``n_restarts``) run as one array operation, each
    restart stopping on its own. Lloyd draws nothing from the RNG, and every
    restart's k-means++ centers are drawn in attempt order before its batch
    runs, so the RNG order, and with it the labels, are those of running
    the restarts one after another."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n, d = pts.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if not np.isfinite(pts).all():
        raise NumericError("k-means points contain NaN or inf")
    with np.errstate(over="ignore"):
        # bounds every squared distance, and the sum of n of them
        bound = n * float(((pts.max(axis=0) - pts.min(axis=0)) ** 2).sum())
    if not np.isfinite(bound):
        raise NumericError("k-means squared distances overflow float64")
    if np.unique(pts, axis=0).shape[0] < k:
        raise NumericError("k exceeds distinct embedded points")
    rng = np.random.default_rng(seed)
    batch = max(1, min(n_restarts, _BATCH_VALUES // max(1, n * k * d)))
    best_labels, best_inertia = None, np.inf
    attempts = 0
    runs = 0
    while runs < n_restarts and attempts < 4 * n_restarts:
        size = min(batch, n_restarts - runs, 4 * n_restarts - attempts)
        centers = np.stack([_kmeanspp_init(pts, k, rng) for _ in range(size)])
        attempts += size
        for labels, inertia in _lloyd(pts, centers, max_iter):
            if labels is None:
                continue  # empty-cluster collapse; retried with a fresh init
            runs += 1
            if inertia < best_inertia:
                best_labels, best_inertia = labels, inertia
    if best_labels is None:
        raise NumericError("k-means failed to produce k non-empty clusters")
    return best_labels


def _kmeanspp_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            # the draw of rng.choice(n, p=d2 / total), without its checks
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            idx = cdf.searchsorted(rng.random(), side="right")
        else:
            # all remaining points coincide with chosen centers; pick any
            # point distinct from them (guaranteed by the distinct-count check)
            taken = {tuple(c) for c in centers[:i]}
            idx = next(j for j in range(n) if tuple(pts[j]) not in taken)
        centers[i] = pts[idx]
        d2 = np.minimum(d2, ((pts - centers[i]) ** 2).sum(axis=1))
    return centers


def _lloyd(pts: np.ndarray, centers: np.ndarray,
           max_iter: int) -> list[tuple[np.ndarray | None, float]]:
    """Lloyd iterations of R restarts at once from (R, k, d) ``centers``,
    which are updated in place. A restart stops when its labels stop
    changing, when a cluster goes empty (its labels are then None) or at
    ``max_iter``. Returns (labels, inertia) per restart."""
    R, k, _ = centers.shape
    labels = np.full((R, pts.shape[0]), -1)
    collapsed = np.zeros(R, dtype=bool)
    live = np.arange(R)
    for _ in range(max_iter):
        if not live.size:
            break
        # the direct form with the coordinate axis last: the expanded
        # |x|^2 - 2x.c + |c|^2 sums in another order and can move labels
        new = ((pts[:, None, :] - centers[live, None]) ** 2).sum(axis=-1).argmin(axis=-1)
        counts = np.bincount((new + k * np.arange(live.size)[:, None]).ravel(),
                             minlength=live.size * k).reshape(-1, k)
        empty = (counts == 0).any(axis=1)
        collapsed[live[empty]] = True
        moved = ~empty & (new != labels[live]).any(axis=1)
        live = live[moved]
        labels[live] = new[moved]
        centers[live] = _centroids(pts, new[moved], counts[moved])
    return [
        (None, np.inf) if collapsed[r]
        else (labels[r], float(((pts - centers[r][labels[r]]) ** 2).sum()))
        for r in range(R)
    ]


def _centroids(pts: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(R, k, d) cluster means for (R, n) labels whose clusters are all
    non-empty, each bit-identical to ``pts[labels[r] == c].mean(axis=0)``.
    That mean sums rows in row order, as ``np.bincount`` does; a one-column
    mean instead sums its contiguous column pairwise, as ``ndarray.sum``."""
    R, k = counts.shape
    n, d = pts.shape
    keys = (labels + k * np.arange(R)[:, None]).ravel()
    if d == 1:
        column = np.tile(pts[:, 0], R)[np.argsort(keys, kind="stable")]
        ends = np.cumsum(counts.ravel())
        sums = np.array([column[e - c:e].sum() for e, c in zip(ends, counts.ravel())])
    else:
        sums = np.bincount((keys[:, None] * d + np.arange(d)).ravel(),
                           weights=np.tile(pts.ravel(), R), minlength=R * k * d)
    return sums.reshape(R, k, d) / counts[:, :, None]


def extract_candidates(W: AffinityMatrix, k: int, seed: int) -> Partition:
    """End-to-end: Laplacian, smallest-k embedding, k-means, canonical
    relabeling (clusters renumbered by smallest contained vertex id)."""
    if not 2 <= k <= W.n:
        raise ValueError(f"k must be in [2, {W.n}], got {k}")
    emb = embed(build_laplacian(W), k)
    labels = first_occurrence(kmeans(emb.U, k, seed)[None], k)[0]
    return Partition(dict(zip(W.vertex_ids, labels.tolist())), k)


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
