import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

from naive_oracles import _naive_lloyd_once, canonicalize, naive_kmeans
from servicecut import spectral
from servicecut.feature_graph import FeatureGraph, to_affinity
from servicecut.spectral import (
    NumericError,
    build_laplacian,
    candidates,
    embed,
    extract_candidates,
    first_occurrence,
    kmeans,
)


def matrix_graph(matrix, ids=None):
    """The graph whose affinity is exactly the symmetric ``matrix``: one edge
    per nonzero entry of its strict upper triangle."""
    W = np.asarray(matrix, dtype=float)
    ids = ids or [f"v{i}" for i in range(W.shape[0])]
    i, j = np.nonzero(np.triu(W, 1))
    return FeatureGraph(list(ids), i, j, W[i, j])


def two_triangles():
    """Two disjoint unit-weight triangles: {a0,a1,a2} and {b0,b1,b2}."""
    ids = ["a0", "a1", "a2", "b0", "b1", "b2"]
    W = np.zeros((6, 6))
    for i, j in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        W[i, j] = W[j, i] = 1.0
    return matrix_graph(W, ids)


def test_laplacian_two_vertices():
    L = build_laplacian(matrix_graph([[0, 1], [1, 0]]))
    assert np.array_equal(L.toarray(), [[1, -1], [-1, 1]])


def test_laplacian_zero_affinity():
    L = build_laplacian(matrix_graph(np.zeros((3, 3))))
    assert not L.toarray().any()
    vals, _ = np.linalg.eigh(L.toarray())
    assert np.allclose(vals, 0)


def test_laplacian_path_graph():
    g = matrix_graph([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    L = build_laplacian(g)
    assert np.array_equal(np.diag(L.toarray()), [1, 2, 1])
    assert np.array_equal(L.toarray(), np.diag([1, 2, 1]) - to_affinity(g).toarray())


def test_laplacian_empty_graph_error():
    with pytest.raises(ValueError, match="empty graph"):
        build_laplacian(matrix_graph(np.zeros((0, 0)), ids=[]))


def test_laplacian_rejects_overflowing_degrees():
    W = np.array([[0.0, 1e308, 1e308], [1e308, 0.0, 0.0], [1e308, 0.0, 0.0]])
    with pytest.raises(OverflowError, match="affinity degrees overflow float64"):
        build_laplacian(matrix_graph(W, ["a", "b", "c"]))


def test_laplacian_row_sums_vanish():
    rng = np.random.default_rng(0)
    A = rng.random((12, 12)) * 10
    W = np.triu(A, 1)
    W = W + W.T
    L = build_laplacian(matrix_graph(W))
    assert np.abs(L.sum(axis=1)).max() < 1e-9


def test_embed_k1_constant_vector_for_connected_graph():
    emb = embed(matrix_graph([[0, 1, 2], [1, 0, 1], [2, 1, 0]]), 1)
    assert emb.eigenvalues[0] == pytest.approx(0, abs=1e-8)
    assert np.allclose(emb.U[:, 0], emb.U[0, 0])


def test_embed_two_components_kernel_structure():
    emb = embed(two_triangles(), 2)
    assert np.allclose(emb.eigenvalues, 0, atol=1e-8)
    U = emb.U
    for block in (slice(0, 3), slice(3, 6)):
        assert np.allclose(U[block], U[block][0])
    assert not np.allclose(U[0], U[3])


def test_embed_analytic_two_vertex_eigenvalues():
    emb = embed(matrix_graph([[0, 1], [1, 0]]), 2)
    assert np.allclose(emb.eigenvalues, [0.0, 2.0], atol=1e-9)


def test_embed_orthonormal_columns():
    rng = np.random.default_rng(7)
    A = rng.random((15, 15))
    W = np.triu(A, 1)
    W = W + W.T
    emb = embed(matrix_graph(W), 5)
    gram = emb.U.T @ emb.U
    assert np.abs(gram - np.eye(5)).max() < 1e-6


def test_embed_trace_matches_eigenvalue_sum():
    rng = np.random.default_rng(11)
    A = rng.random((20, 20))
    W = np.triu(A, 1)
    W = W + W.T
    g = matrix_graph(W)
    L = build_laplacian(g)
    emb = embed(g, 6)
    trace = np.trace(emb.U.T @ L @ emb.U)
    assert trace == pytest.approx(emb.eigenvalues.sum(), abs=1e-6)


def test_embed_k_bounds():
    g = matrix_graph([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        embed(g, 0)
    with pytest.raises(ValueError):
        embed(g, 3)


# --- the sparse solve above the dense threshold ----------------------------


def planted_graph(n, blocks, seed):
    """Sparse weighted graph on n vertices with planted blocks."""
    rng = np.random.default_rng(seed)
    block = np.arange(n) * blocks // n
    i, j = np.triu_indices(n, 1)
    keep = rng.random(i.size) < np.where(block[i] == block[j], 0.05, 0.002)
    w = rng.random(int(keep.sum())) * 10 + 0.1
    return FeatureGraph([f"v{x:04d}" for x in range(n)], i[keep], j[keep], w)


def disjoint_cliques(count, size):
    i, j = np.triu_indices(size, 1)
    offsets = np.repeat(np.arange(count) * size, i.size)
    return FeatureGraph([f"v{x:04d}" for x in range(count * size)], np.tile(i, count) + offsets,
                        np.tile(j, count) + offsets, np.ones(count * i.size))


@pytest.fixture(scope="module")
def large_graph():
    g = planted_graph(1200, 12, seed=0)
    assert len(g.vertices) > spectral._DENSE_MAX_N
    return g


def dense_embed(g, k, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(spectral, "_DENSE_MAX_N", len(g.vertices))
        m.setattr(spectral, "eigsh", None)  # must not be reached
        return embed(g, k)


@pytest.fixture
def residual_checks(monkeypatch):
    """Records whether each residual check passed."""
    outcomes = []
    check = spectral._check_residuals

    def recording(L, emb):
        try:
            check(L, emb)
        except NumericError:
            outcomes.append(False)
            raise
        outcomes.append(True)

    monkeypatch.setattr(spectral, "_check_residuals", recording)
    return outcomes


def test_lanczos_agrees_with_dense_eigh(large_graph, residual_checks, monkeypatch):
    calls = []
    solve = spectral.eigsh
    monkeypatch.setattr(spectral, "eigsh", lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    sparse = embed(large_graph, 12)
    assert calls == [1]
    assert residual_checks == [True]
    dense = dense_embed(large_graph, 12, monkeypatch)
    assert residual_checks == [True, True]
    assert np.abs(sparse.eigenvalues - dense.eigenvalues).max() < 1e-9
    assert np.array_equal(kmeans(sparse.U, 12, [0]), kmeans(dense.U, 12, [0]))


def test_lanczos_without_convergence_falls_back_to_dense(large_graph, residual_checks,
                                                         monkeypatch):
    def no_convergence(A, k, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((A.shape[0], 0)))

    monkeypatch.setattr(spectral, "eigsh", no_convergence)
    got = embed(large_graph, 5)
    assert residual_checks == [True]
    dense = dense_embed(large_graph, 5, monkeypatch)
    assert got.eigenvalues.tobytes() == dense.eigenvalues.tobytes()
    assert got.U.tobytes() == dense.U.tobytes()


def test_lanczos_failing_the_residual_check_falls_back_to_dense(large_graph,
                                                                residual_checks, monkeypatch):
    solve = spectral.eigsh

    def inexact(*args, **kwargs):
        mu, vectors = solve(*args, **kwargs)
        return mu, vectors + 1e-3

    monkeypatch.setattr(spectral, "eigsh", inexact)
    got = embed(large_graph, 5)
    assert residual_checks == [False, True]
    dense = dense_embed(large_graph, 5, monkeypatch)
    assert got.U.tobytes() == dense.U.tobytes()


def test_many_components_above_the_threshold():
    g = disjoint_cliques(40, 30)
    emb = embed(g, 40)
    assert np.abs(emb.eigenvalues).max() < 1e-8
    groups = candidates(g.vertices, extract_candidates(g, 40, seed=0), 40)
    assert sorted(groups) == [g.vertices[30 * c:30 * c + 30] for c in range(40)]


def test_zero_eigenvalues_lanczos_misses_come_from_the_dense_solve():
    # 600 pairs with distinct weights: Lanczos from one start vector returns
    # exact eigenpairs but only some of the 60 wanted copies of eigenvalue 0;
    # the kernel check sends the solve to the dense path
    w = np.random.default_rng(0).random(600) * 10 + 0.1
    g = FeatureGraph([f"v{x:04d}" for x in range(1200)], np.arange(0, 1200, 2),
                     np.arange(1, 1200, 2), w)
    emb = embed(g, 60)
    assert np.abs(emb.eigenvalues).max() < 1e-8


def twin_leaves_graph(leaves):
    """1,100 background vertices, each with 6 weight-50 out-edges to other
    vertices drawn uniformly (a pair drawn twice is one edge), and a hub
    joined to v0000 by one weight-50 edge, with ``leaves`` weight-1 leaves.
    The leaves are twins: eigenvalue 1 has leaves - 1 copies from them."""
    n = 1100
    src = np.repeat(np.arange(n), 6)
    dst = np.random.default_rng(0).integers(0, n - 1, src.size)
    dst += dst >= src  # skips the source itself
    pairs = np.unique(np.stack([src, dst], axis=1), axis=0)
    hub = [(n, 0), *((n, n + 1 + j) for j in range(leaves))]
    pairs = np.concatenate([pairs, hub])
    weight = np.concatenate([np.full(len(pairs) - leaves, 50.0), np.ones(leaves)])
    return FeatureGraph([f"v{x:04d}" for x in range(n + 1 + leaves)], pairs[:, 0], pairs[:, 1],
                        weight)


@pytest.mark.xfail(strict=True, reason=(
    "single-vector Lanczos returns two copies of the twin leaves' eigenvalue 1 where "
    "the five smallest eigenvalues hold three, and its eigenpairs pass every check"))
def test_lanczos_returns_every_copy_of_a_twin_class_eigenvalue():
    g = twin_leaves_graph(5)
    assert len(g.vertices) > spectral._DENSE_MAX_N
    expected = np.linalg.eigvalsh(build_laplacian(g).toarray())[:5]
    assert np.abs(embed(g, 5).eigenvalues - expected).max() <= 1e-8


def test_kmeans_separated_clusters():
    pts = np.array([[0, 0]] * 3 + [[10, 10]] * 3, dtype=float)
    labels = kmeans(pts, 2, [1])[0]
    assert len(set(labels[:3])) == 1
    assert len(set(labels[3:])) == 1
    assert labels[0] != labels[3]


def test_kmeans_k1_and_kn():
    # every command clusters d = k >= 2 columns: k = 1, one column, 1-D
    # points and k > n are rejected, naming the shape and k
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    for bad, k in [(pts, 1), (pts[:, :1], 2), (pts[:, 0], 2), (pts, 4)]:
        with pytest.raises(ValueError, match=re.escape(f"got shape {bad.shape} and k={k}")):
            kmeans(bad, k, [0])
    assert sorted(kmeans(pts, 3, [0])[0]) == [0, 1, 2]


def test_kmeans_deterministic():
    rng = np.random.default_rng(5)
    pts = rng.random((30, 3))
    a = kmeans(pts, 4, [9])
    b = kmeans(pts, 4, [9])
    assert np.array_equal(a, b)


def test_kmeans_too_few_distinct_points():
    pts = np.array([[1.0, 1.0]] * 5)
    with pytest.raises(NumericError, match="distinct"):
        kmeans(pts, 2, [0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_rejects_non_finite_points(bad, monkeypatch):
    monkeypatch.setattr(spectral, "_kmeanspp_init", None)  # must not be reached
    pts = np.array([[0.0, 0.0], [bad, 0.0], [1.0, 0.0]])
    with pytest.raises(NumericError, match="NaN or inf"):
        kmeans(pts, 2, [0])


def test_kmeans_rejects_overflowing_distances(monkeypatch):
    monkeypatch.setattr(spectral, "_kmeanspp_init", None)  # must not be reached
    with pytest.raises(NumericError, match="overflow"):
        kmeans(np.array([[0.0, 0.0], [1e200, 0.0], [2e200, 0.0]]), 2, [0])


@st.composite
def _kmeans_case(draw):
    # d >= 8 reaches Lloyd's direct form in NumPy's pairwise order (the
    # inertia and _assign's fallback), and d = k = 30 is the shape of a
    # 30-candidate evaluate
    n = draw(st.integers(2, 60))
    d = draw(st.integers(2, 32))
    k = draw(st.integers(2, min(n, 32)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.standard_normal((n, d))
    if draw(st.booleans()):
        pts = pts[rng.integers(0, max(1, n // 3), n)]  # duplicated rows
    return pts, k, draw(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=6))


def _assert_kmeans_matches_naive(pts, k, seeds):
    try:
        expected = np.stack([naive_kmeans(pts, k, seed, max_iter=spectral._MAX_ITER)
                             for seed in seeds])
    except (ValueError, NumericError) as exc:
        with pytest.raises(NumericError, match=re.escape(str(exc))):
            kmeans(pts, k, seeds)
        return
    got = kmeans(pts, k, seeds)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(_kmeans_case())
def test_kmeans_labels_equal_one_restart_at_a_time(case):
    _assert_kmeans_matches_naive(*case)


@settings(max_examples=90, deadline=None)
@given(_kmeans_case(), st.integers(1, 3))
def test_kmeans_labels_at_the_iteration_cap_equal_one_restart_at_a_time(case, cap):
    # a restart that reaches the cap stops with labels and means of its last
    # pass, and its slot in the Lloyd pool goes to the next restart
    with pytest.MonkeyPatch.context() as m:
        m.setattr(spectral, "_MAX_ITER", cap)
        _assert_kmeans_matches_naive(*case)


def test_kmeans_ties_in_inertia_go_to_the_earliest_attempt():
    # on a 3 x 3 integer grid many restarts end in different partitions of
    # equal inertia, and restarts leave the Lloyd pool out of attempt order:
    # keeping the first restart to stop among equals differs from the
    # reference on 24 of these 60 seeds
    grid = np.array([(x, y) for x in range(3) for y in range(3)], dtype=float)
    _assert_kmeans_matches_naive(grid, 3, range(60))


def _column_sum_rows(pts):
    """The rows of ``_point_rows`` without its table: each drawn point's
    squared distances summed when it is drawn."""
    return lambda idx: spectral._column_sum(pts.T.copy(), pts[idx])


@settings(max_examples=100, deadline=None)
@given(_kmeans_case())
def test_kmeans_labels_without_the_point_table_equal_one_restart_at_a_time(case):
    # every case has n <= 60, so n * n fits the default budget and seeding
    # reads the table; a budget below n * n sums each drawn row instead
    pts, k, seeds = case
    tables = []
    init = spectral._kmeanspp_init

    def recording(pts, k, rngs, rows):
        tables.append(isinstance(getattr(rows, "__self__", None), np.ndarray))
        return init(pts, k, rngs, rows)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(spectral, "_BATCH_VALUES", pts.shape[0] ** 2 - 1)
        m.setattr(spectral, "_kmeanspp_init", recording)
        _assert_kmeans_matches_naive(pts, k, seeds)
    assert not any(tables)


@pytest.mark.parametrize("d", [3, 30, 140])
def test_seeding_from_the_point_table_equals_seeding_from_column_sums(d, monkeypatch):
    # a budget of exactly n * n values still builds the table, in one call
    # of all n rows, at d = 3, 30 and 140 > n; duplicated rows tie distances
    # exactly
    n, k = 45, 12
    rng = np.random.default_rng(d)
    pts = rng.standard_normal((n, d)) * rng.choice([1e-3, 1.0, 1e5], size=d)
    pts = pts[rng.integers(0, 15, n)]
    chunks = []
    column_sum = spectral._column_sum

    def recording(columns, centers):
        chunks.append(centers.shape[0])
        return column_sum(columns, centers)

    monkeypatch.setattr(spectral, "_BATCH_VALUES", n * n)
    monkeypatch.setattr(spectral, "_column_sum", recording)
    rows = spectral._point_rows(pts)
    assert rows.__self__.shape == (n, n)
    assert chunks == [n]
    seeds = range(20)
    got = spectral._kmeanspp_init(pts, k, [np.random.default_rng(s) for s in seeds], rows)
    expected = spectral._kmeanspp_init(pts, k, [np.random.default_rng(s) for s in seeds],
                                       _column_sum_rows(pts))
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n, k, d, seeds", [(139, 10, 10, 100), (139, 2, 2, 30),
                                            (60, 3, 30, 20), (400, 4, 4, 20)])
def test_lloyd_batches_hold_what_a_pass_holds(n, k, d, seeds, monkeypatch):
    # a pass over R pooled restarts holds F, (R, k, n), in _certified_labels,
    # and an (R, n, d) array for the inertia
    shapes = []
    assign = spectral._assign

    def recording(pts, norms, centers):
        shapes.append(centers.shape)
        return assign(pts, norms, centers)

    monkeypatch.setattr(spectral, "_assign", recording)
    pts = np.random.default_rng(n).standard_normal((n, d))
    kmeans(pts, k, range(seeds))
    for R, _, _ in shapes:
        assert R == 1 or 2 * R * n * max(k, d) <= spectral._BATCH_VALUES
    if (n, k, d) == (139, 10, 10):
        assert max(R for R, _, _ in shapes) == 47


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60), st.integers(2, 32), st.integers(1, 32), st.integers(0, 2**32 - 1))
def test_batched_lloyd_equals_one_restart_at_a_time(n, d, k, seed):
    # inertia bits move with any change in how distances or means are
    # summed, also where the winning labels do not; d >= 8 reaches NumPy's
    # pairwise summation in Lloyd's direct form
    k = min(k, n)
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d))
    if np.unique(pts, axis=0).shape[0] < k:
        return
    expected = [_naive_lloyd_once(pts, k, np.random.default_rng(seed + r), spectral._MAX_ITER)
                for r in range(4)]
    inits = spectral._kmeanspp_init(pts, k, [np.random.default_rng(seed + r) for r in range(4)],
                                    _column_sum_rows(pts))
    # a pool of 1 runs the restarts one at a time; of 2, each stop refills
    # a slot from the rows still waiting
    for width in (1, 2, 4):
        got = {r: (labels, inertia) for r, labels, inertia in spectral._lloyd(pts, k, inits, width)}
        assert sorted(got) == list(range(4))
        for r, (labels_ref, inertia_ref) in enumerate(expected):
            labels, inertia = got[r]
            assert inertia == inertia_ref
            assert (labels is None) == (labels_ref is None)
            if labels is not None:
                assert labels.tobytes() == labels_ref.tobytes()


def test_kmeans_retries_collapsed_restarts_like_the_reference(monkeypatch):
    # with seed 0, two restarts on these points lose a cluster mid-Lloyd;
    # seeds 1 and 2 lose none, so only seed 0 draws retries, and they join
    # the one Lloyd pool; budgets of 36 and 72 values make the pool 1 and
    # 2 restarts wide, so a retry shares it with first attempts still running
    pts = np.array([[0.0, 0], [6, 0], [22, 0], [24, 0], [25, 0], [39, 0]])
    lloyd = spectral._lloyd
    for batch_values, seeds in itertools.product([36, 72, spectral._BATCH_VALUES],
                                                 [[0], [0, 1, 2]]):
        collapsed, batches = [], []

        def counting(pts, k, centers, width):
            batches.append(len(centers))
            for r, labels, inertia in lloyd(pts, k, centers, width):
                collapsed.append(labels is None)
                yield r, labels, inertia

        monkeypatch.setattr(spectral, "_BATCH_VALUES", batch_values)
        monkeypatch.setattr(spectral, "_lloyd", counting)
        _assert_kmeans_matches_naive(pts, 3, seeds)
        assert sum(collapsed) == 2
        assert batches == [10 * len(seeds)]  # one Lloyd pool per call


def test_kmeans_of_no_seeds_is_no_rows():
    pts = np.array([[0.0, 0], [1, 0], [5, 0]])
    got = kmeans(pts, 2, [])
    assert got.shape == (0, 3)
    assert got.dtype == np.intp


_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300, 1.7e308, -1.7e308]


@st.composite
def _centroid_case(draw):
    # extremes among ordinary values: signed zeros, subnormals, and values
    # whose sums overflow to inf
    n = draw(st.integers(2, 30))
    d = draw(st.integers(2, 6))
    k = draw(st.integers(1, min(n, 8)))
    R = draw(st.integers(1, 40))
    values = st.sampled_from(_EXTREMES) | st.floats(allow_nan=False, allow_infinity=False)
    pts = np.array(draw(st.lists(values, min_size=n * d, max_size=n * d))).reshape(n, d)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(0, k, (R, n))
    for row in labels:
        row[rng.permutation(n)[:k]] = np.arange(k)  # every cluster non-empty
    return pts, labels


@settings(max_examples=200, deadline=None)
@given(_centroid_case())
def test_centroids_equal_the_mean_of_each_cluster(case):
    pts, labels = case
    R, k = labels.shape[0], labels.max() + 1
    counts = (labels[:, :, None] == np.arange(k)).sum(axis=1)
    got = spectral._centroids(pts, labels, counts)
    assert got.shape == (R, k, pts.shape[1])
    with np.errstate(over="ignore"):
        for r in range(R):
            for c in range(k):
                assert got[r, c].tobytes() == pts[labels[r] == c].mean(axis=0).tobytes()
    assert spectral._centroids(pts, labels[:0], counts[:0]).shape == (0, k, pts.shape[1])


def _points_with_zeros(d, grid):
    """40 points in d dimensions with exact zeros and an all-zero column;
    on a small integer ``grid``, distances tie exactly."""
    rng = np.random.default_rng(d)
    pts = rng.integers(-2, 3, (40, d)).astype(float) if grid else rng.standard_normal((40, d))
    pts[rng.random((40, d)) < 0.2] = 0.0
    pts[:, 1] = 0.0
    return pts


_SIGN_CASES = {
    # d = 3, 30 and 140 reach NumPy's three pairwise orders (below 8, up to
    # 128 and above 128 terms) in Lloyd's direct form; grid points reach
    # _assign's direct-form fallback
    **{f"d{d}-{kind}": (_points_with_zeros(d, kind == "grid"), 5, kind == "grid", False)
       for d in (3, 30, 140) for kind in ("normal", "grid")},
    "collapsing": (np.array([[0.0, 0], [6, 0], [22, 0], [24, 0], [25, 0], [39, 0]]), 3,
                   False, True),
}


@pytest.mark.parametrize("case", _SIGN_CASES.values(), ids=_SIGN_CASES.keys())
def test_kmeans_labels_ignore_column_signs(case, monkeypatch):
    # embed fixes no eigenvector sign: negating a column negates its
    # differences exactly and leaves every square, every product of two
    # negated factors and every sum of them bit-equal, so the seeding CDF,
    # the certified and direct-form argmins, the inertia and the labels
    # do not change
    pts, k, ties, collapses = case
    uncertified, collapsed = [], []
    certify, lloyd = spectral._certified_labels, spectral._lloyd

    def counting_certify(*args):
        labels, certified = certify(*args)
        uncertified.append(int((~certified).sum()))
        return labels, certified

    def counting_lloyd(pts, k, centers, width):
        for r, labels, inertia in lloyd(pts, k, centers, width):
            collapsed.append(labels is None)
            yield r, labels, inertia

    monkeypatch.setattr(spectral, "_certified_labels", counting_certify)
    monkeypatch.setattr(spectral, "_lloyd", counting_lloyd)
    seeds = [0, 1, 2]
    expected = kmeans(pts, k, seeds)
    rng = np.random.default_rng(0)
    for signs in [-np.ones(pts.shape[1]), *rng.choice([-1.0, 1.0], (4, pts.shape[1]))]:
        assert kmeans(pts * signs, k, seeds).tobytes() == expected.tobytes()
    assert (sum(uncertified) > 0) == ties
    assert any(collapsed) == collapses


@pytest.mark.parametrize("k", range(2, 6))
@pytest.mark.parametrize("seeds", [[0], [1], [2], [0, 1, 2]], ids=["0", "1", "2", "0,1,2"])
def test_kmeans_underflow_fallback_like_the_reference(k, seeds):
    # the squared distances among 0, 1e-200 and 2e-200 underflow to 0: once
    # one of them, 1 and 2 are centers, every d2 is 0 and the next center
    # comes from the fallback without a draw; at k >= 4 every restart then
    # collapses on the tied distances and both give up
    pts = np.array([[0.0, 0], [1e-200, 0], [2e-200, 0], [1, 0], [2, 0]])
    _assert_kmeans_matches_naive(pts, k, seeds)


@pytest.mark.parametrize("d", [*range(1, 21), 64, 127, 128, 129, 136, 200, 300])
def test_column_wise_distances_equal_the_in_order_sum(d):
    # one Python float accumulator per distance, coordinate 0 first, so the
    # expected order goes through no NumPy reduction; the scales spread the
    # terms' magnitudes so a change of order shows (NumPy's pairwise sum
    # differs from it at d >= 8)
    rng = np.random.default_rng(d)
    pts = rng.standard_normal((17, d)) * rng.choice([1e-3, 1.0, 1e5], size=d)
    centers = rng.standard_normal((12, d))
    got = spectral._column_sum(pts.T.copy(), centers)
    expected = np.empty((12, 17))
    for r, c in enumerate(centers.tolist()):
        for i, x in enumerate(pts.tolist()):
            acc = 0.0
            for cj, xj in zip(c, x):
                t = cj - xj
                acc += t * t
            expected[r, i] = acc
    assert got.shape == (12, 17)
    assert got.tobytes() == expected.tobytes()


_ASSIGN_DIMS = [1, 2, 7, 8, 9, 30, 127, 128, 129, 136]


def _direct(pts, centers):
    """(R, n, k) squared distances from the (n, d) ``pts`` to the (R, k, d)
    ``centers`` in the direct form, which k-means labels must equal."""
    return ((pts[:, None, :] - centers[:, None]) ** 2).sum(axis=-1)


def _assert_assign_matches_direct(pts, centers):
    with np.errstate(over="ignore"):  # the direct sums may overflow too
        got = spectral._assign(pts, np.linalg.norm(pts, axis=1), centers)
        expected = _direct(pts, centers).argmin(axis=-1)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def _expanded_argmin(pts, centers):
    return ((centers ** 2).sum(axis=-1)[:, :, None] - 2 * centers @ pts.T).argmin(axis=1)


@pytest.mark.parametrize("d", _ASSIGN_DIMS)
def test_assign_breaks_exact_ties_like_the_direct_sum(d):
    # integer coordinates, so every sum is exact: centers 0 and 1 differ by
    # 2 in coordinate 0 and the points between them are equally far from
    # both; center 3 duplicates center 2, and the points at it tie at 0
    rng = np.random.default_rng(d)
    centers = rng.integers(-4, 5, (2, 4, d)).astype(float)
    centers[:, 1] = centers[:, 0]
    centers[:, 1, 0] += 2
    centers[:, 3] = centers[:, 2]
    between = centers[:, 0] + np.eye(d)[0]
    pts = np.concatenate([between, between + np.eye(d)[d - 1] * (d > 1),
                          centers[:, 2], rng.integers(-4, 5, (20, d))]).astype(float)
    dist = _direct(pts, centers)
    assert ((dist == dist.min(axis=-1, keepdims=True)).sum(axis=-1) > 1).any(axis=1).all()
    _assert_assign_matches_direct(pts, centers)


@pytest.mark.parametrize("d", _ASSIGN_DIMS)
def test_assign_decides_near_ties_like_the_direct_sum(d):
    # points a few ulps off the bisector of centers 0 and 1
    rng = np.random.default_rng(d)
    centers = rng.standard_normal((2, 4, d))
    mid = (centers[:, 0] + centers[:, 1]) / 2
    step = (centers[:, 1] - centers[:, 0]) * 2.0 ** -52
    pts = np.concatenate([mid + j * step for j in range(-4, 5)])
    pts = np.concatenate([pts, np.nextafter(pts, np.inf), np.nextafter(pts, -np.inf)])
    _assert_assign_matches_direct(pts, centers)


@pytest.mark.parametrize("d", _ASSIGN_DIMS)
def test_assign_falls_back_where_cancellation_moves_the_expanded_argmin(d, monkeypatch):
    # |c|^2 and 2x.c are near 1e16 * d, so their difference loses every bit
    # of distances near 1e-4: the expanded argmin is wrong at some points,
    # and none of them may be certified; the direct form runs 7 points at a time
    monkeypatch.setattr(spectral, "_BATCH_VALUES", 7 * 4 * d)
    rng = np.random.default_rng(d)
    pts = 1e8 + 1e-2 * rng.standard_normal((40, d))
    centers = pts[rng.integers(0, 40, (2, 4))]
    expected = _direct(pts, centers).argmin(axis=-1)
    assert (_expanded_argmin(pts, centers) != expected).any()
    _, certified = spectral._certified_labels(pts, np.linalg.norm(pts, axis=1), centers)
    assert not certified.any()
    _assert_assign_matches_direct(pts, centers)


@pytest.mark.parametrize("scale, spread, certifies", [
    (1e150, 1e-3, True),  # the bound still fits, and decides
    (1e155, 1e-3, False),  # |c|^2 overflows
    (1e-155, 1e-3, False),  # the squared terms are subnormal, far under the floor
    (1e-160, 1.0, False),  # ... and some underflow to 0
])
@pytest.mark.parametrize("d", _ASSIGN_DIMS)
def test_assign_at_the_ends_of_the_float_range(d, scale, spread, certifies):
    rng = np.random.default_rng(d)
    pts = scale * (1 + spread * rng.standard_normal((40, d)))
    centers = pts[rng.integers(0, 40, (2, 4))] * (1 + 1e-4 * rng.standard_normal((2, 4, d)))
    with np.errstate(over="ignore"):
        _, certified = spectral._certified_labels(pts, np.linalg.norm(pts, axis=1), centers)
    assert certified.any() == certifies
    _assert_assign_matches_direct(pts, centers)


@pytest.mark.parametrize("d", _ASSIGN_DIMS)
def test_assign_fails_closed_where_an_expanded_distance_overflows(d):
    # at x = 1e300 * ones, F is 0 for the center at 0 and -inf for the one
    # at 1e10 * ones, while both direct distances are inf: a tie, which the
    # direct form gives to center 0
    pts = np.concatenate([np.full((1, d), 1e300), np.ones((1, d))])
    centers = np.stack([np.zeros(d), np.full(d, 1e10)])[None]
    _assert_assign_matches_direct(pts, centers)


@pytest.mark.parametrize("d", _ASSIGN_DIMS)
def test_assign_certifies_every_point_of_separated_clusters(d):
    # the fast path is what decides here: no point takes the direct form
    rng = np.random.default_rng(d)
    centers = 10 * rng.standard_normal((2, 4, d))
    pts = (centers[:, rng.integers(0, 4, 30)] + 0.1 * rng.standard_normal((2, 30, d))).reshape(-1, d)
    labels, certified = spectral._certified_labels(pts, np.linalg.norm(pts, axis=1), centers)
    assert certified.all()
    assert labels.tobytes() == _direct(pts, centers).argmin(axis=-1).tobytes()
    _assert_assign_matches_direct(pts, centers)


def test_extract_two_components_recovered():
    g = two_triangles()
    groups = candidates(g.vertices, extract_candidates(g, 2, seed=0), 2)
    assert sorted(map(sorted, groups)) == [["a0", "a1", "a2"], ["b0", "b1", "b2"]]


def test_extract_dense_blocks_with_weak_bridge():
    # blocks {0,1,2} and {3,4,5}, intra weight 10, one inter edge weight 1;
    # exhaustive enumeration of 2-partitions confirms this is the minimum cut
    W = np.zeros((6, 6))
    for i, j in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        W[i, j] = W[j, i] = 10.0
    W[2, 3] = W[3, 2] = 1.0
    g = matrix_graph(W)
    groups = sorted(map(sorted, candidates(g.vertices, extract_candidates(g, 2, seed=0), 2)))
    assert groups == [["v0", "v1", "v2"], ["v3", "v4", "v5"]]


def test_extract_deterministic():
    rng = np.random.default_rng(2)
    A = rng.random((14, 14))
    W = np.triu(A, 1)
    W = W + W.T
    a = extract_candidates(matrix_graph(W), 4, seed=42)
    b = extract_candidates(matrix_graph(W), 4, seed=42)
    assert a.tolist() == b.tolist()


def test_extract_scale_invariance_of_labels():
    rng = np.random.default_rng(8)
    A = rng.random((12, 12))
    Wm = np.triu(A, 1)
    Wm = Wm + Wm.T
    a = extract_candidates(matrix_graph(Wm), 3, seed=5)
    b = extract_candidates(matrix_graph(Wm * 7.5), 3, seed=5)
    assert a.tolist() == b.tolist()


def test_extract_k_bounds():
    with pytest.raises(ValueError):
        extract_candidates(two_triangles(), 1, seed=0)
    with pytest.raises(ValueError):
        extract_candidates(two_triangles(), 7, seed=0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_first_occurrence_equals_canonicalize(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    k = int(rng.integers(1, n + 1))
    ids = [f"v{i:02d}" for i in range(n)]  # sorted, as the rows of W are
    labels = np.array([rng.permutation(np.concatenate([np.arange(k),
                                                       rng.integers(0, k, n - k)]))
                       for _ in range(int(rng.integers(1, 5)))])
    got = first_occurrence(labels, k)
    for row, relabeled in zip(labels, got):
        p = canonicalize(dict(zip(ids, row.tolist())))
        assert relabeled.tolist() == [p[v] for v in ids]


def test_residual_check_is_relative_so_huge_weights_pass():
    # the squares of residuals near 1e300 overflow unless they are scaled first
    emb = embed(matrix_graph([[0, 1e300, 0], [1e300, 0, 1e300], [0, 1e300, 0]]), 2)
    assert abs(emb.eigenvalues[0]) <= 1e-6 * 2e300


def test_canonicalize_renumbers_by_smallest_vertex():
    assert canonicalize({"b": 0, "a": 1, "c": 0}) == {"a": 0, "b": 1, "c": 1}
