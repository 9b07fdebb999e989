import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from naive_oracles import graph_from_edges, naive_cluster_stats, naive_cut, naive_mq, naive_mqw
from servicecut.feature_graph import to_affinity
from servicecut.metrics import label_stats, score
from servicecut.spectral import Partition


def graph(vertices, edges):
    return graph_from_edges(list(vertices), dict(edges))


def test_mq_two_cohesive_pairs():
    # each cluster: 2 vertices with both directed edges inside, no inter edges
    g = graph("abcd", {("a", "b"): 1, ("b", "a"): 1, ("c", "d"): 1, ("d", "c"): 1})
    p = Partition({"a": 0, "b": 0, "c": 1, "d": 1}, 2)
    r = score(p, g, "")
    coh, cop, value = r.coh, r.cop, r.mq
    assert coh == [0.5, 0.5]
    assert cop == {(0, 1): 0.0}
    assert value == 0.5


def test_mq_single_cluster_cycle():
    g = graph("abc", {("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1})
    p = Partition({"a": 0, "b": 0, "c": 0}, 1)
    value = score(p, g, "").mq
    assert value == pytest.approx(1 / 3)


def test_mq_two_singletons_one_edge():
    g = graph("ab", {("a", "b"): 1})
    p = Partition({"a": 0, "b": 1}, 2)
    r = score(p, g, "")
    coh, cop, value = r.coh, r.cop, r.mq
    assert coh == [0.0, 0.0]
    assert cop == {(0, 1): 0.5}
    assert value == -0.5


def test_mqw_equals_mq_on_unit_weights():
    g = graph("abcd", {("a", "b"): 1.0, ("b", "c"): 1.0, ("d", "a"): 1.0})
    p = Partition({"a": 0, "b": 0, "c": 1, "d": 1}, 2)
    r = score(p, g, "")
    assert r.mqw == pytest.approx(r.mq, abs=1e-15)


def test_mqw_weighted_pair_example():
    g = graph("ab", {("a", "b"): 12.0})
    p = Partition({"a": 0, "b": 0}, 1)
    r = score(p, g, "")
    coh, value = r.coh_w, r.mqw
    assert coh == [pytest.approx(12 / 15)]
    assert value == pytest.approx(0.8)


def test_mqw_cohesion_saturates_toward_one():
    previous = 0.0
    for w in (1, 10, 100, 1000, 10000):
        g = graph("ab", {("a", "b"): float(w)})
        value = score(Partition({"a": 0, "b": 0}, 1), g, "").mqw
        assert previous < value < 1.0
        previous = value


def test_cut_zero_for_components_and_single_cluster():
    g = graph("abcd", {("a", "b"): 3.0, ("c", "d"): 2.0})
    assert score(Partition({"a": 0, "b": 0, "c": 1, "d": 1}, 2), g, "").cut == 0.0
    assert score(Partition({"a": 0, "b": 0, "c": 0, "d": 0}, 1), g, "").cut == 0.0


def test_cut_two_singletons():
    g = graph("ab", {("a", "b"): 4.0, ("b", "a"): 6.0})
    assert score(Partition({"a": 0, "b": 1}, 2), g, "").cut == 10.0


def test_cut_invariant_under_relabeling():
    g = graph("abcde", {("a", "b"): 1, ("b", "c"): 2, ("c", "d"): 3, ("d", "e"): 4})
    p1 = Partition({"a": 0, "b": 0, "c": 1, "d": 2, "e": 2}, 3)
    p2 = Partition({"a": 2, "b": 2, "c": 0, "d": 1, "e": 1}, 3)
    assert score(p1, g, "").cut == score(p2, g, "").cut


def test_partition_vertex_missing_from_graph():
    g = graph("ab", {("a", "b"): 1})
    with pytest.raises(ValueError, match="absent"):
        score(Partition({"a": 0, "z": 1}, 2), g, "")


def test_a_partition_that_leaves_a_vertex_unlabeled_is_refused():
    # leaving c out would drop its edges from the score: cut 1.0 and MQw
    # -0.5, not 6.0 and -0.4375
    g = graph("abc", {("a", "b"): 1, ("a", "c"): 5, ("b", "c"): 5})
    with pytest.raises(ValueError, match="'c'"):
        score(Partition({"a": 0, "b": 1}, 2), g, "")
    r = score(Partition({"a": 0, "b": 1, "c": 1}, 2), g, "")
    assert (r.cut, r.mqw) == (6.0, -0.4375)


# --- randomized oracle equality ---------------------------------------------


def random_instance(rng, max_n=8):
    n = int(rng.integers(2, max_n + 1))
    verts = [f"v{i}" for i in range(n)]
    edges = {}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.4:
                edges[(verts[i], verts[j])] = float(np.round(rng.random() * 20 + 0.1, 6))
    k = int(rng.integers(1, n + 1))
    labels = list(rng.integers(0, k, n))
    # force surjectivity
    for c in range(k):
        labels[c % n] = c if c < n else labels[c % n]
    labels = _make_surjective(labels, k, n, rng)
    return graph(verts, edges), Partition(dict(zip(verts, labels)), k)


def _make_surjective(labels, k, n, rng):
    missing = set(range(k)) - set(labels)
    positions = list(rng.permutation(n))
    for c in sorted(missing):
        for pos in positions:
            if labels.count(labels[pos]) > 1 or labels[pos] in missing:
                labels[pos] = c
                break
    assert set(labels) == set(range(k))
    return labels


def test_metrics_match_naive_oracle_on_random_graphs():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        g, p = random_instance(rng)
        r = score(p, g, "")
        assert r.mq == pytest.approx(naive_mq(p.labels, g.edges, p.k), abs=1e-12)
        assert r.mqw == pytest.approx(naive_mqw(p.labels, g.edges, p.k), abs=1e-12)
        W = to_affinity(g).toarray()
        aff = {
            (u, v): W[i, j]
            for i, u in enumerate(g.vertices)
            for j, v in enumerate(g.vertices)
        }
        assert r.cut == pytest.approx(naive_cut(p.labels, aff, p.k), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_bounds_and_unit_weight_equivalence(seed):
    rng = np.random.default_rng(seed)
    g, p = random_instance(rng)
    r = score(p, g, "")
    coh, cop, value = r.coh, r.cop, r.mq
    coh_w, cop_w, value_w = r.coh_w, r.cop_w, r.mqw
    for x in coh + coh_w:
        assert 0.0 <= x <= 1.0
    for x in list(cop.values()) + list(cop_w.values()):
        assert 0.0 <= x <= 1.0
    assert -1.0 <= value <= 1.0
    assert -1.0 <= value_w <= 1.0
    unit = graph_from_edges(list(g.vertices), {e: 1.0 for e in g.edges})
    r = score(p, unit, "")
    assert r.mqw == pytest.approx(r.mq, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_cluster_stats_equal_edge_loop_bit_for_bit(seed):
    # fractional weights, so a changed summation order would show in the bits
    rng = np.random.default_rng(seed)
    g, p = random_instance(rng, max_n=12)
    g = graph_from_edges(list(g.vertices), {e: w / 3.0 for e, w in g.edges.items()})
    rows = np.array([[p.labels[v] for v in g.vertices]])
    sizes, u, uw, sigma, sigmaw, cut = label_stats(rows, p.k, g)
    sizes_e, u_e, uw_e, sigma_e, sigmaw_e, cut_e = naive_cluster_stats(p.labels, g.edges, p.k)
    assert (sizes[0].tolist(), u[0].tolist(), uw[0].tolist()) == (sizes_e, u_e, uw_e)
    crossing = [tuple(pair) for pair in np.argwhere(sigmaw[0]).tolist()]
    assert {pair: sigma[0][pair] for pair in crossing} == sigma_e
    assert {pair: sigmaw[0][pair] for pair in crossing} == sigmaw_e
    assert not sigma[0][sigmaw[0] == 0].any()
    assert cut[0] == cut_e  # the crossing weights in edge order
    assert score(p, g, "").cut == cut_e

