import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from naive_oracles import graph_from_edges, naive_cluster_stats, naive_cut, naive_mq, naive_mqw
from servicecut.feature_graph import to_affinity
from servicecut.metrics import batch_scores, label_stats, score


def graph(vertices, edges):
    return graph_from_edges(list(vertices), dict(edges))


def test_mq_two_cohesive_pairs():
    # each cluster: 2 vertices with both directed edges inside, no inter edges
    g = graph("abcd", {("a", "b"): 1, ("b", "a"): 1, ("c", "d"): 1, ("d", "c"): 1})
    labels, k = np.array([0, 0, 1, 1]), 2
    r = score(labels, k, g, "")
    coh, cop, value = r.coh, r.cop, r.mq
    assert coh == [0.5, 0.5]
    assert cop == {(0, 1): 0.0}
    assert value == 0.5


def test_mq_single_cluster_cycle():
    g = graph("abc", {("a", "b"): 1, ("b", "c"): 1, ("c", "a"): 1})
    labels, k = np.array([0, 0, 0]), 1
    value = score(labels, k, g, "").mq
    assert value == pytest.approx(1 / 3)


def test_mq_two_singletons_one_edge():
    g = graph("ab", {("a", "b"): 1})
    labels, k = np.array([0, 1]), 2
    r = score(labels, k, g, "")
    coh, cop, value = r.coh, r.cop, r.mq
    assert coh == [0.0, 0.0]
    assert cop == {(0, 1): 0.5}
    assert value == -0.5


def test_mqw_equals_mq_on_unit_weights():
    g = graph("abcd", {("a", "b"): 1.0, ("b", "c"): 1.0, ("d", "a"): 1.0})
    labels, k = np.array([0, 0, 1, 1]), 2
    r = score(labels, k, g, "")
    assert r.mqw == pytest.approx(r.mq, abs=1e-15)


def test_mqw_weighted_pair_example():
    g = graph("ab", {("a", "b"): 12.0})
    labels, k = np.array([0, 0]), 1
    r = score(labels, k, g, "")
    coh, value = r.coh_w, r.mqw
    assert coh == [pytest.approx(12 / 15)]
    assert value == pytest.approx(0.8)


def test_mqw_cohesion_saturates_toward_one():
    previous = 0.0
    for w in (1, 10, 100, 1000, 10000):
        g = graph("ab", {("a", "b"): float(w)})
        value = score(np.array([0, 0]), 1, g, "").mqw
        assert previous < value < 1.0
        previous = value


def test_cut_zero_for_components_and_single_cluster():
    g = graph("abcd", {("a", "b"): 3.0, ("c", "d"): 2.0})
    assert score(np.array([0, 0, 1, 1]), 2, g, "").cut == 0.0
    assert score(np.array([0, 0, 0, 0]), 1, g, "").cut == 0.0


def test_cut_two_singletons():
    g = graph("ab", {("a", "b"): 4.0, ("b", "a"): 6.0})
    assert score(np.array([0, 1]), 2, g, "").cut == 10.0


def test_cut_invariant_under_relabeling():
    g = graph("abcde", {("a", "b"): 1, ("b", "c"): 2, ("c", "d"): 3, ("d", "e"): 4})
    p1 = np.array([0, 0, 1, 2, 2])
    p2 = np.array([2, 2, 0, 1, 1])
    assert score(p1, 3, g, "").cut == score(p2, 3, g, "").cut


RULE = r"a label in \[0, 2\) and uses every label"


def test_partition_vertex_missing_from_graph():
    # a third label names a vertex the two-vertex graph does not have
    g = graph("ab", {("a", "b"): 1})
    with pytest.raises(ValueError, match="each of the 2 vertices"):
        score(np.array([0, 1, 1]), 2, g, "")


def test_a_partition_that_leaves_a_vertex_unlabeled_is_refused():
    # leaving c out would drop its edges from the score: cut 1.0 and MQw
    # -0.5, not 6.0 and -0.4375
    g = graph("abc", {("a", "b"): 1, ("a", "c"): 5, ("b", "c"): 5})
    with pytest.raises(ValueError, match="each of the 3 vertices"):
        score(np.array([0, 1]), 2, g, "")
    r = score(np.array([0, 1, 1]), 2, g, "")
    assert (r.cut, r.mqw) == (6.0, -0.4375)


@pytest.mark.parametrize("row", [[0, 0, 0], [0, 1, 2], [0, 1, -1], [0, 1, 1, 0]],
                         ids=["empty-candidate", "label-k", "negative-label", "wrong-length"])
def test_a_labeling_that_breaks_the_rule_is_refused(row):
    # the path a -> b -> c at k 2: [0, 0, 0] once scored MQw 0.15 with
    # candidate 1 empty, and a wrong-length row failed with an IndexError
    g = graph("abc", {("a", "b"): 1.0, ("b", "c"): 1.0})
    with pytest.raises(ValueError, match=RULE):
        batch_scores(np.array([row]), 2, g)
    with pytest.raises(ValueError, match=RULE):
        score(np.array(row), 2, g, "")


def test_a_labeling_with_an_empty_candidate_is_refused():
    with pytest.raises(ValueError, match="leaves label 1 unused"):
        score(np.array([0, 2]), 3, graph("ab", {("a", "b"): 1}), "")
    # an empty labeling would render three empty candidates
    with pytest.raises(ValueError, match="leaves label 0 unused"):
        score(np.array([], dtype=np.intp), 3, graph("", {}), "")
    # "every label in [0, k) is used" holds vacuously at k = 0
    with pytest.raises(ValueError, match="with k at least 1; got k = 0"):
        score(np.array([], dtype=np.intp), 0, graph("", {}), "")


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
    return graph(verts, edges), dict(zip(verts, labels)), k


def in_vertex_order(p, g):
    """The name-keyed labels ``p`` as an array over ``g.vertices``."""
    return np.array([p[v] for v in g.vertices])


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
        g, p, k = random_instance(rng)
        r = score(in_vertex_order(p, g), k, g, "")
        assert r.mq == pytest.approx(naive_mq(p, g.edges, k), abs=1e-12)
        assert r.mqw == pytest.approx(naive_mqw(p, g.edges, k), abs=1e-12)
        W = to_affinity(g).toarray()
        aff = {
            (u, v): W[i, j]
            for i, u in enumerate(g.vertices)
            for j, v in enumerate(g.vertices)
        }
        assert r.cut == pytest.approx(naive_cut(p, aff, k), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_bounds_and_unit_weight_equivalence(seed):
    rng = np.random.default_rng(seed)
    g, p, k = random_instance(rng)
    r = score(in_vertex_order(p, g), k, g, "")
    coh, cop, value = r.coh, r.cop, r.mq
    coh_w, cop_w, value_w = r.coh_w, r.cop_w, r.mqw
    for x in coh + coh_w:
        assert 0.0 <= x <= 1.0
    for x in list(cop.values()) + list(cop_w.values()):
        assert 0.0 <= x <= 1.0
    assert -1.0 <= value <= 1.0
    assert -1.0 <= value_w <= 1.0
    unit = graph_from_edges(list(g.vertices), {e: 1.0 for e in g.edges})
    r = score(in_vertex_order(p, unit), k, unit, "")
    assert r.mqw == pytest.approx(r.mq, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_cluster_stats_equal_edge_loop_bit_for_bit(seed):
    # fractional weights, so a changed summation order would show in the bits
    rng = np.random.default_rng(seed)
    g, p, k = random_instance(rng, max_n=12)
    g = graph_from_edges(list(g.vertices), {e: w / 3.0 for e, w in g.edges.items()})
    row = in_vertex_order(p, g)
    sizes, u, uw, sigma, sigmaw, cut = label_stats(row[None], k, g)
    sizes_e, u_e, uw_e, sigma_e, sigmaw_e, cut_e = naive_cluster_stats(p, g.edges, k)
    assert (sizes[0].tolist(), u[0].tolist(), uw[0].tolist()) == (sizes_e, u_e, uw_e)
    crossing = [tuple(pair) for pair in np.argwhere(sigmaw[0]).tolist()]
    assert {pair: sigma[0][pair] for pair in crossing} == sigma_e
    assert {pair: sigmaw[0][pair] for pair in crossing} == sigmaw_e
    assert not sigma[0][sigmaw[0] == 0].any()
    assert cut[0] == cut_e  # the crossing weights in edge order
    assert score(row, k, g, "").cut == cut_e

