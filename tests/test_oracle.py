import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from naive_oracles import graph_from_edges, naive_brute_force_best
from servicecut import feature_graph
from servicecut.feature_graph import split_core
from servicecut.oracle import brute_force_best, restricted_growth_strings
from servicecut.spectral import candidates, first_occurrence


def triangle_pair():
    edges = {}
    for a, b in [("a0", "a1"), ("a1", "a2"), ("a0", "a2"),
                 ("b0", "b1"), ("b1", "b2"), ("b0", "b2")]:
        edges[(a, b)] = 1.0
    return graph_from_edges(["a0", "a1", "a2", "b0", "b1", "b2"], edges)


def test_rgs_counts_match_stirling_numbers():
    # Stirling numbers of the second kind S(n, k)
    expected = {(4, 1): 1, (4, 2): 7, (4, 3): 6, (4, 4): 1, (5, 2): 15, (5, 3): 25}
    for (n, k), count in expected.items():
        assert sum(1 for _ in restricted_growth_strings(n, k)) == count


def test_rgs_labels_are_canonical_and_surjective():
    for labels in restricted_growth_strings(5, 3):
        seen = []
        for c in labels:
            if c not in seen:
                seen.append(c)
        assert seen == sorted(seen)  # first occurrences in increasing order
        assert set(labels) == {0, 1, 2}


def test_first_occurrence_is_the_identity_on_restricted_growth_strings():
    # the oracle relies on it: its strings are already canonical labelings
    for n in range(1, 8):
        for k in range(1, n + 1):
            labels = np.array(list(restricted_growth_strings(n, k)))
            assert np.array_equal(first_occurrence(labels, k), labels)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["mqw", "cut"]))
def test_brute_force_best_equals_the_per_partition_loop(seed, objective):
    # fractional weights, so a changed summation order would show in the bits
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    verts = [f"v{i}" for i in range(n)]
    edges = {(a, b): rng.random() * 9 + 0.1 for a in verts for b in verts
             if a != b and rng.random() < 0.4}
    edges[("v0", "v1")] = 0.1 + rng.random()  # the rest may be isolated
    g = graph_from_edges(verts, edges)
    core = split_core(g)[0]
    k = int(rng.integers(1, min(len(core.vertices), 4) + 1))
    labels, value = brute_force_best(core, k, objective)
    expected_p, expected_value = naive_brute_force_best(g, k, objective)
    assert dict(zip(core.vertices, labels.tolist())) == expected_p
    assert set(labels.tolist()) == set(range(k))
    assert np.float64(value).tobytes() == np.float64(expected_value).tobytes()


def test_two_triangles_min_cut_is_components():
    g = triangle_pair()
    labels, value = brute_force_best(g, 2, "cut")
    assert value == 0.0
    groups = candidates(g.vertices, labels, 2)
    assert sorted(map(sorted, groups)) == [["a0", "a1", "a2"], ["b0", "b1", "b2"]]


def test_four_cycle_min_cut_two():
    edges = {("v0", "v1"): 1.0, ("v1", "v2"): 1.0, ("v2", "v3"): 1.0, ("v3", "v0"): 1.0}
    g = graph_from_edges(["v0", "v1", "v2", "v3"], edges)
    _, value = brute_force_best(g, 2, "cut")
    assert value == 2.0


def test_ties_go_to_the_first_string_in_lexicographic_order():
    rows = restricted_growth_strings(6, 3).tolist()
    assert rows == sorted(rows)
    # every split of the 4-cycle into two arcs cuts 2; 0001 comes first
    edges = {("v0", "v1"): 1.0, ("v1", "v2"): 1.0, ("v2", "v3"): 1.0, ("v3", "v0"): 1.0}
    labels, _ = brute_force_best(graph_from_edges(["v0", "v1", "v2", "v3"], edges), 2, "cut")
    assert labels.tolist() == [0, 0, 0, 1]


def test_k1_single_trivial_partition():
    g = triangle_pair()
    labels, value = brute_force_best(g, 1, "cut")
    assert value == 0.0
    assert labels.tolist() == [0] * 6
    assert len(candidates(g.vertices, labels, 1)[0]) == 6


def test_mqw_objective_prefers_components():
    g = triangle_pair()
    labels, _ = brute_force_best(g, 2, "mqw")
    groups = candidates(g.vertices, labels, 2)
    assert sorted(map(sorted, groups)) == [["a0", "a1", "a2"], ["b0", "b1", "b2"]]


def test_vertex_bound_enforced():
    verts = [f"v{i}" for i in range(11)]
    edges = {(verts[i], verts[i + 1]): 1.0 for i in range(10)}
    g = graph_from_edges(verts, edges)
    with pytest.raises(ValueError, match="bounded"):
        brute_force_best(g, 2, "cut")


def test_vertex_bound_checked_before_the_affinity_is_built(monkeypatch):
    def no_affinity(g):
        raise AssertionError("affinity built for an oversized graph")

    monkeypatch.setattr(feature_graph, "to_affinity", no_affinity)
    verts = [f"v{i}" for i in range(11)]
    edges = {(verts[i], verts[i + 1]): 1.0 for i in range(10)}
    g = graph_from_edges(verts, edges)
    with pytest.raises(ValueError, match="bounded to 10 vertices, got 11"):
        brute_force_best(g, 2, "cut")


def test_unknown_objective():
    with pytest.raises(ValueError):
        brute_force_best(triangle_pair(), 2, "modularity")
