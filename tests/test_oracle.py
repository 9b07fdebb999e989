import numpy as np
import pytest

from servicecut import feature_graph
from servicecut.feature_graph import FeatureGraph
from servicecut.oracle import brute_force_best, restricted_growth_strings


def triangle_pair():
    edges = {}
    for a, b in [("a0", "a1"), ("a1", "a2"), ("a0", "a2"),
                 ("b0", "b1"), ("b1", "b2"), ("b0", "b2")]:
        edges[(a, b)] = 1.0
    return FeatureGraph(["a0", "a1", "a2", "b0", "b1", "b2"], edges)


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


def test_two_triangles_min_cut_is_components():
    p, value = brute_force_best(triangle_pair(), 2, "cut")
    assert value == 0.0
    assert sorted(map(sorted, p.candidates())) == [["a0", "a1", "a2"], ["b0", "b1", "b2"]]


def test_four_cycle_min_cut_two():
    edges = {("v0", "v1"): 1.0, ("v1", "v2"): 1.0, ("v2", "v3"): 1.0, ("v3", "v0"): 1.0}
    g = FeatureGraph(["v0", "v1", "v2", "v3"], edges)
    _, value = brute_force_best(g, 2, "cut")
    assert value == 2.0


def test_k1_single_trivial_partition():
    p, value = brute_force_best(triangle_pair(), 1, "cut")
    assert value == 0.0
    assert p.k == 1
    assert len(p.candidates()[0]) == 6


def test_mqw_objective_prefers_components():
    p, _ = brute_force_best(triangle_pair(), 2, "mqw")
    assert sorted(map(sorted, p.candidates())) == [["a0", "a1", "a2"], ["b0", "b1", "b2"]]


def test_isolated_vertices_reported_unassigned():
    g = triangle_pair()
    g = FeatureGraph(g.vertices + ["loner"], g.edges)
    p, _ = brute_force_best(g, 2, "cut")
    assert p.unassigned == {"loner"}


def test_vertex_bound_enforced():
    verts = [f"v{i}" for i in range(11)]
    edges = {(verts[i], verts[i + 1]): 1.0 for i in range(10)}
    g = FeatureGraph(verts, edges)
    with pytest.raises(ValueError, match="bounded"):
        brute_force_best(g, 2, "cut")


def test_vertex_bound_checked_before_the_affinity_is_built(monkeypatch):
    def no_affinity(g):
        raise AssertionError("affinity built for an oversized graph")

    monkeypatch.setattr(feature_graph, "to_affinity", no_affinity)
    verts = [f"v{i}" for i in range(11)]
    g = FeatureGraph(verts + ["loner"], {(verts[i], verts[i + 1]): 1.0 for i in range(10)})
    with pytest.raises(ValueError, match="bounded to 10 vertices, got 11"):
        brute_force_best(g, 2, "cut")


def test_unknown_objective():
    with pytest.raises(ValueError):
        brute_force_best(triangle_pair(), 2, "modularity")
