import csv
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from naive_oracles import (
    build_class_graph,
    graph_from_edges,
    naive_affinity,
    naive_build_class_graph,
)
from servicecut.feature_graph import (
    FeatureGraph,
    collect_calls,
    graph_to_json,
    split_core,
    to_affinity,
    weigh_calls,
    write_affinity_csv,
    write_edge_list,
)
from servicecut import cost_model, feature_graph
from servicecut.cost_model import SizeModel, api_estimate
from servicecut.metrics import score
from servicecut.pipeline import MODES, PipelineInputs, mode_weights
from servicecut.records import (
    CallRecord,
    ObjectLayout,
    OpaqueLayout,
    PerfRecord,
    TypeCatalog,
    TypeRef,
    parse_call_log,
    write_json,
)
from servicecut.spectral import build_laplacian, extract_candidates
from servicecut.synth import SynthSpec, generate_system

CAT = TypeCatalog()


def call(cm, km, cc, kc, params=()):
    return CallRecord(cm, km, cc, kc, (), tuple(TypeRef(p) for p in params))


def test_single_record_edge_weight():
    g = build_class_graph([call("f", "g", "A", "B", ["int"])], CAT)
    assert g.edges == {("A", "B"): 5.0}  # cost 4 + 1


def test_duplicate_records_accumulate():
    records = [call("f", "g", "A", "B", ["int"])] * 2
    g = build_class_graph(records, CAT)
    assert g.edges[("A", "B")] == 10.0


def test_self_call_dropped_and_counted():
    records = [call("f", "f", "A", "A")]
    g = build_class_graph(records, CAT)
    assert g.edges == {}
    assert collect_calls(records).self_calls == 1
    assert g.vertices == ["A"]


def test_same_method_name_in_two_classes_is_not_a_self_call():
    records = [call("f", "f", "A", "B")]
    g = build_class_graph(records, CAT)
    assert collect_calls(records).self_calls == 0
    assert ("A", "B") in g.edges


def test_lift_sums_method_edges():
    records = [call("f", "g", "A", "B", ["int"]), call("h", "g", "A", "B", ["short"])]
    g = build_class_graph(records, CAT)
    assert g.edges == {("A", "B"): 8.0}  # (4 + 1) + (2 + 1)
    assert g.vertices == ["A", "B"]


def test_lift_discards_intra_class_edges():
    records = [call("f", "g", "A", "A", ["int"])]
    g = build_class_graph(records, CAT)
    assert g.edges == {}
    assert collect_calls(records).self_calls == 0
    assert g.vertices == ["A"]
    assert split_core(g)[1] == ["A"]


def test_lift_preserves_direction():
    records = [call("f", "g", "A", "B", ["long"]), call("g", "f", "B", "A", ["byte"])]
    g = build_class_graph(records, CAT)
    assert list(g.edges.items()) == [(("A", "B"), 9.0), (("B", "A"), 2.0)]


def test_lift_conserves_inter_class_weight():
    rng = np.random.default_rng(3)
    records = []
    for _ in range(60):
        ci, cj = rng.choice(["A", "B", "C"], 2)
        mi, mj = f"m{rng.integers(4)}", f"m{rng.integers(4)}"
        if (ci, mi) == (cj, mj):
            continue
        records.append(call(mi, mj, ci, cj, ["int"]))
    g = build_class_graph(records, CAT)
    inter = sum(
        1 + sum(api_estimate(p, CAT) for p in r.callee_params)
        for r in records if r.caller_class != r.callee_class
    )
    assert g.weight.sum() == pytest.approx(inter)


def test_self_call_compares_fields_not_joined_ids():
    # "ns::A" + "::" + "m" and "ns" + "::" + "A::m" are the same string
    records = [call("m", "A::m", "ns::A", "ns", ["int"])]
    g = build_class_graph(records, CAT)
    assert collect_calls(records).self_calls == 0
    assert g.edges == {("ns::A", "ns"): 5.0}


def test_class_names_containing_separator():
    records = [call("f", "g", "ns::A", "ns::B", ["int"]), call("g", "f", "ns::B", "ns::A")]
    g = build_class_graph(records, CAT)
    assert g.vertices == ["ns::A", "ns::B"]
    assert g.edges == {("ns::A", "ns::B"): 5.0, ("ns::B", "ns::A"): 1.0}
    assert collect_calls(records).self_calls == 0


# a few shared parameter tuples, so rows repeat them; under a million-element
# array length the rank-3 arrays cost about 1e18 to 8e18, above 2**53
_BYTES_3 = (TypeRef("byte", 3), TypeRef("int", 1))
_PARAM_TUPLES = [(), (TypeRef("int"),), (TypeRef("long", 3),),
                 (TypeRef("Foo"), TypeRef("double", 3)), _BYTES_3]
_HUGE_ARRAYS = SizeModel(assumed_array_len=10 ** 6)
_METHOD, _CLASS = st.sampled_from(["f", "g"]), st.sampled_from("ABC")
_COST_ROWS = st.lists(st.builds(CallRecord, _METHOD, _METHOD, _CLASS, _CLASS, st.just(()),
                                st.sampled_from(_PARAM_TUPLES)), max_size=30)


@given(_COST_ROWS, st.sampled_from([SizeModel(), _HUGE_ARRAYS]))
# six rows of one cost sum to 0x1.4d127e16c5943p+62 one by one, but six
# times the cost is 0x1.4d127e16c5944p+62
@example([CallRecord("f", "g", "A", "B", (), _BYTES_3)] * 6
         + [CallRecord("g", "f", "B", "A", (), (TypeRef("long", 3),))] * 3, _HUGE_ARRAYS)
def test_class_graph_costing_each_tuple_once_matches_the_row_loop_bit_for_bit(records, model):
    catalog = TypeCatalog({"Foo": OpaqueLayout(24)})
    g = build_class_graph(records, catalog, model)
    naive, dropped = naive_build_class_graph(records, catalog, model)
    assert g.vertices == naive.vertices
    assert list(g.edges) == list(naive.edges)
    assert list(map(float.hex, g.weight.tolist())) == list(map(float.hex, naive.weight.tolist()))
    assert collect_calls(records).self_calls == dropped


def counting_api_estimate(monkeypatch):
    """The types ``feature_graph`` sizes from now on, in call order."""
    sized = []

    def counting(t, catalog, model):
        sized.append(t)
        return api_estimate(t, catalog, model)

    monkeypatch.setattr(feature_graph, "api_estimate", counting)
    return sized


def test_class_graph_costs_each_callee_tuple_once(monkeypatch):
    sized = counting_api_estimate(monkeypatch)
    records = [call("f", "g", a, b, params) for params in (["int"], ["long", "int"])
               for a, b in (("A", "B"), ("B", "C"), ("C", "A"))]
    g = build_class_graph(records, CAT)
    assert sized == [TypeRef("int"), TypeRef("long")]
    assert g.edges == {("A", "B"): 18.0, ("B", "C"): 18.0, ("C", "A"): 18.0}  # 5 + 13


def test_weigh_calls_sizes_each_distinct_type_once(monkeypatch):
    # eight parameters over three types, in four distinct tuples
    catalog = TypeCatalog({"Order": OpaqueLayout(40)})
    sized = counting_api_estimate(monkeypatch)
    records = [call("f", "g", a, b, params) for a, b, params in (
        ("A", "B", ["int", "Order"]), ("B", "C", ["long", "int"]), ("C", "A", ["Order"]),
        ("A", "C", ["Order", "long", "int"]))]
    g = build_class_graph(records, catalog)
    assert sized == [TypeRef("int"), TypeRef("Order"), TypeRef("long")]
    assert g.edges == {("A", "B"): 45.0, ("A", "C"): 53.0, ("B", "C"): 13.0, ("C", "A"): 41.0}


def test_a_nested_type_shared_by_many_tuples_is_sized_once(monkeypatch):
    # a chain of objects, each holding three primitives and the next one, as
    # in a catalog of nested DTOs, named by a dozen distinct callee tuples
    catalog = TypeCatalog({f"Dto{i}": ObjectLayout((TypeRef("int"), TypeRef("long", 1),
                                                    TypeRef("double"), TypeRef(f"Dto{i + 1}")))
                           for i in range(6)})
    records = [call("f", "g", "A", "B", ["Dto0"] * n + extra)
               for n in (1, 2, 3) for extra in ([], ["int"], ["long"], ["int", "long"])]
    estimate, calls = cost_model._estimate, []
    monkeypatch.setattr(cost_model, "_estimate",
                        lambda *args, **kwargs: calls.append(1) or estimate(*args, **kwargs))
    api_estimate(TypeRef("Dto0"), catalog)
    once = len(calls)
    assert once == 1 + 6 * 5  # Dto0, then per level four fields and a long[]'s element
    calls.clear()
    build_class_graph(records, catalog)
    assert len(calls) == once + 2  # and one call each for int and long


def test_collect_calls_numbers_each_callee_tuple_once_by_value(tmp_path):
    # two params texts that parse to one tuple, and equal tuples that are
    # distinct objects: one params entry each time, shared by both rows
    path = tmp_path / "calls.csv"
    path.write_text("f,g,A,B,,int;long\ng,f,B,A,,int; long\n")
    records = [call("f", "g", "A", "B", ["int", "long"]), call("g", "f", "B", "A", ["int", "long"])]
    assert records[0].callee_params is not records[1].callee_params
    for calls in (collect_calls(parse_call_log(path)), collect_calls(records)):
        assert calls.params == [(TypeRef("int"), TypeRef("long"))]
        assert calls.row_params == [0, 0]


def _class_graph():
    return graph_from_edges(["A", "B", "C"], {("A", "B"): 8.0, ("B", "A"): 2.0})


def _class_inputs(perf, **kwargs):
    """Inputs whose class graph is ``_class_graph()``: C only calls itself."""
    records = [call("f", "g", "A", "B", ["int"]), call("h", "g", "A", "B", ["short"]),
               call("g", "f", "B", "A", ["byte"]), call("f", "g", "C", "C")]
    inputs = PipelineInputs(collect_calls(records), perf, CAT, **kwargs)
    assert inputs.graph.vertices == ["A", "B", "C"]
    assert inputs.graph.edges == _class_graph().edges
    return inputs


def test_attach_perf_normalizes_to_unit_interval():
    inputs = _class_inputs([PerfRecord("A", 100, 2e6), PerfRecord("B", 50, 4e6)])
    assert inputs.attrs.tolist() == [[1.0, 0.5], [0.5, 1.0], [0.0, 0.0]]


def test_attach_perf_raw_mode():
    inputs = _class_inputs([PerfRecord("A", 100, 2e6)], normalize=False)
    assert inputs.attrs.tolist() == [[100.0, 2e6], [0.0, 0.0], [0.0, 0.0]]


def test_attach_perf_unknown_class_ignored(caplog):
    inputs = _class_inputs([PerfRecord("Zed", 9, 9)])
    assert inputs.attrs.shape == (3, 2)
    assert not inputs.attrs.any()
    assert "'Zed' has no call-graph vertex" in caplog.text


def test_pipeline_inputs_alone_reports_the_ingest(caplog):
    # self-calls on Z and M, an intra-class call between two methods of C,
    # and perf rows for two classes the call log never names
    calls = collect_calls([call("f", "f", "Z", "Z"), call("f", "g", "A", "B", ["int"]),
                           call("g", "g", "M", "M"), call("f", "g", "C", "C")])
    perf = [PerfRecord("Ghost", 1, 1), PerfRecord("Phantom", 2, 2)]
    weigh_calls(calls, CAT)
    assert caplog.records == []
    inputs = PipelineInputs(calls, perf, CAT, SizeModel(), False)
    assert [r.getMessage() for r in caplog.records] == [
        "dropped 2 self-call record(s)",
        "perf record for 'Ghost' has no call-graph vertex; ignored (2 such records)",
    ]
    assert inputs.isolated == ["C", "M", "Z"]
    assert (inputs.call_rows, inputs.self_calls, inputs.perf_rows, inputs.types) == (4, 2, 2, 8)
    assert not any(hasattr(inputs, a) for a in ("catalog", "model", "normalize"))


def test_fuse_scales_by_callee_factor():
    attrs = np.array([[0.0, 0.0], [0.5, 0.25], [0.0, 0.0]])
    fused = mode_weights(_class_graph(), attrs, "fusion")
    assert fused.tolist() == pytest.approx([8.0 * 1.75, 2.0])  # A has zero attrs


def test_fuse_identity_with_zero_attrs():
    g = _class_graph()
    assert mode_weights(g, np.zeros((3, 2)), "fusion").tolist() == g.weight.tolist()


def test_fuse_same_factor_for_all_in_edges():
    g = graph_from_edges(["A", "B", "C"], {("A", "C"): 2.0, ("B", "C"): 6.0})
    fused = mode_weights(g, np.array([[0, 0], [0, 0], [0.5, 0.5]]), "fusion")
    assert fused[0] / 2.0 == fused[1] / 6.0 == 2.0


def test_unknown_mode_is_a_value_error():
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        mode_weights(_class_graph(), np.zeros((3, 2)), "bogus")


@pytest.mark.parametrize("mode", ["fusion", "dynamic"])
def test_fused_weight_overflow_names_the_pair(mode):
    attrs = np.array([[0.0, 0.0], [1e308, 1e308], [0.0, 0.0]])
    with pytest.raises(OverflowError, match=r"fused weight of \('A', 'B'\) overflows"):
        mode_weights(_class_graph(), attrs, mode)


def test_modes_are_weight_vectors_over_the_class_graph_edges():
    # callee factors f = t + r + 1: 3.0 for A, 2.0 for B
    inputs = _class_inputs([PerfRecord("A", 100, 2e6), PerfRecord("B", 50, 1e6)])
    assert inputs.mode_graph("static").weight is inputs.graph.weight
    assert inputs.mode_graph("fusion").edges == {("A", "B"): 16.0, ("B", "A"): 6.0}
    assert inputs.mode_graph("dynamic").edges == {("A", "B"): 2.0, ("B", "A"): 3.0}


@pytest.mark.parametrize("mode", MODES)
def test_mode_graph_keeps_class_graph_vertices_and_edges(mode):
    # scoring reads MQ's edge counts off the mode graph, so every mode must
    # keep the static class graph's vertex list and edge-key set
    calls, perf, _ = generate_system(SynthSpec(n_classes=24, n_blocks=3,
                                               inter_call_prob=0.1, seed=2))
    inputs = PipelineInputs(collect_calls(calls), perf, CAT)
    base, g = inputs.graph, inputs.mode_graph(mode)
    assert g.vertices == base.vertices
    assert list(g.edges) == list(base.edges)
    labels = extract_candidates(split_core(g)[0], 3, seed=0)
    assert score(labels, 3, g, mode).mq == score(labels, 3, base, "").mq


def test_affinity_sums_both_directions():
    g = _class_graph()
    W = to_affinity(g)
    i, j = g.vertices.index("A"), g.vertices.index("B")
    assert W[i, j] == W[j, i] == 10.0


def test_affinity_empty_graph_is_zero_matrix():
    W = to_affinity(graph_from_edges(["A", "B"], {}))
    assert not W.toarray().any()


def test_affinity_single_directed_edge():
    W = to_affinity(graph_from_edges(["A", "B"], {("A", "B"): 5.0}))
    assert W[0, 1] == W[1, 0] == 5.0


def test_affinity_total_is_twice_directed_weight():
    g = _class_graph()
    W = to_affinity(g)
    assert W.sum() == pytest.approx(2 * g.weight.sum())


def test_graph_rejects_self_loop_and_nonpositive_weight():
    with pytest.raises(ValueError):
        graph_from_edges(["A"], {("A", "A"): 1.0})
    with pytest.raises(ValueError):
        graph_from_edges(["A", "B"], {("A", "B"): 0.0})


@pytest.mark.parametrize("src, dst, pair", [
    ([1, 0], [0, 1], r"\('A', 'B'\) repeats or precedes \('B', 'A'\)"),
    ([0, 1, 0], [1, 0, 2], r"\('A', 'C'\) repeats or precedes \('B', 'A'\)"),
    ([0, 0], [1, 1], r"\('A', 'B'\) repeats or precedes \('A', 'B'\)"),
], ids=["unsorted", "unsorted-later", "repeated"])
def test_graph_rejects_edges_out_of_order_or_repeated(src, dst, pair):
    # the exports write the stored edge order, so only sorted edges are a graph
    with pytest.raises(ValueError, match=pair):
        FeatureGraph(["A", "B", "C"], np.array(src), np.array(dst), np.ones(len(src)))


@pytest.mark.parametrize("w", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_graph_rejects_non_finite_weight(w):
    with pytest.raises(ValueError, match="non-positive or non-finite"):
        graph_from_edges(["A", "B"], {("A", "B"): w})


@st.composite
def _weighted_graph(draw):
    """Random graph whose vertex pairs carry no edge, one direction or
    both, with arbitrary positive float weights."""
    n = draw(st.integers(1, 9))
    verts = [f"v{i}" for i in draw(st.permutations(range(n)))]
    weight = st.floats(0, 1e6, exclude_min=True)
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            for key in draw(st.sampled_from([(), ((i, j),), ((j, i),), ((i, j), (j, i))])):
                edges[(verts[key[0]], verts[key[1]])] = draw(weight)
    order = draw(st.permutations(list(edges)))
    return graph_from_edges(verts, {e: edges[e] for e in order})


@given(_weighted_graph())
def test_affinity_equals_edge_loop_bit_for_bit(g):
    W = to_affinity(g)
    assert W.shape == (len(g.vertices),) * 2
    assert np.array_equal(W.toarray().view(np.int64), naive_affinity(g).view(np.int64))


@given(_weighted_graph())
def test_laplacian_is_symmetric_by_construction(g):
    # the solvers read L as symmetric (the dense one reads one triangle), so
    # it must be exactly so; off the diagonal it is the edge loop's -W
    L = build_laplacian(g)
    assert (L != L.T).nnz == 0
    off = 0.0 - L.toarray()  # not -L: a negated zero is -0.0, whose bits differ
    np.fill_diagonal(off, 0.0)
    assert np.array_equal(off.view(np.int64), naive_affinity(g).view(np.int64))


def test_affinity_of_two_directions_that_overflow_names_the_pair():
    g = graph_from_edges(["A", "B", "C"], {("B", "C"): 1e308, ("C", "B"): 1e308,
                                                  ("A", "B"): 1.0})
    with pytest.raises(OverflowError, match=r"affinity of \('B', 'C'\) overflows float64"):
        to_affinity(g)


def test_exports(tmp_path):
    inputs = _class_inputs([PerfRecord("A", 10, 20)])
    g = inputs.graph
    write_edge_list(g, tmp_path / "edges.csv")
    write_json(graph_to_json(g, inputs.attrs), tmp_path / "graph.json")
    write_affinity_csv(g, tmp_path / "aff.csv")
    assert (tmp_path / "edges.csv").read_text().splitlines()[0] == "src,dst,weight"
    doc = json.loads((tmp_path / "graph.json").read_text())
    assert doc["granularity"] == "class"
    assert len(doc["edges"]) == 2
    assert doc["vertex_attrs"]["A"] == {"cpu_time": 1.0, "retained": 1.0}
    rows = (tmp_path / "aff.csv").read_text().splitlines()
    assert rows[0] == ",A,B,C"


def test_affinity_csv_is_the_dense_matrix(tmp_path):
    # W is sparse; the export still writes all n x n values
    write_affinity_csv(_class_graph(), tmp_path / "aff.csv")
    with open(tmp_path / "aff.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows] == ["", "A", "B", "C"]
    assert all(len(row) == 4 for row in rows)
    assert [("10.0" in field) for field in rows[1][1:]] == [False, True, False]


def test_affinity_csv_cells_parse_to_the_matrix_bit_for_bit(tmp_path):
    calls, perf, _ = generate_system(SynthSpec(n_classes=12, n_blocks=2, seed=1))
    g = PipelineInputs(collect_calls(calls), perf, CAT).mode_core("fusion")
    write_affinity_csv(g, tmp_path / "aff.csv")
    with open(tmp_path / "aff.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    cells = np.array([[float(cell) for cell in row[1:]] for row in rows[1:]])
    assert cells.tobytes() == to_affinity(g).toarray().tobytes()


@pytest.mark.parametrize("normalize", [True, False], ids=["normalized", "raw-attrs"])
@pytest.mark.parametrize("mode", MODES)
def test_affinity_csv_equals_the_dense_rendering(tmp_path, mode, normalize):
    # the table written from W's stored entries is the one written from the
    # dense n x n matrix, byte for byte
    calls, perf, _ = generate_system(SynthSpec(n_classes=40, n_blocks=4, seed=3))
    g = PipelineInputs(collect_calls(calls), perf, CAT, normalize=normalize).mode_core(mode)
    write_affinity_csv(g, tmp_path / "aff.csv")
    with open(tmp_path / "dense.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + g.vertices)
        for vid, row in zip(g.vertices, naive_affinity(g)):
            writer.writerow([vid] + [repr(float(x)) for x in row])
    assert (tmp_path / "aff.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()


def test_affinity_csv_builds_no_dense_matrix(tmp_path):
    n = 1000
    g = graph_from_edges([f"v{i:04d}" for i in range(n)],
                         {(f"v{i:04d}", f"v{i + 1:04d}"): 1.0 for i in range(n - 1)})
    tracemalloc.start()
    try:
        write_affinity_csv(g, tmp_path / "aff.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n // 4  # a dense float64 matrix would take 8 MB


def test_split_core_drops_isolated_vertices():
    g = _class_graph()
    core, isolated = split_core(g)
    assert isolated == ["C"]
    assert core.vertices == ["A", "B"]
    assert core.edges == g.edges
    W = to_affinity(core)
    assert W[0, 1] == W[1, 0] == 10.0


def test_split_core_keeps_the_edge_order_and_renumbers():
    g = graph_from_edges(["a", "b", "c", "d"], {("b", "d"): 2.0, ("d", "b"): 1.0})
    core, isolated = split_core(g)
    assert isolated == ["a", "c"]
    assert (core.src.tolist(), core.dst.tolist()) == ([0, 1], [1, 0])
    assert list(core.edges.items()) == [(("b", "d"), 2.0), (("d", "b"), 1.0)]


def test_summed_weight_overflow_is_an_overflow_error():
    catalog = TypeCatalog({"Big": OpaqueLayout(10 ** 308)})
    records = [call("f", "g", "A", "B", ["Big"])] * 2
    with pytest.raises(OverflowError, match=r"summed weight of \('A', 'B'\) overflows"):
        build_class_graph(records, catalog)
