"""Acceptance suite: one test per criterion, each printing a pass/fail line
(emitted outside pytest's capture so it shows in a plain ``pytest -v`` run)."""

import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from naive_oracles import graph_from_edges, hand_object_size, naive_cut, naive_mq, naive_mqw
from servicecut.cost_model import SizeModel, api_estimate
from servicecut.feature_graph import collect_calls, split_core, to_affinity
from servicecut.metrics import score
from servicecut.oracle import brute_force_best
from servicecut.pipeline import PipelineInputs, partition_accuracy, sweep
from servicecut.records import ObjectLayout, PRIMITIVE_SIZES, TypeCatalog, TypeRef
from servicecut.spectral import build_laplacian, candidates, embed, extract_candidates
from servicecut.synth import SynthSpec, generate_system
from test_metrics import in_vertex_order, random_instance
from test_spectral import matrix_graph

SMALL_PARAMS = ("int", "boolean", "short", "byte")


@contextmanager
def criterion(capsys, number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\ncriterion {number}: FAIL ({description})")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"\ncriterion {number}: PASS ({description}) [{elapsed:.1f}s]")


def random_symmetric_affinity(rng, n):
    A = rng.random((n, n)) * 10
    W = np.triu(A, 1)
    W = W + W.T
    return W


def test_criterion_1_cost_model_table(capsys):
    with criterion(capsys, 1, "primitive sizes, boolean conventions, 8-byte padding"):
        start = time.perf_counter()
        cat = TypeCatalog()
        expected = {"byte": 1, "short": 2, "int": 4, "long": 8,
                    "char": 2, "float": 4, "double": 8, "boolean": 4}
        for name, size in expected.items():
            assert api_estimate(TypeRef(name), cat) == size, name
        # boolean declared alone: 4 bytes; within an array: 1 byte/element
        assert api_estimate(TypeRef("boolean"), cat) == 4
        model = SizeModel(assumed_array_len=8)
        assert api_estimate(TypeRef("boolean", 1), cat, model) == 24  # 16 + 8*1
        rng = np.random.default_rng(1)
        prim_names = sorted(PRIMITIVE_SIZES)
        for i in range(200):
            fields = tuple(
                TypeRef(prim_names[int(rng.integers(len(prim_names)))])
                for _ in range(int(rng.integers(0, 15)))
            )
            c = TypeCatalog({"T": ObjectLayout(fields)})
            size = api_estimate(TypeRef("T"), c)
            assert size % 8 == 0
            assert size == hand_object_size(
                [PRIMITIVE_SIZES[f.name] for f in fields]
            )
        assert time.perf_counter() - start < 1.0


def test_criterion_2_metric_oracle_equivalence(capsys):
    with criterion(capsys, 2, "mq/mqw/cut match brute-force enumeration on 500 graphs"):
        start = time.perf_counter()
        rng = np.random.default_rng(77)
        for _ in range(500):
            g, p, k = random_instance(rng, max_n=8)
            r = score(in_vertex_order(p, g), k, g, "")
            assert r.mq == pytest.approx(
                naive_mq(p, g.edges, k), abs=1e-12
            )
            assert r.mqw == pytest.approx(
                naive_mqw(p, g.edges, k), abs=1e-12
            )
            W = to_affinity(g).toarray()
            aff = {
                (u, v): W[i, j]
                for i, u in enumerate(g.vertices)
                for j, v in enumerate(g.vertices)
            }
            assert r.cut == pytest.approx(
                naive_cut(p, aff, k), abs=1e-12
            )
            unit = graph_from_edges(list(g.vertices), {e: 1.0 for e in g.edges})
            r = score(in_vertex_order(p, unit), k, unit, "")
            assert r.mqw == pytest.approx(r.mq, abs=1e-12)
        assert time.perf_counter() - start < 30.0


def _random_two_component_affinity(rng):
    sizes = [int(rng.integers(3, 9)) for _ in range(2)]
    n = sum(sizes)
    W = np.zeros((n, n))
    offset = 0
    for s in sizes:
        idx = list(range(offset, offset + s))
        for a, b in zip(idx, idx[1:] + idx[:1]):  # ring keeps it connected
            w = rng.random() * 5 + 0.5
            W[a, b] += w
            W[b, a] += w
        for a in idx:
            for b in idx:
                if a < b and rng.random() < 0.4:
                    w = rng.random() * 5 + 0.1
                    W[a, b] += w
                    W[b, a] += w
        offset += s
    ids = [f"v{i:02d}" for i in range(n)]
    return matrix_graph(W, ids), sizes


def test_criterion_3_spectral_correctness(capsys):
    with criterion(capsys, 3, "Laplacian/eigenpair tolerances and component recovery"):
        rng = np.random.default_rng(5)
        # tolerances on dense random graphs
        for _ in range(20):
            n = int(rng.integers(4, 30))
            g = matrix_graph(random_symmetric_affinity(rng, n))
            L = build_laplacian(g)
            assert np.abs(L.sum(axis=1)).max() < 1e-9
            k = int(rng.integers(1, n + 1))
            emb = embed(g, k)
            for i in range(k):
                u = emb.U[:, i]
                residual = np.linalg.norm(L @ u - emb.eigenvalues[i] * u)
                assert residual < 1e-6 * max(1.0, np.abs(L).max())
            trace = np.trace(emb.U.T @ L @ emb.U)
            assert abs(trace - emb.eigenvalues.sum()) < 1e-6 * max(
                1.0, abs(emb.eigenvalues.sum())
            )
        # exact recovery of two components, 100/100
        recovered = 0
        for trial in range(100):
            g, sizes = _random_two_component_affinity(rng)
            labels = extract_candidates(g, 2, seed=trial)
            groups = sorted(map(sorted, candidates(g.vertices, labels, 2)))
            expected = sorted(
                [
                    [f"v{i:02d}" for i in range(sizes[0])],
                    [f"v{i:02d}" for i in range(sizes[0], sizes[0] + sizes[1])],
                ]
            )
            recovered += groups == expected
        assert recovered == 100


CONFIGS = ((24, 3), (46, 3), (139, 6))


def test_criterion_4_planted_partition_recovery(capsys):
    with criterion(capsys, 4, "planted-partition accuracy and k-sweep argmax"):
        start = time.perf_counter()
        cat = TypeCatalog()
        for n, blocks in CONFIGS:
            accuracies = []
            argmax_hits = 0
            for seed in range(20):
                spec = SynthSpec(
                    n_classes=n, n_blocks=blocks,
                    intra_call_prob=0.3, inter_call_prob=0.02,
                    param_pool=SMALL_PARAMS, max_params=1, seed=seed,
                )
                calls, perf, truth = generate_system(spec)
                inputs = PipelineInputs(collect_calls(calls), perf, cat)
                labels = extract_candidates(inputs.core, blocks, seed=1000 + seed)
                pred = dict(zip(inputs.core.vertices, labels.tolist()))
                accuracies.append(partition_accuracy(pred, truth))
                result = sweep(inputs, ("static",), 2, 10, 10, seed)
                argmax_hits += result.best_k["static"] == blocks
            mean_acc = statistics.mean(accuracies)
            assert mean_acc >= 0.95, (n, blocks, mean_acc)
            assert argmax_hits >= 16, (n, blocks, argmax_hits)
        assert time.perf_counter() - start < 300.0


def test_criterion_5_fusion_dominates_static(capsys):
    with criterion(capsys, 5, "Fusion >= Static median MQw for every k, >=4/5 seeds"):
        cat = TypeCatalog()
        good_seeds = 0
        for seed in range(5):
            spec = SynthSpec(
                n_classes=40, n_blocks=4,
                intra_call_prob=0.2, inter_call_prob=0.01,
                param_pool=SMALL_PARAMS, max_params=1,
                block_correlated_perf=True, seed=seed,
            )
            calls, perf, _ = generate_system(spec)
            inputs = PipelineInputs(collect_calls(calls), perf, cat)
            result = sweep(inputs, ("static", "fusion"), 2, 10, 100, 100 + seed)
            medians = result.medians
            dominated = all(
                medians[("fusion", k)] >= medians[("static", k)] - 1e-12
                for k in range(2, 11)
            )
            good_seeds += dominated
        assert good_seeds >= 4, good_seeds


def test_criterion_6_sweep_determinism(tmp_path, capsys):
    with criterion(capsys, 6, "identical sweep invocations are byte-identical"):
        from servicecut.cli import main

        spec_args = ["synth", "--n-classes", "16", "--n-blocks", "2",
                     "--intra", "0.4", "--inter", "0.05", "--seed", "8",
                     "--out", str(tmp_path / "sys")]
        assert main(spec_args) == 0
        outputs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            argv = ["sweep",
                    "--calls", str(tmp_path / "sys" / "calls.csv"),
                    "--perf", str(tmp_path / "sys" / "perf.csv"),
                    "--k-min", "2", "--k-max", "6", "--epochs", "5",
                    "--seed", "21", "--out", str(out)]
            assert main(argv) == 0
            outputs.append(out)
        a, b = outputs
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
        assert (a / "sweep.json").read_bytes() == (b / "sweep.json").read_bytes()


def test_criterion_7_oracle_dominance(capsys):
    with criterion(capsys, 7, "exhaustive MQw >= pipeline MQw on 50 small graphs"):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 50:
            n = int(rng.integers(5, 11))
            verts = [f"v{i}" for i in range(n)]
            edges = {}
            for a, b in zip(verts, verts[1:] + verts[:1]):  # connected base
                edges[(a, b)] = float(np.round(rng.random() * 9 + 1, 3))
            for a in verts:
                for b in verts:
                    if a != b and rng.random() < 0.25:
                        edges[(a, b)] = float(np.round(rng.random() * 9 + 1, 3))
            g = graph_from_edges(verts, edges)
            core, _ = split_core(g)
            k = int(rng.integers(2, min(5, len(core.vertices)) + 1))
            labels = extract_candidates(core, k, seed=checked)
            pipeline_value = score(labels, k, core, "").mqw
            _, best_value = brute_force_best(g, k, "mqw")
            assert best_value >= pipeline_value - 1e-12
            checked += 1
