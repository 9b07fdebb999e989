import gc
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from naive_oracles import canonicalize, naive_kmeans
from servicecut import pipeline
from servicecut.feature_graph import collect_calls
from servicecut.metrics import batch_scores, score
from servicecut.oracle import brute_force_best
from servicecut.pipeline import (
    MODES,
    PipelineInputs,
    epoch_seed,
    partition_accuracy,
    run_pipeline,
    sweep,
    sweep_graph,
    write_sweep_outputs,
)
from servicecut.records import ArgumentError, TypeCatalog, parse_call_log, parse_perf_log
from servicecut.spectral import candidates, embed, extract_candidates, kmeans
from servicecut.synth import SynthSpec, generate_system, synth_generate

CAT = TypeCatalog()


def named(core, labels):
    """The (n,) ``labels`` over ``core.vertices`` as a name-keyed dict."""
    return dict(zip(core.vertices, labels.tolist()))


def two_block_spec(seed=0, **kwargs):
    defaults = dict(n_classes=12, n_blocks=2, intra_call_prob=0.5,
                    inter_call_prob=0.0, seed=seed)
    defaults.update(kwargs)
    return SynthSpec(**defaults)


def inputs_from(spec, tmp_path):
    calls_path, perf_path, _ = synth_generate(spec, tmp_path)
    return PipelineInputs.load(calls_path, perf_path)


def test_inputs_keep_the_row_counts_not_the_rows():
    calls, perf, _ = generate_system(two_block_spec())
    table = collect_calls(calls)
    inputs = PipelineInputs(table, perf, CAT)
    assert (inputs.call_rows, inputs.perf_rows) == (len(calls), len(perf))
    gc.collect()
    for rows in (calls, table, perf):
        assert not any(ref is inputs or ref is vars(inputs) for ref in gc.get_referrers(rows))


def test_loading_a_longer_log_costs_a_few_words_per_extra_row(tmp_path):
    # the call log streams into the class graph: no record is held, so the
    # traced peak of a load grows with the rows by what each row keeps
    # (two class codes and a tuple number) and the arrays made of them
    calls_path, perf_path, _ = synth_generate(
        SynthSpec(n_classes=150, n_blocks=3, seed=1), tmp_path)
    header, *rows = calls_path.read_bytes().splitlines(keepends=True)
    repeated = tmp_path / "repeated.csv"
    repeated.write_bytes(header + b"".join(rows) * 8)
    peaks = []
    for path in (calls_path, repeated):
        tracemalloc.start()
        try:
            PipelineInputs.load(path, perf_path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (7 * len(rows)) <= 100


# --- synthetic generator ----------------------------------------------------


def test_zero_inter_prob_components_equal_blocks():
    calls, _, truth = generate_system(two_block_spec())
    for r in calls:
        assert truth[r.caller_class] == truth[r.callee_class]


def test_synth_outputs_byte_identical_for_fixed_seed(tmp_path):
    spec = two_block_spec(seed=5)
    a = tmp_path / "a"
    b = tmp_path / "b"
    synth_generate(spec, a)
    synth_generate(spec, b)
    for name in ("calls.csv", "perf.csv", "truth.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_files_parse(tmp_path):
    calls_path, perf_path, truth_path = synth_generate(two_block_spec(), tmp_path)
    calls = list(parse_call_log(calls_path))
    perf = parse_perf_log(perf_path)
    assert calls
    assert len(perf) == 12
    truth = json.loads(truth_path.read_text())
    assert len(truth["blocks"]) == 2


def test_ground_truth_recovery_zero_inter_every_seed():
    for seed in range(8):
        calls, perf, truth = generate_system(two_block_spec(seed=seed))
        core = PipelineInputs(collect_calls(calls), perf, CAT).core
        labels = extract_candidates(core, 2, seed=seed)
        assert partition_accuracy(named(core, labels), truth) == 1.0


def test_block_correlated_perf_levels_differ():
    _, perf, truth = generate_system(
        two_block_spec(block_correlated_perf=True, n_classes=16)
    )
    by_block = {0: [], 1: []}
    for r in perf:
        by_block[truth[r.class_id]].append(r.cpu_time)
    mean0 = sum(by_block[0]) / len(by_block[0])
    mean1 = sum(by_block[1]) / len(by_block[1])
    assert mean1 > mean0


def test_synth_spec_validation():
    # each check names its field; the chained comparisons reject NaN too
    for param, value in [("n_blocks", 5), ("n_blocks", 0), ("intra_call_prob", 1.5),
                         ("inter_call_prob", -0.1), ("intra_call_prob", float("nan")),
                         ("inter_call_prob", float("nan"))]:
        with pytest.raises(ArgumentError, match=f"^{param}=") as excinfo:
            SynthSpec(**{"n_classes": 4, "n_blocks": 2, param: value})
        assert excinfo.value.param == param


# --- run_pipeline -----------------------------------------------------------


def test_pipeline_recovers_two_blocks_static(tmp_path):
    inputs = inputs_from(two_block_spec(), tmp_path)
    labels, report = run_pipeline(inputs, "static", k=2, seed=3)
    calls, _, truth = generate_system(two_block_spec())
    assert partition_accuracy(named(inputs.core, labels), truth) == 1.0
    # reported MQw equals the metric module applied to the same partition
    assert report.mqw == pytest.approx(score(labels, 2, inputs.core, "").mqw)
    assert report.cut == 0.0


def test_fusion_with_empty_perf_equals_static(tmp_path):
    spec = two_block_spec(inter_call_prob=0.05)
    calls_path, _, _ = synth_generate(spec, tmp_path)
    inputs = PipelineInputs.load(calls_path)  # no perf log
    p_static, _ = run_pipeline(inputs, "static", k=2, seed=11)
    p_fusion, _ = run_pipeline(inputs, "fusion", k=2, seed=11)
    assert p_static.tolist() == p_fusion.tolist()


def test_pipeline_k_exceeding_vertices(tmp_path):
    inputs = inputs_from(two_block_spec(), tmp_path)
    with pytest.raises(ValueError, match="k must be in"):
        run_pipeline(inputs, "static", k=13, seed=0)


def test_pipeline_deterministic(tmp_path):
    inputs = inputs_from(two_block_spec(inter_call_prob=0.1, seed=2), tmp_path)
    p1, r1 = run_pipeline(inputs, "fusion", k=3, seed=9)
    p2, r2 = run_pipeline(inputs, "fusion", k=3, seed=9)
    assert p1.tolist() == p2.tolist()
    assert r1.mqw == r2.mqw


def test_dynamic_mode_runs(tmp_path):
    inputs = inputs_from(two_block_spec(inter_call_prob=0.1, seed=4), tmp_path)
    labels, report = run_pipeline(inputs, "dynamic", k=2, seed=0)
    assert set(labels.tolist()) == {0, 1}
    assert report.mode == "dynamic"


# --- metamorphic relations --------------------------------------------------

METAMORPHIC_SEEDS = (0, 1)


def metamorphic_logs(seed):
    calls, perf, _ = generate_system(SynthSpec(n_classes=30, n_blocks=3,
                                               inter_call_prob=0.05, seed=seed))
    return calls, perf


@pytest.mark.parametrize("seed", METAMORPHIC_SEEDS)
@pytest.mark.parametrize("mode", MODES)
def test_duplicated_call_rows_leave_candidates_unchanged(seed, mode):
    calls, perf = metamorphic_logs(seed)
    inputs = PipelineInputs(collect_calls(calls), perf, CAT)
    doubled = PipelineInputs(collect_calls(r for r in calls for _ in range(2)), perf, CAT)
    for k in (2, 4, 6):
        p, _ = run_pipeline(inputs, mode, k, seed)
        p2, _ = run_pipeline(doubled, mode, k, seed)
        assert (candidates(doubled.core.vertices, p2, k)
                == candidates(inputs.core.vertices, p, k))
    assert doubled.isolated == inputs.isolated


@pytest.mark.parametrize("seed", METAMORPHIC_SEEDS)
@pytest.mark.parametrize("mode", MODES)
def test_prefixed_class_names_leave_candidates_unchanged(seed, mode):
    calls, perf = metamorphic_logs(seed)
    inputs = PipelineInputs(collect_calls(calls), perf, CAT)
    renamed = PipelineInputs(
        collect_calls(r._replace(caller_class="x." + r.caller_class,
                                 callee_class="x." + r.callee_class) for r in calls),
        [replace(r, class_id="x." + r.class_id) for r in perf],
        CAT,
    )
    for k in (2, 4, 6):
        p, _ = run_pipeline(inputs, mode, k, seed)
        p2, _ = run_pipeline(renamed, mode, k, seed)
        assert named(renamed.core, p2) == {"x." + v: c for v, c in named(inputs.core, p).items()}
    assert renamed.isolated == ["x." + v for v in inputs.isolated]


# --- sweep ------------------------------------------------------------------


def test_epoch_seed_is_stable_and_spread():
    s = epoch_seed(42, "static", 3, 7)
    assert s == epoch_seed(42, "static", 3, 7)
    others = {epoch_seed(42, m, k, e) for m in ("static", "fusion")
              for k in (2, 3) for e in range(5)}
    assert len(others) == 20
    # only the low 63 bits of the base seed count: why sweep takes base
    # seeds below 2**63
    assert epoch_seed(2 ** 63, "static", 3, 7) == epoch_seed(0, "static", 3, 7)


def test_sweep_single_epoch_median_is_the_value(tmp_path):
    inputs = inputs_from(two_block_spec(inter_call_prob=0.05, seed=1), tmp_path)
    result = sweep(inputs, ("static",), k_min=2, k_max=4, epochs=1, base_seed=7)
    for key, values in result.epoch_values.items():
        assert len(values) == 1
        assert result.medians[key] == values[0]


def test_sweep_deterministic_outputs(tmp_path):
    inputs = inputs_from(two_block_spec(inter_call_prob=0.05, seed=3), tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        result = sweep(inputs, ("static", "fusion"), k_min=2, k_max=5,
                       epochs=4, base_seed=123)
        write_sweep_outputs(result, out)
    for name in ("sweep.csv", "sweep.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_sweep_two_block_best_k_is_two(tmp_path):
    spec = SynthSpec(n_classes=10, n_blocks=2, intra_call_prob=0.7,
                     inter_call_prob=0.02, param_pool=("int",), max_params=1, seed=6)
    calls_path, perf_path, _ = synth_generate(spec, tmp_path)
    inputs = PipelineInputs.load(calls_path, perf_path)
    result = sweep(inputs, ("static",), k_min=2, k_max=5, epochs=5, base_seed=0)
    assert result.best_k["static"] == 2
    # cross-check against exhaustive search on this small instance
    best_p, best_value = brute_force_best(inputs.graph, 2, "mqw")
    assert best_value >= result.medians[("static", 2)] - 1e-12


@pytest.mark.parametrize("modes", [(), ("static", "static")])
def test_sweep_rejects_no_mode_or_a_repeated_mode(tmp_path, modes):
    inputs = inputs_from(two_block_spec(), tmp_path)
    with pytest.raises(ArgumentError, match="modes names") as excinfo:
        sweep(inputs, modes, k_min=2, k_max=3, epochs=1)
    assert excinfo.value.param == "modes"


def test_sweep_rejects_an_unknown_mode_before_sweeping_any(tmp_path, monkeypatch):
    inputs = inputs_from(two_block_spec(), tmp_path)
    swept = []
    monkeypatch.setattr(pipeline, "sweep_graph",
                        lambda g, mode, *args: swept.append(mode) or {})
    with pytest.raises(ArgumentError, match="unknown mode 'bogus'") as excinfo:
        sweep(inputs, ("static", "bogus"), k_min=2, k_max=3, epochs=1)
    assert excinfo.value.param == "modes"
    assert swept == []


@pytest.mark.parametrize("kwargs, name", [
    (dict(k_min=3, k_max=2), "k_min"),
    (dict(k_min=1), "k_min"),
    (dict(epochs=0), "epochs"),
    (dict(base_seed=-1), "base_seed"),
    (dict(base_seed=2 ** 63), "base_seed"),
], ids=["k-min-above-k-max", "k-min-1", "epochs-0", "base-seed-negative", "base-seed-2**63"])
def test_sweep_rejects_the_arguments_the_cli_rejects(tmp_path, kwargs, name):
    inputs = inputs_from(two_block_spec(), tmp_path)
    args = dict(k_min=2, k_max=3, epochs=1, base_seed=0) | kwargs
    with pytest.raises(ArgumentError, match=f"^{name}=") as excinfo:
        sweep(inputs, ("static",), **args)
    assert excinfo.value.param == name


@pytest.mark.parametrize("mode", MODES)
def test_sweep_graph_epoch_values_equal_reference_loop(mode, monkeypatch):
    # the per-restart k-means, dict relabeling and dict-loop MQw the sweep
    # replaced, value for value: guards a byte-identical sweep.json; all the
    # epochs of one k share one k-means call
    calls, perf, _ = generate_system(SynthSpec(n_classes=40, n_blocks=4, seed=1))
    core = PipelineInputs(collect_calls(calls), perf, CAT).mode_core(mode)
    U = embed(core, 10).U
    expected = {}
    for k in range(2, 11):
        expected[(mode, k)] = []
        for epoch in range(3):
            raw = naive_kmeans(U[:, :k].copy(), k, epoch_seed(11, mode, k, epoch))
            p = canonicalize(dict(zip(core.vertices, (int(c) for c in raw))))
            expected[(mode, k)].append(score(np.array([p[v] for v in core.vertices]), k, core,
                                             "").mqw)
    calls = []
    monkeypatch.setattr(pipeline, "kmeans",
                        lambda *args: calls.append(len(args[2])) or kmeans(*args))
    assert sweep_graph(core, mode, 2, 10, 3, 11) == expected
    assert calls == [3] * 9


def test_sweep_graph_scores_each_distinct_labeling_once(monkeypatch):
    # two disconnected blocks: every epoch at k = 2 finds the same partition
    calls, perf, _ = generate_system(two_block_spec(seed=3))
    core = PipelineInputs(collect_calls(calls), perf, CAT).mode_core("static")
    rows = []

    def counting(labels, *rest):
        rows.append(len(labels))
        return batch_scores(labels, *rest)

    monkeypatch.setattr(pipeline, "batch_scores", counting)
    values = sweep_graph(core, "static", 2, 2, 8, 0)[("static", 2)]
    assert rows == [1]
    assert values == [values[0]] * 8


def test_sweep_median_reproducible_from_stored_values(tmp_path):
    import statistics

    inputs = inputs_from(two_block_spec(inter_call_prob=0.05, seed=9), tmp_path)
    result = sweep(inputs, ("static",), k_min=2, k_max=3, epochs=6, base_seed=5)
    for key, values in result.epoch_values.items():
        assert result.medians[key] == statistics.median(values)
        assert len(values) == 6


# --- accuracy helper --------------------------------------------------------


def test_partition_accuracy_handles_label_permutation():
    truth = {"a": 0, "b": 0, "c": 1, "d": 1}
    pred = {"a": 1, "b": 1, "c": 0, "d": 0}
    assert partition_accuracy(pred, truth) == 1.0


def test_partition_accuracy_partial():
    truth = {"a": 0, "b": 0, "c": 1, "d": 1}
    pred = {"a": 0, "b": 1, "c": 1, "d": 1}
    assert partition_accuracy(pred, truth) == 0.75
