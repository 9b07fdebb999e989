"""servicecut benchmark: one workload on the inputs of one seed, measured for
a fixed time through the CLI entry point ``servicecut.cli.main``.

    python3 perfbench/run.py --workload sweep-139 --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; the program is imported from
``src/``. The seed's fixture is generated (or taken from the cache under
``perfbench/.work``) before any timing. Each set-up probe and each operation
runs in a fresh child process, one after another: a closed loop with one
client. Operations start while the next one is expected to end within
``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates plain
and traced operations and reports the per-layer metrics from the traced ones,
plus the tracing overhead. Every operation's output is checked. Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record of the
run, with every sample, is written to ``perfbench/.work/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CHILD = HERE / "child.py"

#: workload -> servicecut arguments besides the input and output paths.
#: Each workload loads a layer the others barely use; see README.md, which
#: also says why BENCHMARK.json lists only sweep-139 and evaluate-3000.
WORKLOADS = {
    "sweep-139": ["sweep"],
    "evaluate-3000": ["evaluate", "--mode", "fusion", "--k", "30"],
    "ingest-dup": ["evaluate", "--mode", "fusion", "--k", "8"],
}
#: The self-tests run every workload on n = 24 inputs with 2 epochs.
TINY_ARGS = {
    "sweep-139": ["sweep", "--epochs", "2"],
    "evaluate-3000": ["evaluate", "--mode", "fusion", "--k", "3"],
    "ingest-dup": ["evaluate", "--mode", "fusion", "--k", "3"],
}
SWEEP_MODES = ("static", "fusion")
SWEEP_K_RANGE = (2, 10)
SWEEP_EPOCHS = {"full": 100, "tiny": 2}

#: Set-up probes (children that only import the CLI) at the start of each
#: run, inside the measured time, so that setup_s is a median of several
#: samples even when one operation fills the run.
SETUP_PROBES = 3
#: Every child must end by this many seconds after the run started, so that
#: the whole run ends within three minutes.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "quality": "fraction",
}
LAYERS = ("records", "cost_model", "feature_graph", "spectral", "metrics", "pipeline", "cli")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: n = 24 inputs and 2 epochs, for the self-tests")
    return p.parse_args(argv)


def operation_argv(workload: str, scale: str, fixture: Path, out: Path) -> list[str]:
    argv = list((WORKLOADS if scale == "full" else TINY_ARGS)[workload])
    argv += ["--calls", str(fixture / "calls.csv"), "--perf", str(fixture / "perf.csv")]
    if (fixture / "catalog.txt").is_file():
        argv += ["--type-catalog", str(fixture / "catalog.txt")]
    return argv + ["--out", str(out)]


def run_child(mode: str, argv: list[str], out: Path, timeout: float) -> dict:
    """Run one child process to completion and return its measurements.
    ``setup_s`` runs from just before the spawn to the end of the import."""
    out.mkdir(parents=True)
    result_path = out / "child.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(CHILD), str(result_path), mode, *argv]
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        spawned = time.monotonic()
        try:
            exit_code = subprocess.run(cmd, stdout=so, stderr=se, cwd=ROOT, env=env,
                                       timeout=max(timeout, 1.0)).returncode
        except subprocess.TimeoutExpired:
            exit_code = None
        ended = time.monotonic()
    result = {}
    if result_path.is_file():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = result.pop("setup_done") - spawned
        module_file = Path(result.pop("module_file")).resolve()
        if SRC.resolve() not in module_file.parents:
            raise BenchError(f"child imported servicecut from {module_file}, not {SRC}")
    result["exit_code"] = exit_code
    result["elapsed_s"] = ended - spawned
    result["stderr"] = (out / "stderr.txt").read_text(encoding="utf-8", errors="replace")
    return result


def check_operation(workload, scale, result, out, props) -> tuple[list[str], dict]:
    """Problems with one operation, and what its output measured."""
    problems = checks.check_process(result["exit_code"], result["stderr"], result)
    info: dict = {}
    if problems:
        return problems, info
    argv = (WORKLOADS if scale == "full" else TINY_ARGS)[workload]
    if argv[0] == "sweep":
        problems = checks.check_sweep(out, SWEEP_MODES, SWEEP_K_RANGE, SWEEP_EPOCHS[scale])
        if not problems:
            doc = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
            best = doc["best_k"]
            info["sha256"] = {"sweep.json": checks.sha256(out / "sweep.json")}
            info["best_k"] = best
            info["best_k_hits"] = sum(k == props["n_blocks"] for k in best.values())
            info["mqw"] = statistics.fmean(doc["medians"][f"{m},{k}"] for m, k in best.items())
            info["quality"] = info["mqw"]
    else:
        k = int(argv[argv.index("--k") + 1])
        problems = checks.check_evaluate(out, k, props["non_isolated"])
        if not problems:
            from servicecut.pipeline import partition_accuracy

            part = json.loads((out / "partition.json").read_text(encoding="utf-8"))
            pred = {v: i for i, members in enumerate(part["candidates"]) for v in members}
            info["sha256"] = {"partition.json": checks.sha256(out / "partition.json")}
            info["accuracy"] = partition_accuracy(pred, props["truth"])
            info["mqw"] = json.loads((out / "report.json").read_text(encoding="utf-8"))["MQw"]
            info["quality"] = info["accuracy"]
    return problems, info


def summarize(samples: list[float]) -> dict:
    """Median, sample count, and the highest of p99/p95/p90 that has at least
    ten samples beyond it, when there are that many."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    for p in (99, 95, 90):
        if len(samples) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(samples, n=100)[p - 1]
            break
    return out


def span_totals(spans: list[list]) -> tuple[dict, dict, dict]:
    """Calls, total seconds and self seconds per span name. Self time is a
    span's duration minus the durations of its direct children, which run
    one after another inside it."""
    covered: dict[int, float] = defaultdict(float)
    for sid, parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    for sid, _, name, start, end in spans:
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - covered[sid]
    return calls, total, self_s


def layer_metrics(result: dict, props: dict) -> dict:
    """Per-layer metrics of one traced operation."""
    calls, total, self_s = span_totals(result["spans"])
    counts = result["counts"]
    wall = result["wall_s"]
    computed = counts.get("spectral.eigenpairs_computed", 0)
    kmeans_calls = calls.get("spectral.kmeans", 0)
    m = {
        "records.parse_call_log.s": total["records.parse_call_log"],
        "records.parse_perf_log.s": total["records.parse_perf_log"],
        "records.parse_type_catalog.s": total["records.parse_type_catalog"],
        "records.call_rows": props["call_rows"],
        "records.dup_row_share": props["records.dup_row_share"],
        "cost_model.edge_cost.calls": calls["cost_model.edge_cost"],
        "cost_model.edge_cost.s": total["cost_model.edge_cost"],
        "cost_model.distinct_param_share": props["cost_model.distinct_param_share"],
        "feature_graph.build_method_graph.self_s": self_s["feature_graph.build_method_graph"],
        "feature_graph.lift_to_classes.s": total["feature_graph.lift_to_classes"],
        "feature_graph.attach_perf.s": total["feature_graph.attach_perf"],
        "feature_graph.fuse.s": total["feature_graph.fuse"],
        "feature_graph.to_affinity.s": total["feature_graph.to_affinity"],
        "spectral.build_laplacian.s": total["spectral.build_laplacian"],
        "spectral.eigensolve.s": total["spectral.eigensolve"],
        "spectral.eigensolve.calls": calls["spectral.eigensolve"],
        "spectral.eigenpair_use_ratio": (
            counts.get("spectral.eigenpairs_used", 0) / computed if computed else 0.0),
        "spectral.max_residual": counts.get("spectral.max_residual", 0.0),
        "spectral.kmeans.calls": kmeans_calls,
        "spectral.kmeans.s": total["spectral.kmeans"],
        "spectral.kmeans.ms_per_call": (
            1000.0 * total["spectral.kmeans"] / kmeans_calls if kmeans_calls else 0.0),
        "spectral.canonicalize.s": total["spectral.canonicalize"],
        "metrics.mqw.calls": calls["metrics.mqw"],
        "metrics.mqw.s": total["metrics.mqw"],
        "metrics.mq.s": total["metrics.mq"],
        "metrics.cut_value.s": total["metrics.cut_value"],
        "metrics.cut_pairs": counts.get("metrics.cut_pairs", 0),
        "metrics.score.s": total["metrics.score"],
        "pipeline.build_mode_graph.calls": calls["pipeline.build_mode_graph"],
        "pipeline.build_mode_graph.s": total["pipeline.build_mode_graph"],
        "pipeline.self_s": sum(self_s[n] for n in (
            "pipeline.run_pipeline", "pipeline.sweep", "pipeline.sweep_graph")),
        "cli.self_s": self_s["cli.main"],
    }
    for name in ("method_edges", "class_vertices", "class_edges", "isolated", "affinity_bytes"):
        m[f"feature_graph.{name}"] = counts.get(f"feature_graph.{name}", 0)
    layer_self: dict[str, float] = defaultdict(float)
    for name, seconds in self_s.items():
        layer_self[name.split(".", 1)[0]] += seconds
    for layer in LAYERS:
        m[f"{layer}.self_share"] = layer_self[layer] / wall
    return m


PER_LAYER_UNITS = {
    ".s": "s", "_s": "s", ".calls": "count", ".ms_per_call": "ms",
    "_share": "fraction", "_ratio": "fraction", "_bytes": "bytes", "_residual": "abs",
}


def unit_of(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def measure(args) -> dict:
    """Generate the fixture, run the probes and operations, check every
    output and return the full record of the run."""
    if not (SRC / "servicecut" / "cli.py").is_file():
        raise BenchError(f"no servicecut sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fixtures

    started = time.monotonic()
    fixture, props = fixtures.build(args.workload, args.seed, args.scale, WORK / "fixtures")
    props["truth"] = json.loads((fixture / "truth.json").read_text(encoding="utf-8"))
    fixture_s = time.monotonic() - started

    tag = f"{args.workload}-{args.scale}-s{args.seed}-trace{args.trace}"
    runs = WORK / "runs" / tag
    shutil.rmtree(runs, ignore_errors=True)

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    measured_from = time.monotonic()
    setup_samples = []
    for i in range(SETUP_PROBES):
        probe = run_child("setup", [], runs / f"probe{i}", remaining())
        if probe["exit_code"] != 0 or "setup_s" not in probe:
            raise BenchError(f"importing servicecut.cli failed:\n{probe['stderr']}")
        setup_samples.append(probe["setup_s"])

    ops: list[dict] = []
    while True:
        modes_done = {op["mode"] for op in ops}
        if args.trace:
            mode = "trace" if ops and ops[-1]["mode"] == "plain" else "plain"
            need = {"plain", "trace"} - modes_done
        else:
            mode, need = "plain", {"plain"} - modes_done
        if not need:
            typical = statistics.median(op["elapsed_s"] for op in ops)
            if time.monotonic() - measured_from + typical > args.seconds:
                break
            if remaining() < 2 * typical:
                break
        out = runs / f"op{len(ops)}"
        argv = operation_argv(args.workload, args.scale, fixture, out / "out")
        result = run_child(mode, argv, out, remaining())
        problems, info = check_operation(args.workload, args.scale, result, out / "out", props)
        ops.append({"mode": mode, "problems": problems, **info,
                    **{k: v for k, v in result.items() if k not in ("stderr",)}})
        if result["exit_code"] is None or remaining() <= 0:
            break

    good = [op for op in ops if not op["problems"]]
    plain = [op for op in good if op["mode"] == "plain"]
    setup_samples += [op["setup_s"] for op in ops if "setup_s" in op]
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace, "fixture_s": fixture_s,
        "fixture": {k: v for k, v in props.items() if k not in ("non_isolated", "truth")},
        "attempted": len(ops), "failed": len(ops) - len(good),
        "setup_s": summarize(setup_samples), "setup_samples": setup_samples,
    }
    if plain:
        record["wall_s"] = summarize([op["wall_s"] for op in plain])
        record["peak_rss_mb"] = summarize([op["peak_rss_mb"] for op in plain])
    record["outputs"] = [{k: op.get(k) for k in ("mode", "problems", "wall_s", "peak_rss_mb",
                                                  "sha256", "accuracy", "best_k", "best_k_hits",
                                                  "mqw", "quality")}
                         for op in ops]
    if args.trace:
        traced = [op for op in good if op["mode"] == "trace"]
        per_op = [layer_metrics(op, props) for op in traced]
        layer = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]} \
            if per_op else {}
        if traced and plain:
            layer["trace.overhead_s"] = (statistics.median(op["wall_s"] for op in traced)
                                         - record["wall_s"]["median"])
        record["per_layer"] = layer
        record["missing_spans"] = sorted({n for op in traced for n in op["missing"]})
        record["hook_errors"] = sorted({e for op in traced for e in op["hook_errors"]})
    else:
        # null when every operation failed, so nothing could be measured
        record["end_to_end"] = {
            "setup_s": record["setup_s"]["median"],
            "wall_s": record["wall_s"]["median"] if plain else None,
            "peak_rss_mb": record["peak_rss_mb"]["median"] if plain else None,
            "quality": statistics.median(op["quality"] for op in plain) if plain else None,
        }
    return record


def report(record: dict) -> list[str]:
    """Human-readable lines of a run record."""
    f = record["fixture"]
    lines = [
        f"workload {record['workload']} seed {record['seed']} scale {record['scale']}: "
        f"{f['call_rows']} call rows, dup_row_share {f['records.dup_row_share']:.4f}, "
        f"distinct_param_share {f['cost_model.distinct_param_share']:.4f}, "
        f"{f['classes']} classes, {f['class_edges']} class edges, "
        f"avg degree {f['avg_degree']:.2f} (fixture ready in {record['fixture_s']:.2f} s)",
    ]
    for name, unit in (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB")):
        if name in record:
            s = record[name]
            tail = "".join(f", {k} {v:.4f}" for k, v in s.items() if k.startswith("p"))
            lines.append(f"{name:<12} median {s['median']:.4f} {unit}{tail} (n={s['n']})")
    outs = [o for o in record["outputs"] if not o["problems"]]
    for key, unit in (("quality", "fraction"), ("accuracy", "fraction"),
                      ("best_k_hits", "count"), ("mqw", "fraction")):
        values = [o[key] for o in outs if o.get(key) is not None]
        if values:
            lines.append(f"{key:<12} {statistics.median(values):.4f} {unit} (n={len(values)})")
    lines.append(f"{'error_rate':<12} {record['failed'] / max(record['attempted'], 1):.4f} "
                 f"fraction ({record['failed']}/{record['attempted']} operations failed)")
    for i, o in enumerate(record["outputs"]):
        if o["problems"]:
            lines.append(f"op{i} failed: {'; '.join(o['problems'])}")
        elif o.get("sha256"):
            lines.append(f"op{i} {o['mode']}: " + ", ".join(
                f"sha256({k}) {v}" for k, v in o["sha256"].items()))
    if "per_layer" in record:
        for name, value in record["per_layer"].items():
            lines.append(f"{name:<44} {value:.6g} {unit_of(name)}")
        if record["missing_spans"]:
            lines.append("missing spans: " + ", ".join(record["missing_spans"]))
        if record["hook_errors"]:
            lines.append("count hooks failed: " + "; ".join(record["hook_errors"]))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    # end by an exception on SIGTERM, so that subprocess.run kills and reaps
    # the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        record = measure(args)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-{args.scale}-s{args.seed}-trace{args.trace}"
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    for line in report(record):
        print(line)
    if args.trace:
        values = record["per_layer"]
        metrics = {n: {"value": v, "unit": unit_of(n)} for n, v in values.items()}
    else:
        metrics = {n: {"value": record["end_to_end"][n], "unit": u}
                   for n, u in END_TO_END.items()}
    print(json.dumps({"correct": record["failed"] == 0 and record["attempted"] > 0,
                      "attempted": record["attempted"], "failed": record["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
