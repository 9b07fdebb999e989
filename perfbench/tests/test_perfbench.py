"""Self-tests of the benchmark, on tiny inputs (n = 24 classes, 2 epochs).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def tiny(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "5", "--seconds", "1",
            "--trace", str(trace), "--scale", "tiny"]


def check_metrics(stdout: str, declared: list[dict]) -> dict:
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    return result


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_command_prints_every_end_to_end_metric(workload):
    proc = bench(*tiny(workload, 0))
    assert proc.returncode == 0, proc.stderr
    check_metrics(proc.stdout, SPEC["end_to_end"])
    lines = proc.stdout.splitlines()[:-1]
    for name in ("setup_s", "wall_s", "peak_rss_mb", "quality", "error_rate"):
        assert any(line.startswith(name) for line in lines), name
    extra = "best_k_hits" if workload == "sweep-139" else "accuracy"
    assert any(line.startswith(extra) for line in lines)


def test_traced_run_prints_every_per_layer_metric():
    proc = bench(*tiny("ingest-dup", 1))
    assert proc.returncode == 0, proc.stderr
    check_metrics(proc.stdout, SPEC["per_layer"])


@pytest.mark.parametrize("workload", ["sweep-139", "evaluate-3000"])
def test_corrupted_output_is_counted_as_failed(workload, monkeypatch, capsys):
    real_run_child = run.run_child

    def corrupting(mode, argv, out, timeout):
        result = real_run_child(mode, argv, out, timeout)
        if mode != "setup":
            if workload == "sweep-139":
                path = out / "out" / "sweep.json"
                doc = json.loads(path.read_text())
                doc["epoch_values"]["fusion,3"][0] = float("nan")
            else:
                path = out / "out" / "partition.json"
                doc = json.loads(path.read_text())
                doc["candidates"][0].append(doc["candidates"][1][0])
            path.write_text(json.dumps(doc))
        return result

    monkeypatch.setattr(run, "run_child", corrupting)
    assert run.main(tiny(workload, 0)) == 0
    out = capsys.readouterr().out
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert f"error_rate   1.0000 fraction ({result['failed']}/{result['attempted']}" in out


def test_traced_spans_nest_and_self_times_sum_to_wall():
    proc = bench(*tiny("evaluate-3000", 1))
    assert proc.returncode == 0, proc.stderr
    runs = BENCH / ".work" / "runs" / "evaluate-3000-tiny-s5-trace1"
    traced = [json.loads(p.read_text()) for p in sorted(runs.glob("op*/child.json"))]
    traced = [t for t in traced if "spans" in t]
    assert traced
    for child in traced:
        by_id = {s[0]: s for s in child["spans"]}
        roots = [s for s in child["spans"] if s[1] == -1]
        assert [r[2] for r in roots] == ["cli.main"]
        assert len({s[1] for s in child["spans"]} - set(by_id) - {-1}) == 0
        kids = defaultdict(list)
        for sid, parent, name, start, end in child["spans"]:
            assert start <= end
            if parent >= 0:
                p = by_id[parent]
                assert p[3] <= start and end <= p[4], (name, p[2])
                kids[parent].append((start, end))
        for intervals in kids.values():
            intervals.sort()
            assert all(a[1] <= b[0] for a, b in zip(intervals, intervals[1:]))
        _, _, self_s = run.span_totals(child["spans"])
        assert all(v >= 0 for v in self_s.values())
        gap = child["wall_s"] - sum(self_s.values())
        assert 0 <= gap <= max(0.05 * child["wall_s"], 0.005)
        names = set(self_s)
        assert {"records.parse_call_log", "cost_model.edge_cost", "spectral.eigensolve",
                "spectral.kmeans", "metrics.cut_value", "pipeline.run_pipeline"} <= names


def test_function_missing_from_program_is_reported(monkeypatch):
    monkeypatch.setattr(spans, "TRACED", {"metrics.gone": ("servicecut.metrics", "gone")})
    tracer = spans.Tracer()
    tracer.install()
    assert tracer.missing == ["metrics.gone"]


def test_exits_without_result_outside_a_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench(*tiny("sweep-139", 0), cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
