"""Checks of one operation's outputs, independent of the program's own
validation. Each check returns a list of problems; an empty list passes."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_json(path: Path, problems: list[str]):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: {exc}")
        return None


def check_process(exit_code: int, stderr: str, result: dict) -> list[str]:
    problems = []
    if exit_code != 0:
        problems.append(f"process exit code {exit_code}")
    if result.get("rc") != 0:
        problems.append(f"servicecut.cli.main returned {result.get('rc')!r}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    return problems


def check_evaluate(out: Path, k: int, non_isolated: list[str]) -> list[str]:
    """partition.json assigns every non-isolated class exactly once, to one
    of k non-empty candidates; report.json holds a finite MQw."""
    problems: list[str] = []
    part = _load_json(out / "partition.json", problems)
    report = _load_json(out / "report.json", problems)
    if part is None or report is None:
        return problems
    try:
        candidates = part["candidates"]
        assigned = [v for c in candidates for v in c]
        if part["k"] != k or len(candidates) != k:
            problems.append(f"expected {k} candidates, got k={part['k']}, {len(candidates)}")
        if any(not c for c in candidates):
            problems.append("empty candidate")
        if len(assigned) != len(set(assigned)):
            problems.append("a class is assigned more than once")
        if set(assigned) != set(non_isolated):
            problems.append(f"assigned classes differ from the {len(non_isolated)} "
                            f"non-isolated classes in {len(set(assigned) ^ set(non_isolated))} places")
        if set(part["unassigned"]) & set(assigned):
            problems.append("a class is both assigned and unassigned")
        if not math.isfinite(report["MQw"]):
            problems.append(f"MQw is {report['MQw']!r}")
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems


def check_sweep(out: Path, modes: tuple[str, ...], k_range: tuple[int, int],
                epochs: int) -> list[str]:
    """sweep.json holds `epochs` finite MQw values and a finite median for
    every (mode, k), and a best k per mode inside the range; sweep.csv holds
    the same medians."""
    problems: list[str] = []
    doc = _load_json(out / "sweep.json", problems)
    if doc is None:
        return problems
    keys = {f"{m},{k}" for m in modes for k in range(k_range[0], k_range[1] + 1)}
    try:
        if set(doc["epoch_values"]) != keys or set(doc["medians"]) != keys:
            problems.append("sweep.json does not cover every (mode, k)")
        for key, values in doc["epoch_values"].items():
            if len(values) != epochs or not all(math.isfinite(v) for v in values):
                problems.append(f"epoch values of {key} are not {epochs} finite numbers")
        if not all(math.isfinite(v) for v in doc["medians"].values()):
            problems.append("non-finite median MQw")
        if set(doc["best_k"]) != set(modes) or not all(
                k_range[0] <= k <= k_range[1] for k in doc["best_k"].values()):
            problems.append(f"best_k {doc['best_k']!r} outside the sweep")
        with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        csv_medians = {f"{r['mode']},{r['k']}": float(r["median_mqw"]) for r in rows}
        if csv_medians != doc["medians"]:
            problems.append("sweep.csv medians differ from sweep.json")
    except (KeyError, TypeError, ValueError, OSError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems
