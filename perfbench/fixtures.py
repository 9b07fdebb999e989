"""Deterministic benchmark inputs, generated with ``servicecut.synth`` from a
seed and cached per (workload, seed, scale).

Generation is never timed. A cached fixture is a directory holding
``calls.csv``, ``perf.csv``, ``truth.json`` (class -> planted block),
optionally ``catalog.txt``, and ``fixture.json`` with the input properties the
results report. ``fixture.json`` is written last, so a directory without it is
an interrupted generation and is built again.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import numpy as np

from servicecut.records import CallRecord, write_call_log, write_perf_log
from servicecut.synth import SynthSpec, generate_system

#: SynthSpec arguments per workload (the seed is added at run time). The
#: ``tiny`` scale runs the same code paths on n = 24 for the self-tests.
SPECS = {
    "full": {
        "sweep-139": dict(n_classes=139, n_blocks=6),
        "evaluate-3000": dict(n_classes=3000, n_blocks=30,
                              intra_call_prob=0.1, inter_call_prob=0.002),
        "ingest-dup": dict(n_classes=800, n_blocks=8),
    },
    "tiny": {
        "sweep-139": dict(n_classes=24, n_blocks=3),
        "evaluate-3000": dict(n_classes=24, n_blocks=3,
                              intra_call_prob=0.5, inter_call_prob=0.05),
        "ingest-dup": dict(n_classes=24, n_blocks=3),
    },
}

#: Workloads whose call log repeats rows and whose parameters use a catalog.
DUPLICATED = {"ingest-dup"}

CATALOG_TYPES = 16
PRIMITIVE_PARAMS = ("int", "long", "double", "boolean", "byte[]")
MEAN_REPEATS = 4


def type_catalog(rng: np.random.Generator) -> tuple[str, list[str]]:
    """Catalog text of nested ``object`` types, and their names. Type i holds
    three seeded primitive fields and a reference to type i + 1, so every
    seed gives trees of the same shape for the cost model to walk, and the
    cost of a row depends only on which types it draws."""
    names = [f"Dto{i:02d}" for i in range(CATALOG_TYPES)]
    lines = []
    for i, name in enumerate(names):
        lines.append(f"{name}: object")
        for _ in range(3):
            lines.append("    " + PRIMITIVE_PARAMS[int(rng.integers(len(PRIMITIVE_PARAMS)))])
        if i + 1 < len(names):
            lines.append("    " + names[i + 1])
    return "\n".join(lines) + "\n", names


def repeat_rows(calls: list[CallRecord], rng: np.random.Generator) -> list[CallRecord]:
    """Repeat every row a Geometric(mean MEAN_REPEATS) number of times and
    shuffle, as an observed-call log of a running system repeats calls."""
    counts = rng.geometric(1.0 / MEAN_REPEATS, size=len(calls))
    rows = [r for r, c in zip(calls, counts) for _ in range(int(c))]
    return [rows[i] for i in rng.permutation(len(rows))]


def input_properties(calls: list[CallRecord]) -> dict:
    """Properties of a call log that the program's cost depends on."""
    rows = len(calls)
    classes = {r.caller_class for r in calls} | {r.callee_class for r in calls}
    directed = {(r.caller_class, r.callee_class) for r in calls
                if r.caller_class != r.callee_class}
    undirected = {tuple(sorted(e)) for e in directed}
    non_isolated = sorted({c for e in directed for c in e})
    return {
        "call_rows": rows,
        "records.dup_row_share": 1.0 - len(set(calls)) / rows,
        "cost_model.distinct_param_share": len({r.callee_params for r in calls}) / rows,
        "classes": len(classes),
        "class_edges": len(directed),
        "avg_degree": 2.0 * len(undirected) / len(classes),
        "non_isolated": non_isolated,
    }


def _generate(workload: str, seed: int, scale: str, out: Path) -> None:
    spec_args = dict(SPECS[scale][workload], seed=seed)
    if workload in DUPLICATED:
        rng = np.random.default_rng([seed, 1])
        catalog, names = type_catalog(rng)
        (out / "catalog.txt").write_text(catalog, encoding="utf-8")
        spec_args["param_pool"] = tuple(names) + PRIMITIVE_PARAMS
    calls, perf, truth = generate_system(SynthSpec(**spec_args))
    if workload in DUPLICATED:
        calls = repeat_rows(calls, rng)
    write_call_log(calls, out / "calls.csv")
    write_perf_log(perf, out / "perf.csv")
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True) + "\n", encoding="utf-8")
    props = input_properties(calls)
    props.update(workload=workload, seed=seed, scale=scale, n_blocks=spec_args["n_blocks"])
    (out / "fixture.json").write_text(json.dumps(props, sort_keys=True) + "\n",
                                      encoding="utf-8")


def build(workload: str, seed: int, scale: str, cache: Path) -> tuple[Path, dict]:
    """Directory of the (workload, seed, scale) fixture and its properties,
    generating it on first use."""
    final = cache / f"{workload}-{scale}-s{seed}"
    if not (final / "fixture.json").is_file():
        tmp = cache / f".{final.name}.{os.getpid()}.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        _generate(workload, seed, scale, tmp)
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
    return final, json.loads((final / "fixture.json").read_text(encoding="utf-8"))
