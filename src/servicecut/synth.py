"""Synthetic legacy-system generator: planted-partition call graphs with
per-class performance attributes and a ground-truth block assignment.

Each block gets a deterministic intra-block call ring so blocks are always
connected; extra intra- and inter-block calls are sampled independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .records import (
    ArgumentError,
    CallRecord,
    PerfRecord,
    TypeRef,
    write_call_log,
    write_json,
    write_perf_log,
)

DEFAULT_PARAM_POOL = ("int", "long", "double", "boolean", "String", "int[]", "byte[]")
METHODS_PER_CLASS = 3
CPU_RANGE = (10.0, 500.0)  # ms
RETAINED_RANGE = (16_384.0, 8_388_608.0)  # bytes


@dataclass(frozen=True)
class SynthSpec:
    n_classes: int
    n_blocks: int
    intra_call_prob: float = 0.3
    inter_call_prob: float = 0.02
    param_pool: tuple[str, ...] = DEFAULT_PARAM_POOL
    max_params: int = 3
    block_correlated_perf: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("intra_call_prob", "inter_call_prob"):
            if not 0 <= (p := getattr(self, name)) <= 1:  # NaN fails it too
                raise ArgumentError(f"{name}={p!r} must be in [0, 1]", name)
        if not 1 <= self.n_blocks <= self.n_classes:
            raise ArgumentError(f"n_blocks={self.n_blocks} must be in "
                                f"[1, n_classes={self.n_classes}]", "n_blocks")


def class_name(i: int) -> str:
    return f"C{i:03d}"


def ground_truth_blocks(spec: SynthSpec) -> dict[str, int]:
    """Contiguous block assignment: class i belongs to block i*B//n."""
    return {
        class_name(i): i * spec.n_blocks // spec.n_classes
        for i in range(spec.n_classes)
    }


def generate_system(spec: SynthSpec) -> tuple[list[CallRecord], list[PerfRecord], dict[str, int]]:
    rng = np.random.default_rng(spec.seed)
    truth = ground_truth_blocks(spec)
    classes = sorted(truth)
    by_block: dict[int, list[str]] = {}
    for c, b in truth.items():
        by_block.setdefault(b, []).append(c)

    def random_params(r) -> tuple[TypeRef, ...]:
        count = int(r.integers(0, spec.max_params + 1))
        return tuple(
            TypeRef.parse(spec.param_pool[int(r.integers(len(spec.param_pool)))])
            for _ in range(count)
        )

    def make_call(ci: str, cj: str) -> CallRecord:
        mi = f"m{int(rng.integers(METHODS_PER_CLASS))}"
        mj = f"m{int(rng.integers(METHODS_PER_CLASS))}"
        return CallRecord(mi, mj, ci, cj, random_params(rng), random_params(rng))

    calls: list[CallRecord] = []
    # backbone inside each block: a ring keeps the block connected, and the
    # first class acts as a facade calling every member, so blocks do not
    # fall apart along accidental sparse internal cuts
    for members in by_block.values():
        if len(members) < 2:
            continue
        for a, b in zip(members, members[1:] + members[:1]):
            calls.append(make_call(a, b))
        hub = members[0]
        for other in members[1:]:
            calls.append(make_call(hub, other))
    # random extra calls, one Bernoulli draw per ordered class pair
    for ci in classes:
        for cj in classes:
            if ci == cj:
                continue
            p = spec.intra_call_prob if truth[ci] == truth[cj] else spec.inter_call_prob
            if rng.random() < p:
                calls.append(make_call(ci, cj))

    perf: list[PerfRecord] = []
    cpu_lo, cpu_hi = CPU_RANGE
    ret_lo, ret_hi = RETAINED_RANGE
    for c in classes:
        if spec.block_correlated_perf:
            # all classes of a block share a level, plus mild noise; levels
            # sit in the upper half of the range so every class is "hot"
            # relative to the normalization maximum
            level = 0.5 + 0.5 * (truth[c] + 0.5) / spec.n_blocks
            jitter = 1.0 + 0.1 * (rng.random() - 0.5)
            cpu = (cpu_lo + level * (cpu_hi - cpu_lo)) * jitter
            ret = (ret_lo + level * (ret_hi - ret_lo)) * jitter
        else:
            cpu = cpu_lo + rng.random() * (cpu_hi - cpu_lo)
            ret = ret_lo + rng.random() * (ret_hi - ret_lo)
        perf.append(PerfRecord(c, round(cpu, 3), round(ret, 3)))

    return calls, perf, truth


def synth_generate(spec: SynthSpec, out_dir: str | Path) -> tuple[Path, Path, Path]:
    """Write calls.csv, perf.csv, and truth.json to ``out_dir``. Output is
    byte-identical for a fixed spec."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    calls, perf, truth = generate_system(spec)
    calls_path = out / "calls.csv"
    perf_path = out / "perf.csv"
    truth_path = out / "truth.json"
    write_call_log(calls, calls_path)
    write_perf_log(perf, perf_path)
    blocks: list[list[str]] = [[] for _ in range(spec.n_blocks)]
    for c in sorted(truth):
        blocks[truth[c]].append(c)
    write_json({"n_blocks": spec.n_blocks, "blocks": blocks}, truth_path)
    return calls_path, perf_path, truth_path
