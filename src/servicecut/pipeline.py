"""End-to-end orchestration: single pipeline runs, the k-sweep / epoch /
median protocol, mode handling (static, fusion, dynamic), and derived epoch
seeding so epochs can run in any order with unchanged results."""

from __future__ import annotations

import hashlib
import logging
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .cost_model import SizeModel
from .feature_graph import CallTable, FeatureGraph, collect_calls, split_core, weigh_calls
from .metrics import QualityReport, batch_scores, score
from .records import (
    PRIMITIVE_SIZES,
    ArgumentError,
    PerfRecord,
    TypeCatalog,
    parse_call_log,
    parse_perf_log,
    parse_type_catalog,
    write_json,
)
from .spectral import embed, extract_candidates, first_occurrence, kmeans

log = logging.getLogger(__name__)

MODES = ("static", "fusion", "dynamic")
DEFAULT_MODES = ("static", "fusion")  # dynamic-only is behind a flag


def epoch_seed(base_seed: int, mode: str, k: int, epoch: int) -> int:
    """Derived (not sequential) seeding: stable under reordering and
    parallelism of (mode, k, epoch) triples. Only the low 63 bits of
    ``base_seed`` count, so ``sweep`` takes base seeds below 2**63."""
    digest = hashlib.blake2b(f"{mode}:{k}:{epoch}".encode(), digest_size=8).digest()
    return (base_seed ^ int.from_bytes(digest, "big")) & 0x7FFF_FFFF_FFFF_FFFF


def mode_weights(g: FeatureGraph, attrs: np.ndarray, mode: str) -> np.ndarray:
    """The mode's weights over the edges of ``g``, given the (n, 2) perf
    ``attrs`` of its vertices: with f = t + r + 1 per vertex, static keeps
    w, fusion takes w * f[dst] and dynamic f[dst]."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "static":
        return g.weight
    with np.errstate(over="ignore"):  # reported just below
        f = attrs[:, 0] + attrs[:, 1] + 1.0
        weight = g.weight * f[g.dst] if mode == "fusion" else f[g.dst]
    if np.isinf(weight).any():
        pair = g.pair(np.isinf(weight).argmax())
        raise OverflowError(f"fused weight of {pair!r} overflows float64")
    return weight


class PipelineInputs:
    """The one ingest report, and the one place a run logs: it warns of the
    dropped self-calls, then of perf rows with no graph vertex, and keeps
    only what the commands print or write. That is the class graph; its
    core, without the ``isolated`` vertices (a sorted list); the (n, 2)
    perf ``attrs`` of the vertices, (cpu_time, retained) rows, (0, 0)
    without a perf row and, with ``normalize``, each column divided by its
    maximum when positive; and the counts ``call_rows``, ``self_calls``,
    ``perf_rows`` and ``types`` (primitives plus declared layouts)."""

    call_rows: int
    perf_rows: int
    self_calls: int
    types: int
    graph: FeatureGraph
    core: FeatureGraph
    isolated: list[str]
    attrs: np.ndarray

    def __init__(self, calls: CallTable, perf: list[PerfRecord], catalog: TypeCatalog,
                 model: SizeModel = SizeModel(), normalize: bool = True):
        self.call_rows, self.perf_rows, self.self_calls = calls.rows, len(perf), calls.self_calls
        self.types = len(PRIMITIVE_SIZES) + len(catalog.layouts)
        if self.self_calls:
            log.warning("dropped %d self-call record(s)", self.self_calls)
        self.graph = weigh_calls(calls, catalog, model)
        self.core, self.isolated = split_core(self.graph)
        index = {v: i for i, v in enumerate(self.graph.vertices)}
        self.attrs = np.zeros((len(index), 2))
        for r in perf:
            if r.class_id in index:
                self.attrs[index[r.class_id]] = r.cpu_time, r.retained_bytes
        if unknown := [r.class_id for r in perf if r.class_id not in index]:
            log.warning("perf record for %r has no call-graph vertex; ignored (%d such records)",
                        unknown[0], len(unknown))
        if normalize:
            top = self.attrs.max(axis=0, initial=0.0)
            self.attrs = np.divide(self.attrs, top, out=np.zeros_like(self.attrs),
                                   where=top > 0)

    @classmethod
    def load(cls, calls_path, perf_path=None, catalog_path=None,
             model: SizeModel = SizeModel(), normalize: bool = True) -> "PipelineInputs":
        """Read the call log in one pass, then the perf log, then the
        catalog: a bad input set reports the first bad file in that order,
        and an overflowing weight only when all three parse."""
        return cls(
            calls=collect_calls(parse_call_log(calls_path)),
            perf=parse_perf_log(perf_path) if perf_path else [],
            catalog=parse_type_catalog(catalog_path),
            model=model,
            normalize=normalize,
        )

    def check_k(self, k: int, name: str) -> int:
        """The count of the core's vertices, the classes every mode clusters;
        a ValueError naming ``name`` if ``k`` exceeds it."""
        n = len(self.core.vertices)
        if k > n:
            raise ValueError(f"{name} {k} exceeds the {n} non-isolated class vertices")
        return n

    def mode_graph(self, mode: str) -> FeatureGraph:
        """The class graph with the mode's weights."""
        return replace(self.graph, weight=mode_weights(self.graph, self.attrs, mode))

    def mode_core(self, mode: str) -> FeatureGraph:
        """The core with the mode's weights: the core keeps the graph's sorted edges."""
        return replace(self.core, weight=mode_weights(self.graph, self.attrs, mode))


def run_pipeline(
    inputs: PipelineInputs,
    mode: str,
    k: int,
    seed: int,
) -> tuple[np.ndarray, QualityReport]:
    """The (n,) labels over ``inputs.core.vertices`` of one seeded run, and their report."""
    core = inputs.mode_core(mode)
    labels = extract_candidates(core, k, seed)
    return labels, score(labels, k, core, mode)


@dataclass
class SweepResult:
    modes: tuple[str, ...]
    k_range: tuple[int, int]
    epochs: int
    base_seed: int
    epoch_values: dict[tuple[str, int], list[float]] = field(default_factory=dict)

    @property
    def medians(self) -> dict[tuple[str, int], float]:
        return {key: statistics.median(v) for key, v in self.epoch_values.items()}

    @property
    def best_k(self) -> dict[str, int]:
        medians, ks = self.medians, range(self.k_range[0], self.k_range[1] + 1)
        return {mode: max(ks, key=lambda k: (medians[(mode, k)], -k)) for mode in self.modes}

    def to_json(self) -> dict:
        return {
            "modes": list(self.modes),
            "k_min": self.k_range[0],
            "k_max": self.k_range[1],
            "epochs": self.epochs,
            "base_seed": self.base_seed,
            "epoch_values": {
                f"{mode},{k}": values
                for (mode, k), values in sorted(self.epoch_values.items())
            },
            "medians": {f"{mode},{k}": m for (mode, k), m in sorted(self.medians.items())},
            "best_k": self.best_k,
        }

    def to_csv(self) -> str:
        lines = ["mode,k,median_mqw"]
        for (mode, k), m in sorted(self.medians.items()):
            lines.append(f"{mode},{k},{m!r}")
        return "\n".join(lines) + "\n"


def sweep_graph(
    g: FeatureGraph,
    mode: str,
    k_min: int,
    k_max: int,
    epochs: int,
    base_seed: int,
) -> dict[tuple[str, int], list[float]]:
    """Sweep one mode's core (a graph without isolated vertices, see
    ``split_core``) over k. The k_max-column embedding is computed once;
    each k runs one seeded k-means call, with all its epochs' seeds, on the
    first k columns, and scores the MQw of each distinct labeling among its
    epochs at once: a row's MQw depends on that row alone. Clusters are
    renumbered by first occurrence, which is smallest-vertex-id order
    because the rows follow the sorted vertex ids."""
    emb = embed(g, k_max)
    out: dict[tuple[str, int], list[float]] = {}
    for k in range(k_min, k_max + 1):
        U = emb.U[:, :k].copy()
        raw = kmeans(U, k, [epoch_seed(base_seed, mode, k, epoch) for epoch in range(epochs)])
        labels, inverse = np.unique(first_occurrence(raw, k), axis=0, return_inverse=True)
        # the inverse's shape differs across NumPy 2.x releases
        out[(mode, k)] = batch_scores(labels, k, g)[0][inverse.ravel()].tolist()
    return out


def sweep(
    inputs: PipelineInputs,
    modes: tuple[str, ...] = DEFAULT_MODES,
    k_min: int = 2,
    k_max: int = 10,
    epochs: int = 100,
    base_seed: int = 0,
) -> SweepResult:
    if not modes:
        raise ArgumentError("modes names no mode", "modes")
    if len(set(modes)) < len(modes):
        raise ArgumentError(f"modes names a mode twice: {modes!r}", "modes")
    if unknown := set(modes) - set(MODES):
        raise ArgumentError(f"unknown mode {min(unknown)!r}; expected one of {MODES}", "modes")
    if not 2 <= k_min <= k_max:
        raise ArgumentError(f"k_min={k_min} must be in [2, k_max={k_max}]", "k_min")
    if epochs < 1:
        raise ArgumentError(f"epochs={epochs} must be at least 1", "epochs")
    if not 0 <= base_seed < 2 ** 63:
        raise ArgumentError(f"base_seed={base_seed} must be in [0, 2**63)", "base_seed")
    result = SweepResult(tuple(modes), (k_min, k_max), epochs, base_seed)
    for mode in modes:
        core = inputs.mode_core(mode)
        result.epoch_values.update(sweep_graph(core, mode, k_min, k_max, epochs, base_seed))
    return result


def write_sweep_outputs(result: SweepResult, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.csv").write_text(result.to_csv(), encoding="utf-8")
    write_json(result.to_json(), out / "sweep.json")


def partition_accuracy(pred: dict[str, int], truth: dict[str, int]) -> float:
    """Fraction of vertices correctly assigned under the best matching of
    predicted clusters to ground-truth blocks."""
    # imported here: no command calls this, and scipy.optimize is a third of
    # the CLI's import time
    from scipy.optimize import linear_sum_assignment

    keys = sorted(set(pred) & set(truth))
    if not keys:
        return 0.0
    _, p = np.unique([pred[v] for v in keys], return_inverse=True)
    _, t = np.unique([truth[v] for v in keys], return_inverse=True)
    confusion = np.zeros((p.max() + 1, t.max() + 1))
    np.add.at(confusion, (p, t), 1)
    rows, cols = linear_sum_assignment(-confusion)
    return float(confusion[rows, cols].sum()) / len(keys)
