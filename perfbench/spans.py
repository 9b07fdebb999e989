"""Spans around calls into servicecut's public functions, installed from
outside the program.

Each traced function is replaced by a wrapper at every module attribute of
the ``servicecut`` package that binds it, so calls made through any import
path are seen (``kmeans`` is reached as both ``servicecut.pipeline.kmeans``
and ``servicecut.spectral.kmeans``). A span is ``[id, parent, name, start,
end]`` with times in seconds from ``time.perf_counter``; spans stay in memory
until the operation ends. Some wrappers also record counts from the call's
arguments and result, at the boundary where the work happens.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

import numpy as np

#: span name -> (module, function). The root span ``cli.main`` is opened by
#: the caller around the whole operation.
TRACED = {
    "records.parse_call_log": ("servicecut.records", "parse_call_log"),
    "records.parse_perf_log": ("servicecut.records", "parse_perf_log"),
    "records.parse_type_catalog": ("servicecut.records", "parse_type_catalog"),
    "cost_model.edge_cost": ("servicecut.cost_model", "edge_cost"),
    "feature_graph.build_method_graph": ("servicecut.feature_graph", "build_method_graph"),
    "feature_graph.lift_to_classes": ("servicecut.feature_graph", "lift_to_classes"),
    "feature_graph.attach_perf": ("servicecut.feature_graph", "attach_perf"),
    "feature_graph.fuse": ("servicecut.feature_graph", "fuse"),
    "feature_graph.to_affinity": ("servicecut.feature_graph", "to_affinity"),
    "spectral.build_laplacian": ("servicecut.spectral", "build_laplacian"),
    "spectral.eigensolve": ("servicecut.spectral", "full_spectrum"),
    "spectral.embedding_from_spectrum": ("servicecut.spectral", "embedding_from_spectrum"),
    "spectral.embed": ("servicecut.spectral", "embed"),
    "spectral.extract_candidates": ("servicecut.spectral", "extract_candidates"),
    "spectral.kmeans": ("servicecut.spectral", "kmeans"),
    "spectral.canonicalize": ("servicecut.spectral", "canonicalize"),
    "metrics.mq": ("servicecut.metrics", "mq"),
    "metrics.mqw": ("servicecut.metrics", "mqw"),
    "metrics.cut_value": ("servicecut.metrics", "cut_value"),
    "metrics.score": ("servicecut.metrics", "score"),
    "pipeline.build_mode_graph": ("servicecut.pipeline", "build_mode_graph"),
    "pipeline.run_pipeline": ("servicecut.pipeline", "run_pipeline"),
    "pipeline.sweep": ("servicecut.pipeline", "sweep"),
    "pipeline.sweep_graph": ("servicecut.pipeline", "sweep_graph"),
}


class Tracer:
    """Span recorder for one operation in one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self.hook_errors: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        # eigenpairs of each solve, kept until the operation ends so their
        # residuals are checked outside every span: [L, values, vectors, k used]
        self._solves: list[list] = []
        self._hooks = {
            "feature_graph.build_method_graph": self._method_graph,
            "feature_graph.lift_to_classes": self._class_graph,
            "feature_graph.to_affinity": self._affinity,
            "spectral.eigensolve": self._eigensolve,
            "spectral.embedding_from_spectrum": self._embedding,
            "metrics.cut_value": self._cut,
        }

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append([sid, parent, name, start, end])
        hook = self._hooks.get(name)
        if hook is not None:
            # a count that no longer fits the program's signatures is
            # reported, never allowed to fail the operation
            try:
                hook(args, result)
            except Exception as exc:  # noqa: BLE001
                self.hook_errors.append(f"{name}: {exc!r}")
        return result

    def install(self) -> None:
        """Wrap every function of TRACED wherever a servicecut module binds
        it. A name the program no longer defines is recorded as missing."""
        for name, (module_name, attr) in TRACED.items():
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "servicecut" or mod_name.startswith("servicecut.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def finish(self) -> None:
        """Check the residual of every eigenpair the operation used."""
        worst, used = 0.0, 0
        for L, values, vectors, k in self._solves:
            if k:
                U = vectors[:, :k]
                worst = max(worst, float(np.linalg.norm(L @ U - U * values[:k], axis=0).max()))
                used += k
        self._solves.clear()
        self.counts["spectral.max_residual"] = worst
        self.counts["spectral.eigenpairs_used"] = used

    # --- counts at layer boundaries ---------------------------------------

    def _method_graph(self, args, g) -> None:
        self.counts["feature_graph.method_edges"] = len(g.edges)

    def _class_graph(self, args, g) -> None:
        self.counts["feature_graph.class_vertices"] = len(g.vertices)
        self.counts["feature_graph.class_edges"] = len(g.edges)

    def _affinity(self, args, W) -> None:
        n = len(W.vertex_ids)
        self.counts["feature_graph.isolated"] = (
            self.counts.get("feature_graph.class_vertices", n) - n)
        self.counts["feature_graph.affinity_bytes"] = 8 * n * n

    def _eigensolve(self, args, result) -> None:
        values, vectors = result
        self.counts["spectral.eigenpairs_computed"] = (
            self.counts.get("spectral.eigenpairs_computed", 0) + len(values))
        self._solves.append([args[0].matrix, values, vectors, 0])

    def _embedding(self, args, emb) -> None:
        k = emb.U.shape[1]
        for solve in self._solves:
            if solve[2] is args[1]:
                solve[3] = max(solve[3], k)

    def _cut(self, args, total) -> None:
        n = len(args[0].labels)
        self.counts["metrics.cut_pairs"] = self.counts.get("metrics.cut_pairs", 0) + n * (n - 1) // 2
