"""servicecut: microservice candidate extraction via spectral graph
partitioning of fused call/performance feature graphs."""

from .cost_model import SizeModel, api_estimate, edge_cost
from .feature_graph import FeatureGraph, build_class_graph, to_affinity
from .metrics import QualityReport, score
from .oracle import brute_force_best
from .pipeline import PipelineInputs, SweepResult, partition_accuracy, run_pipeline, sweep
from .records import (
    CallRecord,
    LogParseError,
    PerfRecord,
    TypeCatalog,
    TypeRef,
    parse_call_log,
    parse_perf_log,
    parse_type_catalog,
)
from .spectral import (
    Embedding,
    NumericError,
    Partition,
    build_laplacian,
    embed,
    extract_candidates,
    kmeans,
)
from .synth import SynthSpec, generate_system, synth_generate

__version__ = "0.1.0"

__all__ = [
    "CallRecord",
    "Embedding",
    "FeatureGraph",
    "LogParseError",
    "NumericError",
    "Partition",
    "PerfRecord",
    "PipelineInputs",
    "QualityReport",
    "SizeModel",
    "SweepResult",
    "SynthSpec",
    "TypeCatalog",
    "TypeRef",
    "api_estimate",
    "brute_force_best",
    "build_class_graph",
    "build_laplacian",
    "edge_cost",
    "embed",
    "extract_candidates",
    "generate_system",
    "kmeans",
    "parse_call_log",
    "parse_perf_log",
    "parse_type_catalog",
    "partition_accuracy",
    "run_pipeline",
    "score",
    "sweep",
    "synth_generate",
    "to_affinity",
]
