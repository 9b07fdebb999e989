"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from pathlib import Path

import click

from . import feature_graph as fg
from .cost_model import SizeModel
from .oracle import MAX_VERTICES, brute_force_best
from .pipeline import (
    DEFAULT_MODES,
    MODES,
    PipelineInputs,
    run_pipeline,
    sweep,
    write_sweep_outputs,
)
from .records import PRIMITIVE_SIZES, ArgumentError, write_json
from .spectral import NumericError, candidates
from .synth import SynthSpec, synth_generate

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_SIZE_MODEL_FIELDS = {f.name for f in dataclasses.fields(SizeModel)}

#: The --seed of evaluate and synth: NumPy seeds its generators from
#: non-negative integers only. sweep's derived epoch seeds keep 63 bits.
_SEED = click.IntRange(min=0)


def _parse_size_model(pairs: tuple[str, ...]) -> SizeModel:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise click.UsageError(f"--size-model expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        if key not in _SIZE_MODEL_FIELDS:
            raise click.UsageError(
                f"--size-model: unknown field {key!r}; choose from {sorted(_SIZE_MODEL_FIELDS)}")
        try:
            overrides[key] = int(value)
        except ValueError:
            raise click.UsageError(
                f"--size-model {key} expects an integer, got {value!r}") from None
    try:
        return SizeModel(**overrides)
    except ValueError as exc:
        raise click.UsageError(f"--size-model: {exc}") from exc


def _inputs(command):
    """Give ``command`` the five input options; it receives the
    ``PipelineInputs`` they name as ``inputs``. --size-model is parsed
    first, so a bad model is a usage error before any log is read."""

    @functools.wraps(command)
    def fn(calls_path, perf_path, catalog_path, size_model, raw_attrs, **kwargs):
        model = _parse_size_model(size_model)
        return command(PipelineInputs.load(calls_path, perf_path, catalog_path, model,
                                           not raw_attrs), **kwargs)

    fn = click.option("--calls", "calls_path", required=True,
                      type=click.Path(dir_okay=False), help="Call log CSV.")(fn)
    fn = click.option("--perf", "perf_path", default=None,
                      type=click.Path(dir_okay=False), help="Perf log CSV.")(fn)
    fn = click.option("--type-catalog", "catalog_path", default=None,
                      type=click.Path(dir_okay=False),
                      help="Type catalog file; omit for primitives only.")(fn)
    fn = click.option("--size-model", "size_model", multiple=True, metavar="KEY=VALUE",
                      help="Override cost-model fields, e.g. --size-model ref_slot=8.")(fn)
    fn = click.option("--raw-attrs", is_flag=True,
                      help="Use raw cpu/retained values instead of [0,1] normalization.")(fn)
    return fn


@click.group()
def cli():
    """Extract microservice candidates from call and performance logs."""


@cli.command("ingest-check")
@_inputs
def ingest_check(inputs):
    """Parse inputs and report counts; fail loudly on malformed data."""
    click.echo(f"call records: {inputs.call_rows} ({inputs.self_calls} self-call)")
    click.echo(f"perf records: {inputs.perf_rows}")
    click.echo(f"classes:      {len(inputs.graph.vertices)}")
    click.echo(f"types:        {len(PRIMITIVE_SIZES) + len(inputs.catalog.layouts)}")


@cli.command("build-graph")
@_inputs
@click.option("--mode", type=click.Choice(MODES), default="fusion", show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def build_graph(inputs, mode, out_dir):
    """Build the class-level feature graph and export it."""
    g = inputs.mode_graph(mode)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fg.write_edge_list(g, out / "graph_edges.csv")
    write_json(fg.graph_to_json(g, None if mode == "static" else inputs.attrs),
               out / "graph.json")
    if inputs.core.vertices:
        fg.write_affinity_csv(inputs.mode_core(mode), out / "affinity.csv")
    click.echo(f"wrote graph exports to {out}")


@cli.command("evaluate")
@_inputs
@click.option("--mode", type=click.Choice(MODES), default="fusion", show_default=True)
@click.option("--k", type=click.IntRange(min=2), required=True)
@click.option("--seed", type=_SEED, default=0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
def evaluate(inputs, mode, k, seed, out_dir, fmt):
    """Cluster and score: writes partition plus a quality report."""
    inputs.check_k(k, "--k")
    labels, report = run_pipeline(inputs, mode, k, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json({"k": k, "candidates": candidates(inputs.core.vertices, labels, k), "seed": seed,
                "unassigned": sorted(inputs.isolated)}, out / "partition.json")
    if fmt == "csv":
        (out / "report.csv").write_text(report.to_csv(), encoding="utf-8")
    else:
        write_json(report.to_json(), out / "report.json")
    click.echo(f"MQ={report.mq:.4f} MQw={report.mqw:.4f} cut={report.cut:.2f}")


@cli.command("sweep")
@_inputs
@click.option("--modes", default=",".join(DEFAULT_MODES), show_default=True,
              help="Comma-separated subset of static,fusion,dynamic.")
@click.option("--k-min", type=click.IntRange(min=2), default=2, show_default=True)
@click.option("--k-max", type=click.IntRange(min=2), default=10, show_default=True)
@click.option("--epochs", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--seed", "base_seed", type=click.IntRange(0, 2 ** 63 - 1), default=0,
              show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def sweep_cmd(inputs, modes, k_min, k_max, epochs, base_seed, out_dir):
    """Run the k-sweep / epoch / median protocol and write sweep tables."""
    mode_list = tuple(m.strip() for m in modes.split(",") if m.strip())
    inputs.check_k(k_max, "--k-max")
    result = sweep(inputs, mode_list, k_min, k_max, epochs, base_seed)
    write_sweep_outputs(result, out_dir)
    for mode, k in sorted(result.best_k.items()):
        click.echo(f"{mode}: best k = {k} (median MQw {result.medians[(mode, k)]:.4f})")


@cli.command("synth")
@click.option("--n-classes", type=click.IntRange(min=1), required=True)
@click.option("--n-blocks", type=click.IntRange(min=1), required=True)
@click.option("--intra", "intra_call_prob", type=click.FloatRange(0, 1), default=0.3,
              show_default=True)
@click.option("--inter", "inter_call_prob", type=click.FloatRange(0, 1), default=0.02,
              show_default=True)
@click.option("--block-correlated-perf", is_flag=True,
              help="Make perf attributes correlate with the planted blocks.")
@click.option("--seed", type=_SEED, default=0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def synth(out_dir, **spec):
    """Generate a synthetic legacy system with a planted block structure."""
    calls_path, perf_path, truth_path = synth_generate(SynthSpec(**spec), out_dir)
    click.echo(f"wrote {calls_path}, {perf_path}, {truth_path}")


@cli.command("oracle")
@_inputs
@click.option("--mode", type=click.Choice(MODES), default="static", show_default=True)
@click.option("--k", type=click.IntRange(min=1), required=True)
@click.option("--objective", type=click.Choice(["mqw", "cut"]), default="mqw",
              show_default=True)
def oracle_cmd(inputs, mode, k, objective):
    """Exhaustive best partition of a small system (<= 10 classes)."""
    if inputs.check_k(k, "--k") > MAX_VERTICES:
        raise ValueError(f"--calls: more than {MAX_VERTICES} non-isolated classes for the oracle")
    labels, value = brute_force_best(inputs.mode_core(mode), k, objective)
    click.echo(json.dumps({"objective": objective, "value": value, "k": k,
                           "candidates": candidates(inputs.core.vertices, labels, k),
                           "unassigned": sorted(inputs.isolated)}, sort_keys=True))


#: library parameter name -> the flag that sets it, to name in an ArgumentError
_FLAGS = {p.name: p.opts[0] for c in cli.commands.values() for p in c.params}


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, prog_name="servicecut", standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except click.Abort:
        return EXIT_USAGE
    except OverflowError as exc:
        # only raw perf values or catalog and size-model sizes make weights this large
        click.echo(f"data error: {exc}; the weights come from the --type-catalog and "
                   "--size-model sizes and, with --raw-attrs, the --perf values", err=True)
        return EXIT_DATA
    except ArgumentError as exc:
        click.echo(f"Error: {_FLAGS.get(exc.param, exc.param)}: {exc}", err=True)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        click.echo(f"data error: {exc}", err=True)
        return EXIT_DATA
    except NumericError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        return EXIT_NUMERIC
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
