import ast
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import servicecut
from servicecut import cli, feature_graph, pipeline, spectral
from servicecut.cli import main
from servicecut.records import ArgumentError
from servicecut.synth import SynthSpec
from test_golden_exports import CI_CATALOG


def run(*args):
    return main(list(args))


def synth_system(tmp_path, **overrides):
    args = {
        "--n-classes": "12", "--n-blocks": "2", "--intra": "0.5",
        "--inter": "0.05", "--seed": "1", "--out": str(tmp_path / "sys"),
    }
    args.update(overrides)
    argv = ["synth"]
    for key, value in args.items():
        argv += [key, value]
    assert run(*argv) == 0
    return tmp_path / "sys"


def test_synth_and_ingest_check(tmp_path, capsys):
    sysdir = synth_system(tmp_path)
    calls = sysdir / "calls.csv"
    with open(calls, "a") as fh:
        fh.write("log,log,Audit,Audit,,int\n")  # a self-call, and a 13th class
    inputs = ["--calls", str(calls), "--perf", str(sysdir / "perf.csv")]
    capsys.readouterr()
    assert run("ingest-check", *inputs) == 0
    expected = (
        "call records: 60 (1 self-call)\n"
        "perf records: 12\n"
        "classes:      13\n"
        "types:        8\n"
    )
    assert capsys.readouterr().out == expected
    # an object, an object holding it, a cyclic object and an opaque type
    catalog = tmp_path / "types.txt"
    catalog.write_text(CI_CATALOG)
    assert run("ingest-check", *inputs, "--type-catalog", str(catalog)) == 0
    assert capsys.readouterr().out == expected.replace("types:        8", "types:        12")
    assert run("evaluate", *inputs, "--type-catalog", str(catalog), "--k", "3",
               "--out", str(tmp_path / "run")) == 0
    # the call log streams: its data rows 10 times over, under one header, are
    # 10 times the records and the same classes
    header, *rows = calls.read_bytes().splitlines(keepends=True)
    assert len(rows) == 60
    (tmp_path / "x10.csv").write_bytes(header + b"".join(rows) * 10)
    capsys.readouterr()
    assert run("ingest-check", "--calls", str(tmp_path / "x10.csv")) == 0
    assert capsys.readouterr().out == (
        "call records: 600 (10 self-call)\n"
        "perf records: 0\n"
        "classes:      13\n"
        "types:        8\n"
    )


def test_build_graph_exports(tmp_path):
    sysdir = synth_system(tmp_path)
    out = tmp_path / "graph"
    assert run("build-graph", "--calls", str(sysdir / "calls.csv"),
               "--perf", str(sysdir / "perf.csv"), "--mode", "fusion",
               "--out", str(out)) == 0
    assert (out / "graph.json").exists()
    assert (out / "graph_edges.csv").exists()
    assert (out / "affinity.csv").exists()


def test_cluster_and_evaluate(tmp_path):
    sysdir = synth_system(tmp_path)
    out = tmp_path / "run"
    assert run("evaluate", "--calls", str(sysdir / "calls.csv"),
               "--perf", str(sysdir / "perf.csv"), "--mode", "static",
               "--k", "2", "--seed", "3", "--out", str(out)) == 0
    partition = json.loads((out / "partition.json").read_text())
    assert partition["k"] == 2
    assert partition["seed"] == 3
    report = json.loads((out / "report.json").read_text())
    assert -1.0 <= report["MQw"] <= 1.0
    raw = tmp_path / "raw"
    assert run("evaluate", "--calls", str(sysdir / "calls.csv"),
               "--perf", str(sysdir / "perf.csv"), "--mode", "dynamic", "--raw-attrs",
               "--k", "2", "--out", str(raw)) == 0
    assert json.loads((raw / "report.json").read_text())["mode"] == "dynamic"


def test_disconnected_blocks_above_the_dense_threshold_are_the_candidates(tmp_path,
                                                                          monkeypatch):
    # 12 disconnected blocks above the dense threshold: Lanczos misses copies
    # of eigenvalue 0, the kernel check sends evaluate to the dense solve, and
    # every candidate is exactly one planted block
    sysdir = synth_system(tmp_path, **{"--n-classes": "1200", "--n-blocks": "12",
                                       "--intra": "0.1", "--inter": "0", "--seed": "7"})
    check, outcomes = spectral._check_kernel, []

    def check_kernel(L, emb):
        try:
            check(L, emb)
        except spectral.NumericError:
            outcomes.append("refused")
            raise
        outcomes.append("passed")

    monkeypatch.setattr(spectral, "_check_kernel", check_kernel)
    out = tmp_path / "run"
    assert run("evaluate", "--calls", str(sysdir / "calls.csv"),
               "--perf", str(sysdir / "perf.csv"), "--k", "12", "--out", str(out)) == 0
    assert outcomes == ["refused"]
    partition = json.loads((out / "partition.json").read_text())
    truth = json.loads((sysdir / "truth.json").read_text())
    assert sorted(map(sorted, partition["candidates"])) == sorted(map(sorted, truth["blocks"]))

def test_evaluate_csv_format(tmp_path):
    sysdir = synth_system(tmp_path)
    out = tmp_path / "run"
    assert run("evaluate", "--calls", str(sysdir / "calls.csv"),
               "--k", "2", "--out", str(out), "--format", "csv") == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "mode,k,coh_w,cop_w,MQw,MQ,cut"
    assert len(lines) == 2
    assert not (out / "report.json").exists()


def test_sweep_byte_identical_outputs(tmp_path):
    sysdir = synth_system(tmp_path)
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert run("sweep", "--calls", str(sysdir / "calls.csv"),
                   "--perf", str(sysdir / "perf.csv"),
                   "--k-min", "2", "--k-max", "4", "--epochs", "3",
                   "--seed", "11", "--out", str(out)) == 0
        outs.append(out)
    assert (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()
    assert (outs[0] / "sweep.json").read_bytes() == (outs[1] / "sweep.json").read_bytes()


def test_oracle_command(tmp_path, capsys):
    sysdir = synth_system(tmp_path, **{"--n-classes": "8"})
    with open(sysdir / "calls.csv", newline="") as fh:
        classes = sorted({c for row in list(csv.reader(fh))[1:] for c in row[2:4]})
    docs = {}
    for objective in ("mqw", "cut"):
        capsys.readouterr()  # discard earlier output
        assert run("oracle", "--calls", str(sysdir / "calls.csv"),
                   "--k", "2", "--objective", objective) == 0
        doc = docs[objective] = json.loads(capsys.readouterr().out)
        assert doc["objective"] == objective
        # the candidates and the unassigned classes hold every class once
        assert sorted(sum(doc["candidates"], doc["unassigned"])) == classes
    assert docs["cut"]["value"] >= 0


def test_isolated_vertices_reported_unassigned(tmp_path, capsys):
    # a class seen only in a self-call is isolated: left out of the
    # candidates, listed under unassigned
    sysdir = synth_system(tmp_path, **{"--n-classes": "8"})
    with open(sysdir / "calls.csv", "a", encoding="utf-8") as fh:
        fh.write("log,log,Audit,Audit,,int\n")
    capsys.readouterr()  # discard synth output
    assert run("oracle", "--calls", str(sysdir / "calls.csv"), "--k", "2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert "Audit" in doc["unassigned"]
    assert "Audit" not in sum(doc["candidates"], [])


def test_size_model_override(tmp_path):
    sysdir = synth_system(tmp_path)
    out = tmp_path / "run"
    assert run("evaluate", "--calls", str(sysdir / "calls.csv"),
               "--k", "2", "--out", str(out),
               "--size-model", "ref_slot=8", "--size-model", "max_depth=4") == 0


def test_usage_error_exit_code():
    assert run("evaluate") == 1
    assert run("no-such-command") == 1


def test_bad_size_model_is_usage_error(tmp_path):
    sysdir = synth_system(tmp_path)
    assert run("evaluate", "--calls", str(sysdir / "calls.csv"), "--k", "2",
               "--out", str(tmp_path / "o"), "--size-model", "bogus=1") == 1


@pytest.mark.parametrize("fields", [("D", "D"), ("D", "E")], ids=["binary-chain", "two-types"])
def test_max_depth_255_over_a_doubling_catalog_finishes(tmp_path, fields):
    # forty levels whose objects hold two fields of the level below: costed
    # path by path that is 2^40 objects per parameter, so the run is a child
    # process with a time limit
    lines = []
    for name in dict.fromkeys(fields):
        lines += [f"{name}0: object", "    int"]
        for i in range(1, 40):
            lines += [f"{name}{i}: object"] + [f"    {m}{i - 1}" for m in fields]
    catalog = tmp_path / "types.txt"
    catalog.write_text("\n".join(lines) + "\n")
    calls = tmp_path / "calls.csv"
    calls.write_text("f,g,A,B,,D39\ng,f,B,C,,int;D39[]\nf,g,C,A,,long\n")
    src = Path(servicecut.__file__).parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "servicecut.cli", "evaluate", "--calls", str(calls),
         "--type-catalog", str(catalog), "--size-model", "max_depth=255", "--k", "2",
         "--out", str(tmp_path / "o")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, timeout=30)
    assert done.returncode == 0, done.stderr


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    # only partition_accuracy needs it, and no command calls that; a fresh
    # interpreter, because this one has imported it already
    src = Path(servicecut.__file__).parent.parent
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, servicecut.cli; sys.exit('scipy.optimize' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_data_error_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("only,three,columns\n")
    assert run("ingest-check", "--calls", str(bad)) == 2
    assert run("ingest-check", "--calls", str(tmp_path / "missing.csv")) == 2


def test_invalid_utf8_is_data_error_naming_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"f,g,A,B,int,int\n\xff,g,A,B,int,int\n")
    assert run("ingest-check", "--calls", str(bad)) == 2
    assert "bad.csv:2: not valid UTF-8" in capsys.readouterr().err


def test_a_quoted_over_long_field_is_a_data_error_naming_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text('"' + "x" * 140_000 + '",g,A,B,int,int\n')
    assert run("ingest-check", "--calls", str(bad)) == 2
    assert "bad.csv:1: field larger than field limit" in capsys.readouterr().err


_HUGE = "Big: opaque 1" + "0" * 400  # costs more than float64 holds
_OVERFLOW = "data error: int too large to convert to float; the weights come from the " \
            "--type-catalog and --size-model sizes and, with --raw-attrs, the --perf values"


@pytest.mark.parametrize("calls, perf, catalog, expected", [
    ("f,g,A,B,,int\ng,f,B,A,,in t\n", "A,abc,1\n", None,
     "calls.csv:2: invalid type name 'in t'"),
    ("f,g,A,B,,int\n", "A,1,1\nB,abc,1\n", "Blob: opaquex 12\n",
     "perf.csv:2: non-numeric field: could not convert string to float: 'abc'"),
    ("f,g,A,B,,Big\n", None, _HUGE + "\nBlob: opaquex 12\n",
     "types.txt:2: unknown layout kind 'opaquex 12'"),
    ("f,g,A,B,,Big\ng,f,B,A,int\n", None, _HUGE + "\n", "calls.csv:2: expected 6 columns, got 5"),
    ("f,g,A,B,,Big\n", "A,1,1\n", _HUGE + "\n", None),
], ids=["calls-before-perf", "perf-before-catalog", "catalog-before-overflow",
        "malformed-row-after-overflowing-row", "overflow-last"])
def test_the_first_bad_input_in_read_order_names_the_error(tmp_path, capsys, calls, perf,
                                                          catalog, expected):
    # the call log is read whole first, then the perf log, then the catalog;
    # a weight overflows only once all three parse
    argv = ["ingest-check"]
    for flag, name, text in (("--calls", "calls.csv", calls), ("--perf", "perf.csv", perf),
                             ("--type-catalog", "types.txt", catalog)):
        if text is not None:
            (tmp_path / name).write_text(text)
            argv += [flag, str(tmp_path / name)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"data error: {tmp_path}/{expected}\n" if expected else
                          _OVERFLOW + "\n")


def test_k_too_large_is_data_error(tmp_path):
    sysdir = synth_system(tmp_path)
    assert run("evaluate", "--calls", str(sysdir / "calls.csv"),
               "--k", "50", "--out", str(tmp_path / "o")) == 2


def test_class_names_containing_separator(tmp_path, capsys):
    calls = tmp_path / "calls.csv"
    calls.write_text("f,g,ns::A,ns::B,int,int\ng,f,ns::B,ns::A,,\n")
    assert run("ingest-check", "--calls", str(calls)) == 0
    assert "classes:      2" in capsys.readouterr().out
    out = tmp_path / "graph"
    assert run("build-graph", "--calls", str(calls), "--mode", "static",
               "--out", str(out)) == 0
    doc = json.loads((out / "graph.json").read_text())
    assert doc["vertices"] == ["ns::A", "ns::B"]
    assert doc["edges"] == [
        {"src": "ns::A", "dst": "ns::B", "weight": 5.0},
        {"src": "ns::B", "dst": "ns::A", "weight": 1.0},
    ]


def test_ingest_check_skips_the_header_row(tmp_path, capsys):
    calls = tmp_path / "calls.csv"
    calls.write_text("caller_method,callee_method,caller_class,callee_class,"
                     "caller_params,callee_params\nf,g,A,B,int,int\n")
    assert run("ingest-check", "--calls", str(calls)) == 0
    out = capsys.readouterr().out
    assert "call records: 1 (0 self-call)" in out
    assert "classes:      2" in out


def test_ingest_check_self_calls_compare_fields(tmp_path, capsys):
    calls = tmp_path / "calls.csv"
    calls.write_text("m,A::m,ns::A,ns,int,int\n")
    assert run("ingest-check", "--calls", str(calls)) == 0
    assert "call records: 1 (0 self-call)" in capsys.readouterr().out


@pytest.mark.parametrize("args, flag", [
    (["--n-classes", "0", "--n-blocks", "1"], "--n-classes"),
    (["--n-classes", "4", "--n-blocks", "0"], "--n-blocks"),
    (["--n-classes", "4", "--n-blocks", "5"], "--n-blocks"),
    (["--n-classes", "4", "--n-blocks", "2", "--intra", "2"], "--intra"),
    (["--n-classes", "4", "--n-blocks", "2", "--inter", "-0.1"], "--inter"),
    (["--n-classes", "4", "--n-blocks", "2", "--intra", "nan"], "--intra"),
    (["--n-classes", "4", "--n-blocks", "2", "--inter", "nan"], "--inter"),
    (["--n-classes", "4", "--n-blocks", "2", "--seed", "-1"], "--seed"),
], ids=["n-classes-0", "n-blocks-0", "n-blocks-above-n-classes", "intra-2", "inter-negative",
        "intra-nan", "inter-nan", "seed-negative"])
def test_bad_synth_flag_is_usage_error_naming_the_flag(tmp_path, capsys, args, flag):
    assert run("synth", *args, "--out", str(tmp_path / "sys")) == 1
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "sys").exists()


def test_ingest_check_rejects_bad_size_model(tmp_path, capsys):
    calls = tmp_path / "calls.csv"
    calls.write_text("f,g,A,B,int,int\n")
    assert run("ingest-check", "--calls", str(calls), "--size-model", "bogus=1") == 1
    assert "--size-model" in capsys.readouterr().err


@pytest.mark.parametrize("args, flag", [
    (["evaluate", "--k", "1"], "--k"),
    (["sweep", "--k-min", "1"], "--k-min"),
    (["sweep", "--k-min", "3", "--k-max", "2"], "--k-min"),
    (["sweep", "--epochs", "0"], "--epochs"),
    (["evaluate", "--k", "2", "--size-model", "ref_slot=abc"], "--size-model"),
    (["evaluate", "--k", "2", "--size-model", "alignment=3"], "--size-model"),
    (["sweep", "--modes", ","], "--modes"),
    (["sweep", "--modes", "static,static"], "--modes"),
    (["evaluate", "--k", "2", "--seed", "-1"], "--seed"),
    (["sweep", "--seed", "-1"], "--seed"),
    (["sweep", "--seed", str(2 ** 63)], "--seed"),
    (["evaluate", "--k", "2", "--size-model", "default_unknown=-100"], "--size-model"),
    (["evaluate", "--k", "2", "--size-model", "assumed_array_len=-5"], "--size-model"),
    (["sweep", "--size-model", "ref_slot=-1"], "--size-model"),
    (["evaluate", "--k", "2", "--size-model", "max_depth=600"], "--size-model"),
], ids=["k-1", "k-min-1", "k-min-above-k-max", "epochs-0", "size-model-not-int",
        "size-model-rejected", "modes-empty", "modes-repeated", "evaluate-seed-negative",
        "sweep-seed-negative", "sweep-seed-2**63", "size-model-negative-default",
        "size-model-negative-array-len", "size-model-negative-ref-slot",
        "size-model-max-depth-600"])
def test_bad_flag_is_usage_error_naming_the_flag(tmp_path, capsys, args, flag):
    sysdir = synth_system(tmp_path)
    capsys.readouterr()  # discard synth output
    assert run(*args, "--calls", str(sysdir / "calls.csv"),
               "--out", str(tmp_path / "o")) == 1
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("args, flag", [
    (["evaluate", "--k", "50", "--out", "{out}"], "--k 50"),
    (["sweep", "--k-max", "50", "--epochs", "1", "--out", "{out}"], "--k-max 50"),
    (["oracle", "--k", "2"], "--calls"),
], ids=["evaluate-k", "sweep-k-max", "oracle-above-its-bound"])
def test_k_beyond_the_classes_is_data_error_naming_the_flag(tmp_path, capsys, args, flag):
    sysdir = synth_system(tmp_path)  # 12 classes
    capsys.readouterr()  # discard synth output
    argv = [a.format(out=tmp_path / "o") for a in args]
    assert run(*argv, "--calls", str(sysdir / "calls.csv")) == 2
    assert flag in capsys.readouterr().err


def test_every_argument_the_library_rejects_names_a_cli_flag():
    # renaming a library parameter must not drop its flag from the message:
    # the faults below reach each `raise ArgumentError` in the package, and
    # the parameter each names is a key of the CLI's flag map
    sites = {(str(path), node.lineno)
             for path in Path(servicecut.__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
             and getattr(node.exc.func, "id", None) == "ArgumentError"}
    reached = set()
    for fault in [lambda: pipeline.sweep(None, ()),
                  lambda: pipeline.sweep(None, ("static", "static")),
                  lambda: pipeline.sweep(None, ("bogus",)),
                  lambda: pipeline.sweep(None, k_min=1),
                  lambda: pipeline.sweep(None, epochs=0),
                  lambda: pipeline.sweep(None, base_seed=-1),
                  lambda: SynthSpec(n_classes=2, n_blocks=3),
                  lambda: SynthSpec(n_classes=2, n_blocks=1, inter_call_prob=2.0)]:
        with pytest.raises(ArgumentError) as excinfo:
            fault()
        assert excinfo.value.param in cli._FLAGS, excinfo.value.param
        reached.add((str(excinfo.traceback[-1].path), excinfo.traceback[-1].lineno + 1))
    assert reached == sites


_INPUTS = ["--raw-attrs", "--size-model", "--type-catalog", "--perf", "--calls"]


def test_each_command_declares_its_options_in_the_published_order():
    # the order --help lists them in; every log-reading command takes the
    # five input options first, and synth none of them
    assert {name: [p.opts[0] for p in c.params] for name, c in cli.cli.commands.items()} == {
        "ingest-check": _INPUTS,
        "build-graph": _INPUTS + ["--mode", "--out"],
        "evaluate": _INPUTS + ["--mode", "--k", "--seed", "--out", "--format"],
        "sweep": _INPUTS + ["--modes", "--k-min", "--k-max", "--epochs", "--seed", "--out"],
        "synth": ["--n-classes", "--n-blocks", "--intra", "--inter", "--block-correlated-perf",
                  "--seed", "--out"],
        "oracle": _INPUTS + ["--mode", "--k", "--objective"],
    }


_WORKFLOW = Path(__file__).parent.parent / ".github" / "workflows" / "tests.yml"


def test_the_console_script_step_uses_only_declared_commands_and_options():
    # the step needs an installed package, so it runs only in CI; here each of
    # its servicecut lines, after any VAR=value, is read and none is run
    step = _WORKFLOW.read_text().split("- name: Installed console script\n")[1]
    lines = [shlex.split(line) for line in re.split(r"\n\s*- name:", step)[0].splitlines()
             if re.match(r"\s*(\w+=\S*\s+)*servicecut\s", line)]
    assert lines
    for words in lines:
        name, *args = words[words.index("servicecut") + 1:]
        assert name in cli.cli.commands, words
        declared = {o for p in cli.cli.commands[name].params for o in p.opts + p.secondary_opts}
        assert {w for w in args if w.startswith("--")} - declared == set(), words


def test_overflowing_weights_are_data_errors_naming_their_sources(tmp_path, capsys):
    calls = tmp_path / "calls.csv"
    calls.write_text("f,g,A,B,,Blob\ng,f,B,A,,\n")
    perf = tmp_path / "perf.csv"
    perf.write_text("A,1e308,1e308\nB,1e308,1\n")
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("Blob: opaque 1" + "0" * 400 + "\n")
    assert run("evaluate", "--calls", str(calls), "--perf", str(perf), "--raw-attrs",
               "--k", "2", "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "overflows float64" in err and "--raw-attrs" in err
    assert run("build-graph", "--calls", str(calls), "--type-catalog", str(catalog),
               "--out", str(tmp_path / "g")) == 2
    assert "--type-catalog" in capsys.readouterr().err


def test_an_unknown_type_cost_that_overflows_names_the_size_model(tmp_path, capsys):
    # Foo is in no catalog, so it costs default_unknown, past the float range
    calls = tmp_path / "calls.csv"
    calls.write_text("f,g,A,B,,Foo\n")
    assert run("ingest-check", "--calls", str(calls),
               "--size-model", "default_unknown=1" + "0" * 400) == 2
    assert "--size-model" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["static", "fusion", "dynamic"])
def test_summed_catalog_costs_that_overflow_name_the_catalog(tmp_path, capsys, mode):
    # each row costs 1e308 + 1; their sum is beyond float64
    calls = tmp_path / "calls.csv"
    calls.write_text("f,g,A,B,,Big\nh,g,A,B,,Big\n")
    catalog = tmp_path / "types.txt"
    catalog.write_text("Big: opaque 1" + "0" * 308 + "\n")
    for command in (["evaluate", "--k", "2", "--out", str(tmp_path / "o")],
                    ["build-graph", "--out", str(tmp_path / "g")]):
        assert run(*command, "--mode", mode, "--calls", str(calls),
                   "--type-catalog", str(catalog)) == 2
        err = capsys.readouterr().err
        assert "summed weight of ('A', 'B') overflows float64" in err
        assert "--type-catalog" in err


@pytest.mark.parametrize("command", [["evaluate", "--k", "2", "--out", "{out}"],
                                     ["build-graph", "--out", "{out}"]])
def test_an_affinity_that_overflows_is_a_data_error_naming_the_catalog(tmp_path, capsys, command):
    # each direction of A-B costs 1e308 + 1, finite; the affinity adds them
    calls = tmp_path / "calls.csv"
    calls.write_text("f,g,A,B,,Big\ng,f,B,A,,Big\n")
    catalog = tmp_path / "types.txt"
    catalog.write_text("Big: opaque 1" + "0" * 308 + "\n")
    argv = [a.format(out=tmp_path / "o") for a in command]
    assert run(*argv, "--mode", "static", "--calls", str(calls),
               "--type-catalog", str(catalog)) == 2
    err = capsys.readouterr().err
    assert "affinity of ('A', 'B') overflows float64" in err
    assert "--type-catalog" in err
    assert not (tmp_path / "o" / "affinity.csv").exists()


def test_repeated_catalog_type_is_data_error_naming_file_and_line(tmp_path, capsys):
    calls = tmp_path / "calls.csv"
    calls.write_text("f,g,A,B,,Order\n")
    catalog = tmp_path / "types.txt"
    catalog.write_text("Order: object\n    int\nOrder: opaque 4096\n")
    assert run("build-graph", "--calls", str(calls), "--type-catalog", str(catalog),
               "--out", str(tmp_path / "g")) == 2
    assert "types.txt:3: type 'Order' declared twice" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["sweep", "--modes", "static,fusion,dynamic", "--k-max", "3", "--epochs", "2",
     "--out", "{out}"],
    ["evaluate", "--k", "2", "--out", "{out}"],
    ["build-graph", "--mode", "dynamic", "--out", "{out}"],
    ["oracle", "--k", "2", "--mode", "fusion"],
], ids=["sweep-three-modes", "evaluate", "build-graph", "oracle"])
def test_the_class_graph_is_built_once_per_invocation(tmp_path, monkeypatch, args):
    sysdir = synth_system(tmp_path, **{"--n-classes": "8"})
    built = []

    def counting(original):
        def fn(*a, **kw):
            built.append(original.__name__)
            return original(*a, **kw)
        return fn

    # the call log is read once and the graph weighed once
    for name in ("collect_calls", "weigh_calls"):
        counted = counting(getattr(feature_graph, name))
        for module in (feature_graph, pipeline):
            monkeypatch.setattr(module, name, counted)
    argv = [a.format(out=tmp_path / "o") for a in args]
    assert run(*argv, "--calls", str(sysdir / "calls.csv"),
               "--perf", str(sysdir / "perf.csv")) == 0
    assert built == ["collect_calls", "weigh_calls"]


@pytest.mark.parametrize("args", [
    ["sweep", "--modes", "fusion,dynamic", "--k-max", "3", "--epochs", "1", "--out", "{out}"],
    ["evaluate", "--mode", "static", "--k", "2", "--out", "{out}"],
    ["ingest-check"],
], ids=["sweep-fusion-dynamic", "evaluate-static", "ingest-check"])
def test_an_unknown_perf_class_is_logged_once_per_run(tmp_path, caplog, args):
    # as is a dropped self-call
    sysdir = synth_system(tmp_path)
    with open(sysdir / "calls.csv", "a") as fh:
        fh.write("log,log,Audit,Audit,,int\n")
    perf = tmp_path / "perf.csv"
    perf.write_text((sysdir / "perf.csv").read_text() + "Ghost,1,1\n")
    argv = [a.format(out=tmp_path / "o") for a in args]
    assert run(*argv, "--calls", str(sysdir / "calls.csv"), "--perf", str(perf)) == 0
    assert caplog.text.count("'Ghost' has no call-graph vertex") == 1
    assert caplog.text.count("dropped 1 self-call record(s)") == 1


def test_perf_rows_without_a_vertex_are_one_warning_with_their_count(tmp_path, caplog):
    sysdir = synth_system(tmp_path)
    perf = tmp_path / "perf.csv"
    perf.write_text((sysdir / "perf.csv").read_text() + "Ghost,1,1\nPhantom,2,2\n")
    assert run("ingest-check", "--calls", str(sysdir / "calls.csv"), "--perf", str(perf)) == 0
    warnings = [r.getMessage() for r in caplog.records if "no call-graph vertex" in r.getMessage()]
    assert warnings == [
        "perf record for 'Ghost' has no call-graph vertex; ignored (2 such records)"]


_REORDER = {"sorted": sorted, "reversed": lambda rows: rows[::-1]}


@pytest.mark.parametrize("reorder", sorted(_REORDER))
def test_outputs_depend_on_the_call_rows_not_their_order(tmp_path, reorder):
    assert run("synth", "--n-classes", "24", "--n-blocks", "3", "--seed", "7",
               "--out", str(tmp_path / "demo")) == 0
    calls = tmp_path / "demo" / "calls.csv"
    header, *rows = calls.read_bytes().splitlines(keepends=True)
    reordered = tmp_path / "reordered.csv"
    reordered.write_bytes(header + b"".join(_REORDER[reorder](rows)))
    assert reordered.read_bytes() != calls.read_bytes()
    commands = {
        "evaluate": (["evaluate", "--k", "3"], ["partition.json", "report.json"]),
        "sweep": (["sweep", "--epochs", "3"], ["sweep.json"]),
        "build-graph": (["build-graph"], ["graph.json", "graph_edges.csv", "affinity.csv"]),
    }
    for name, (args, files) in commands.items():
        for log in (calls, reordered):
            assert run(*args, "--calls", str(log), "--perf", str(tmp_path / "demo" / "perf.csv"),
                       "--out", str(tmp_path / log.stem / name)) == 0
        for f in files:
            assert ((tmp_path / "reordered" / name / f).read_bytes()
                    == (tmp_path / "calls" / name / f).read_bytes()), f


@pytest.mark.parametrize("command", [["ingest-check"], ["evaluate", "--k", "2", "--out", "{out}"]])
def test_array_rank_beyond_the_jvm_limit_is_a_data_error_naming_the_line(tmp_path, capsys,
                                                                          command):
    calls = tmp_path / "calls.csv"
    calls.write_text("f,g,A,B,,int\ng,f,B,A,,int" + "[]" * 1000 + "\n")
    argv = [a.format(out=tmp_path / "o") for a in command]
    assert run(*argv, "--calls", str(calls)) == 2
    assert "calls.csv:2: array rank 1000 of 'int' is not in [0, 255]" in capsys.readouterr().err


def test_huge_raw_perf_values_still_cluster(tmp_path):
    # the fused weights reach 1e301: finite, but their squares overflow
    calls = tmp_path / "calls.csv"
    calls.write_text("f,g,A,B,int,int\ng,f,B,C,int,int\nf,g,C,A,long[],int\n")
    perf = tmp_path / "perf.csv"
    perf.write_text("A,1e300,1e300\nB,1e300,1\nC,1,1\n")
    assert run("evaluate", "--calls", str(calls), "--perf", str(perf), "--raw-attrs",
               "--k", "2", "--out", str(tmp_path / "o")) == 0


def test_oracle_k1_is_valid(tmp_path):
    sysdir = synth_system(tmp_path, **{"--n-classes": "8"})
    assert run("oracle", "--calls", str(sysdir / "calls.csv"), "--k", "1") == 0


# --- fuzzing the input contract ---------------------------------------------

_CLASSES = ["A", "B", "C", "D", "ns::E"]
_CALL_HEADER = "caller_method,callee_method,caller_class,callee_class,caller_params,callee_params"
_PERF_HEADER = "class,cpu_time,retained_memory"
_FIELD = st.sampled_from(["f", "g", "", "int", "long[]", "int;Foo[]", "A", "x y"])
_CALL_ROW = st.builds(lambda m, n, a, b, p: f"{m},{n},{a},{b},{p},{p}",
                      st.sampled_from(["f", "g"]), st.sampled_from(["f", "g"]),
                      st.sampled_from(_CLASSES), st.sampled_from(_CLASSES),
                      st.sampled_from(["", "int", "int;long[]", "Foo", "int[][]", "int;9x"]))
_PERF_VALUE = st.sampled_from(["0", "1", "2.5", "1e300", "1e308", "-1", "nan", "inf", "abc", ""])
_PERF_ROW = st.builds(lambda c, t, r: f"{c},{t},{r}", st.sampled_from(_CLASSES + ["Z"]),
                      _PERF_VALUE, _PERF_VALUE)
# one odd line per log: any column count or empty fields, a header or comment
# line anywhere, a call row whose parameter has more array dimensions than the
# JVM's 255, or (None) a byte that is not UTF-8
_DEEP_ROW = "f,g,A,B,,int" + "[]" * 1000
_ODD_LINE = st.none() | st.lists(_FIELD, max_size=8).map(",".join) | st.sampled_from(
    [_CALL_HEADER, _PERF_HEADER, "# comment", "", _DEEP_ROW])


# a type catalog of distinct declarations (the call rows use Foo) and one odd
# line: a repeated declaration, an opaque size of 1e308 (two such calls on one
# class pair overflow float64), an indented field outside an object, an
# unknown kind, a misspelled opaque or a bad name
_DECLARATIONS = ["Foo: object\n    int\n    long[]", "Bar: opaque 16",
                 "Baz: object\n    Foo\n    int"]
_HUGE_FOO = "Foo: opaque 1" + "0" * 308
_ODD_TYPE_LINE = st.sampled_from(["repeat", _HUGE_FOO, "    int", "Qux: struct", "1Bad: object",
                                  "Qux: opaquex 16"])
_CATALOG = st.tuples(st.lists(st.sampled_from(_DECLARATIONS), min_size=1, max_size=3,
                              unique=True),
                     st.tuples(st.integers(0, 8), _ODD_TYPE_LINE))


def _catalog(declarations, odd):
    lines = "\n".join(declarations).splitlines()
    at, line = odd
    if line == "repeat":
        line = lines[0]  # a top-level declaration
    # an indented line anywhere but first would be a field
    lines.insert(0 if line.startswith(" ") else at % (len(lines) + 1), line)
    return "\n".join(lines) + "\n"


def _log(rows, odd):
    lines = [row.encode() for row in rows]
    if odd is not None:
        at, line = odd
        at %= len(lines) + 1
        if line is not None:
            lines.insert(at, line.encode())
        elif lines:
            lines[at % len(lines)] += b"\xff"
    return b"\n".join(lines) + b"\n"


# size-model overrides outside their ranges: each is a usage error
_BAD_MODELS = ["ref_slot=-1", "default_unknown=-100", "assumed_array_len=-5", "max_depth=600"]
# in range, but a type no catalog declares then costs more than float64 holds
_HUGE_MODEL = "default_unknown=1" + "0" * 400
_UNDECLARED_ROW = "f,g,A,B,,Qux"


def _flags(draw, *pairs):
    argv = []
    for flag, values in pairs:
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            argv += [flag, value]
    return argv


@st.composite
def _invocations(draw):
    mode = ("--mode", ["static", "fusion", "dynamic"])
    k = ["1", "2", "2", "3", "x"]
    seed = ("--seed", ["0", "3", "-1"])
    sweep_seed = ("--seed", seed[1] + [str(2 ** 63)])  # evaluate takes any size
    command = draw(st.sampled_from(["ingest-check", "build-graph", "evaluate", "sweep",
                                    "oracle", "synth"]))
    if command == "synth":  # at most 6 classes; valid, out-of-range and NaN values
        probability = ["0", "0.5", "1", "-0.1", "1.5", "nan"]
        return (["synth", "--n-classes", draw(st.sampled_from(["1", "4", "6", "0", "nan"])),
                 "--n-blocks", draw(st.sampled_from(["1", "2", "6", "7", "0", "nan"]))]
                + _flags(draw, ("--intra", probability), ("--inter", probability), seed)
                + ["--out", "{out}"])
    models = ["ref_slot=8", "alignment=3", "max_depth=255", _HUGE_MODEL] + _BAD_MODELS
    argv = [command] + _flags(draw, ("--size-model", models))
    if draw(st.booleans()):
        argv.append("--raw-attrs")
    if command == "build-graph":
        argv += _flags(draw, mode) + ["--out", "{out}"]
    elif command == "evaluate":
        argv += ["--k", draw(st.sampled_from(k))] + _flags(draw, mode, seed,
                                                           ("--format", ["json", "csv"]))
        argv += ["--out", "{out}"]
    elif command == "sweep":
        argv += _flags(draw, ("--modes", ["static", "fusion,dynamic", "static,bogus",
                                          "static,static"]),
                       ("--k-min", k), ("--k-max", k), sweep_seed) + ["--epochs", "2"]
        argv += ["--out", "{out}"]
    elif command == "oracle":
        argv += ["--k", draw(st.sampled_from(k))] + _flags(draw, mode,
                                                           ("--objective", ["mqw", "cut"]))
    return argv


@settings(max_examples=60, deadline=None)
@given(st.lists(_CALL_ROW, max_size=8), st.none() | st.tuples(st.integers(0, 8), _ODD_LINE),
       st.none() | st.lists(_PERF_ROW, max_size=5),
       st.none() | st.tuples(st.integers(0, 5), _ODD_LINE), st.none() | _CATALOG,
       _invocations())
def test_fuzzed_logs_and_flags_keep_the_exit_code_contract(calls, odd_call, perf, odd_perf,
                                                            catalog, argv):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        argv = [a.format(out=root / "out") for a in argv]
        invalid_catalog = deep_row = False
        if argv[0] != "synth":  # every other command reads the logs
            if _HUGE_MODEL in argv:
                calls = calls + [_UNDECLARED_ROW]
            (root / "calls.csv").write_bytes(_log(calls, odd_call))
            argv += ["--calls", str(root / "calls.csv")]
            deep_row = odd_call is not None and odd_call[1] == _DEEP_ROW
            if perf is not None:
                (root / "perf.csv").write_bytes(_log(perf, odd_perf))
                argv += ["--perf", str(root / "perf.csv")]
            if catalog is not None:
                (root / "types.txt").write_text(_catalog(*catalog))
                argv += ["--type-catalog", str(root / "types.txt")]
                # each odd line is invalid, but the huge Foo only when it repeats Foo
                declarations, odd = catalog
                invalid_catalog = odd[1] != _HUGE_FOO or _DECLARATIONS[0] in declarations
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(argv)
        wrote = (root / "out").exists()
    message = err.getvalue()
    assert code in (0, 1, 2, 3), message
    assert "Traceback" not in message
    assert code or not invalid_catalog, argv
    assert code or not deep_row, argv
    if any(a in _BAD_MODELS for a in argv) or str(2 ** 63) in argv:
        assert code == 1, (argv, message)
    if argv[0] == "synth":
        assert code in (0, 1), (argv, message)
        assert not (code and wrote), argv
    if _HUGE_MODEL in argv and code != 1:
        # the undeclared Qux row overflows, unless an input fails first
        assert code == 2 and re.search(r"\.(csv|txt):\d+|--size-model", message), (argv, message)
    if code:
        assert re.search(r"\.(csv|txt):\d+|--[a-z]", message), (argv, message)
