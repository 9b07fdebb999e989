import json

import pytest

from servicecut.cli import main


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
    assert run("ingest-check", "--calls", str(sysdir / "calls.csv"),
               "--perf", str(sysdir / "perf.csv")) == 0
    out = capsys.readouterr().out
    assert "call records:" in out
    assert "classes:      12" in out


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


def test_evaluate_csv_format(tmp_path):
    sysdir = synth_system(tmp_path)
    out = tmp_path / "run"
    assert run("evaluate", "--calls", str(sysdir / "calls.csv"),
               "--k", "2", "--out", str(out), "--format", "csv") == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0].startswith("mode,k,")


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
    capsys.readouterr()  # discard synth output
    assert run("oracle", "--calls", str(sysdir / "calls.csv"),
               "--k", "2", "--objective", "cut") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["objective"] == "cut"
    assert doc["value"] >= 0


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
], ids=["k-1", "k-min-1", "k-min-above-k-max", "epochs-0", "size-model-not-int",
        "size-model-rejected", "modes-empty", "modes-repeated", "evaluate-seed-negative",
        "sweep-seed-negative"])
def test_bad_flag_is_usage_error_naming_the_flag(tmp_path, capsys, args, flag):
    sysdir = synth_system(tmp_path)
    capsys.readouterr()  # discard synth output
    assert run(*args, "--calls", str(sysdir / "calls.csv"),
               "--out", str(tmp_path / "o")) == 1
    assert flag in capsys.readouterr().err


def test_oracle_k1_is_valid(tmp_path):
    sysdir = synth_system(tmp_path, **{"--n-classes": "8"})
    assert run("oracle", "--calls", str(sysdir / "calls.csv"), "--k", "1") == 0
