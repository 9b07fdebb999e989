"""Golden ``build-graph``, ``evaluate``, ``sweep`` and ``oracle`` outputs of a
hand-written five-class system.

``Audit`` only calls itself, so it is an isolated vertex: it is listed in
``graph.json`` (and, with its CPU time, sets the normalization maximum) but has
no row in ``affinity.csv`` and is ``unassigned`` in ``partition.json`` and
in the ``oracle`` line.
``Stock`` has no perf row. The catalog declares one ``object`` type, whose
``String`` field falls back to the default cost, and one ``opaque`` type.
Every weight is written as a plain float literal. The core is a weighted path
Mailer - Payment - Order - Stock, whose Laplacian is an irreducible
tridiagonal matrix in path order, so its eigenvalues are distinct and
the candidates do not depend on the eigensolver's choice of basis.

The default ``sweep`` of a synthetic 139-class system, and an ``evaluate``
of a 1500-class one, which runs the Lanczos solve, are pinned by the digests
of their files.
"""

import hashlib
import json

import pytest

from servicecut.cli import main

CALLS = """\
place,charge,Order,Payment,,Order
charge,notify,Payment,Mailer,Order,int;Blob
ship,pack,Order,Stock,,long[]
pack,place,Stock,Order,,Order
place,charge,Order,Payment,,int
audit,log,Audit,Audit,,int
"""

PERF = """\
Order,30,2048
Payment,12.5,512
Mailer,3,128
Audit,60,0
"""

CATALOG = """\
Order: object
    long
    int
    String
Blob: opaque 100
"""

EXPECTED = {
    "static": {
        "graph_edges.csv": """\
src,dst,weight\r\n\
Order,Payment,46.0\r\n\
Order,Stock,17.0\r\n\
Payment,Mailer,105.0\r\n\
Stock,Order,41.0\r\n\
""",
        "graph.json": """\
{
  "edges": [
    {
      "dst": "Payment",
      "src": "Order",
      "weight": 46.0
    },
    {
      "dst": "Stock",
      "src": "Order",
      "weight": 17.0
    },
    {
      "dst": "Mailer",
      "src": "Payment",
      "weight": 105.0
    },
    {
      "dst": "Order",
      "src": "Stock",
      "weight": 41.0
    }
  ],
  "granularity": "class",
  "vertices": [
    "Audit",
    "Mailer",
    "Order",
    "Payment",
    "Stock"
  ]
}
""",
        "affinity.csv": """\
,Mailer,Order,Payment,Stock\r\n\
Mailer,0.0,0.0,105.0,0.0\r\n\
Order,0.0,0.0,46.0,58.0\r\n\
Payment,105.0,46.0,0.0,0.0\r\n\
Stock,0.0,58.0,0.0,0.0\r\n\
""",
    },
    "fusion": {
        "graph_edges.csv": """\
src,dst,weight\r\n\
Order,Payment,67.08333333333334\r\n\
Order,Stock,17.0\r\n\
Payment,Mailer,116.8125\r\n\
Stock,Order,102.5\r\n\
""",
        "graph.json": """\
{
  "edges": [
    {
      "dst": "Payment",
      "src": "Order",
      "weight": 67.08333333333334
    },
    {
      "dst": "Stock",
      "src": "Order",
      "weight": 17.0
    },
    {
      "dst": "Mailer",
      "src": "Payment",
      "weight": 116.8125
    },
    {
      "dst": "Order",
      "src": "Stock",
      "weight": 102.5
    }
  ],
  "granularity": "class",
  "vertex_attrs": {
    "Audit": {
      "cpu_time": 1.0,
      "retained": 0.0
    },
    "Mailer": {
      "cpu_time": 0.05,
      "retained": 0.0625
    },
    "Order": {
      "cpu_time": 0.5,
      "retained": 1.0
    },
    "Payment": {
      "cpu_time": 0.20833333333333334,
      "retained": 0.25
    },
    "Stock": {
      "cpu_time": 0.0,
      "retained": 0.0
    }
  },
  "vertices": [
    "Audit",
    "Mailer",
    "Order",
    "Payment",
    "Stock"
  ]
}
""",
        "affinity.csv": """\
,Mailer,Order,Payment,Stock\r\n\
Mailer,0.0,0.0,116.8125,0.0\r\n\
Order,0.0,0.0,67.08333333333334,119.5\r\n\
Payment,116.8125,67.08333333333334,0.0,0.0\r\n\
Stock,0.0,119.5,0.0,0.0\r\n\
""",
    },
    "dynamic": {
        "graph_edges.csv": """\
src,dst,weight\r\n\
Order,Payment,1.4583333333333335\r\n\
Order,Stock,1.0\r\n\
Payment,Mailer,1.1125\r\n\
Stock,Order,2.5\r\n\
""",
        "graph.json": """\
{
  "edges": [
    {
      "dst": "Payment",
      "src": "Order",
      "weight": 1.4583333333333335
    },
    {
      "dst": "Stock",
      "src": "Order",
      "weight": 1.0
    },
    {
      "dst": "Mailer",
      "src": "Payment",
      "weight": 1.1125
    },
    {
      "dst": "Order",
      "src": "Stock",
      "weight": 2.5
    }
  ],
  "granularity": "class",
  "vertex_attrs": {
    "Audit": {
      "cpu_time": 1.0,
      "retained": 0.0
    },
    "Mailer": {
      "cpu_time": 0.05,
      "retained": 0.0625
    },
    "Order": {
      "cpu_time": 0.5,
      "retained": 1.0
    },
    "Payment": {
      "cpu_time": 0.20833333333333334,
      "retained": 0.25
    },
    "Stock": {
      "cpu_time": 0.0,
      "retained": 0.0
    }
  },
  "vertices": [
    "Audit",
    "Mailer",
    "Order",
    "Payment",
    "Stock"
  ]
}
""",
        "affinity.csv": """\
,Mailer,Order,Payment,Stock\r\n\
Mailer,0.0,0.0,1.1125,0.0\r\n\
Order,0.0,0.0,1.4583333333333335,3.5\r\n\
Payment,1.1125,1.4583333333333335,0.0,0.0\r\n\
Stock,0.0,3.5,0.0,0.0\r\n\
""",
    },
}


#: The catalog of the CI console-script step: an object (Money), an object
#: holding it and a String array (Order), a cyclic object (Node) and an
#: opaque type. Sizes: Money 12 + 8 + 4 -> 24, Order 12 + 24 + 16 -> 56,
#: Node 12 + 4 (its own field, a reference slot) + 56 -> 72, String 24; an
#: empty array costs its 16-byte header. Each row costs 1 plus its callee's
#: sizes, and the repeated A -> B row adds its cost twice.
CI_CATALOG = """\
Money: object
    long
    int
Order: object
    Money
    String[]
Node: object
    Node
    Order
String: opaque 24
"""

CI_CALLS = """\
f,g,A,B,,Money
g,h,B,C,Money,Order;int
h,f,C,A,,Node
f,h,A,C,,Node[];String
c,d,C,D,,long;Order[]
f,g,A,B,,Money
"""

#: build-graph --mode static --type-catalog, on CI_CALLS and CI_CATALOG
CI_CATALOG_EXPECTED = {
    "graph_edges.csv": """\
src,dst,weight\r\n\
A,B,50.0\r\n\
A,C,41.0\r\n\
B,C,61.0\r\n\
C,A,73.0\r\n\
C,D,25.0\r\n\
""",
    "graph.json": """\
{
  "edges": [
    {
      "dst": "B",
      "src": "A",
      "weight": 50.0
    },
    {
      "dst": "C",
      "src": "A",
      "weight": 41.0
    },
    {
      "dst": "C",
      "src": "B",
      "weight": 61.0
    },
    {
      "dst": "A",
      "src": "C",
      "weight": 73.0
    },
    {
      "dst": "D",
      "src": "C",
      "weight": 25.0
    }
  ],
  "granularity": "class",
  "vertices": [
    "A",
    "B",
    "C",
    "D"
  ]
}
""",
}

#: evaluate --mode fusion --k 2 --seed 0 (report.csv with --format csv)
EVALUATE = {
    "partition.json": """\
{
  "candidates": [
    [
      "Mailer",
      "Payment"
    ],
    [
      "Order",
      "Stock"
    ]
  ],
  "k": 2,
  "seed": 0,
  "unassigned": [
    "Audit"
  ]
}
""",
    "report.json": """\
{
  "MQ": 0.25,
  "MQw": 0.07373817448614428,
  "coh": [
    0.25,
    0.5
  ],
  "coh_w": [
    0.974960876369327,
    0.9835390946502057
  ],
  "cop": {
    "0,1": 0.125
  },
  "cop_w": {
    "0,1": 0.9055118110236221
  },
  "cut": 67.08333333333334,
  "k": 2,
  "mode": "fusion"
}
""",
    "report.csv": """\
mode,k,coh_w,cop_w,MQw,MQ,cut
fusion,2,0.9792499855097664,0.9055118110236221,0.07373817448614428,0.25,67.08333333333334
""",
}

#: sweep --k-max 3 --epochs 3
SWEEP = {
    "sweep.json": """\
{
  "base_seed": 0,
  "best_k": {
    "fusion": 2,
    "static": 2
  },
  "epoch_values": {
    "fusion,2": [
      0.07373817448614428,
      0.07373817448614428,
      0.07373817448614428
    ],
    "fusion,3": [
      -0.3337687180449572,
      -0.3337687180449572,
      -0.3337687180449572
    ],
    "static,2": [
      0.10151991614255762,
      0.10151991614255762,
      0.10151991614255762
    ],
    "static,3": [
      -0.3221844293272865,
      -0.3221844293272865,
      -0.3221844293272865
    ]
  },
  "epochs": 3,
  "k_max": 3,
  "k_min": 2,
  "medians": {
    "fusion,2": 0.07373817448614428,
    "fusion,3": -0.3337687180449572,
    "static,2": 0.10151991614255762,
    "static,3": -0.3221844293272865
  },
  "modes": [
    "static",
    "fusion"
  ]
}
""",
    "sweep.csv": """\
mode,k,median_mqw
fusion,2,0.07373817448614428
fusion,3,-0.3337687180449572
static,2,0.10151991614255762
static,3,-0.3221844293272865
""",
}

#: oracle --mode fusion --k 3 --objective OBJECTIVE, one stdout line each
ORACLE = {
    "mqw": '{"candidates": [["Mailer"], ["Order", "Stock"], ["Payment"]], "k": 3, '
           '"objective": "mqw", "unassigned": ["Audit"], "value": -0.3217222195246593}\n',
    "cut": '{"candidates": [["Mailer"], ["Order", "Stock"], ["Payment"]], "k": 3, '
           '"objective": "cut", "unassigned": ["Audit"], "value": 183.89583333333334}\n',
}

#: sweep with its defaults (static and fusion, k 2..10, 100 epochs) on
#: synth --n-classes 139 --n-blocks 6 --seed 1: sha256 of each file
SWEEP_139 = {
    "sweep.json": "7843fcae2e2010472073d618a1d1ac305b5eb6d5cdd344a0906ae02d03bcc83f",
    "sweep.csv": "4fd65c25b80b2f9127b8b58a128c022e791916a7584c2093baaa898f8eef158c",
}

#: synth --n-classes 1500 --n-blocks 15 --intra 0.1 --inter 0.003 --seed 7,
#: then evaluate --k 15: sha256 of each file
EVALUATE_1500 = {
    "partition.json": "3100904c16fc20f571f712f60833a823448742fd22aeda57953c6f140f2dfbde",
    "report.json": "d15469976a8bb2d9298175614fe9ef440e72e1f53027f04c177354af99c6f450",
}


@pytest.fixture
def inputs(tmp_path):
    """The --calls, --perf and --type-catalog arguments of the system."""
    (tmp_path / "calls.csv").write_text(CALLS)
    (tmp_path / "perf.csv").write_text(PERF)
    (tmp_path / "types.txt").write_text(CATALOG)
    return ["--calls", str(tmp_path / "calls.csv"), "--perf", str(tmp_path / "perf.csv"),
            "--type-catalog", str(tmp_path / "types.txt")]


def assert_golden(out, expected):
    for name, text in expected.items():
        assert (out / name).read_bytes().decode() == text, name


@pytest.mark.parametrize("mode", sorted(EXPECTED))
def test_build_graph_exports_equal_the_golden_text(tmp_path, inputs, mode):
    out = tmp_path / "out"
    assert main(["build-graph", *inputs, "--mode", mode, "--out", str(out)]) == 0
    assert_golden(out, EXPECTED[mode])


def test_build_graph_with_the_ci_catalog_equals_the_golden_text(tmp_path):
    (tmp_path / "calls.csv").write_text(CI_CALLS)
    (tmp_path / "types.txt").write_text(CI_CATALOG)
    out = tmp_path / "out"
    assert main(["build-graph", "--calls", str(tmp_path / "calls.csv"), "--type-catalog",
                 str(tmp_path / "types.txt"), "--mode", "static", "--out", str(out)]) == 0
    assert_golden(out, CI_CATALOG_EXPECTED)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_evaluate_outputs_equal_the_golden_text(tmp_path, inputs, fmt):
    out = tmp_path / "out"
    assert main(["evaluate", *inputs, "--mode", "fusion", "--k", "2", "--seed", "0",
                 "--format", fmt, "--out", str(out)]) == 0
    report = "report.csv" if fmt == "csv" else "report.json"
    assert_golden(out, {name: EVALUATE[name] for name in ("partition.json", report)})
    assert not (out / ("report.json" if fmt == "csv" else "report.csv")).exists()


def test_sweep_outputs_equal_the_golden_text(tmp_path, inputs):
    out = tmp_path / "out"
    assert main(["sweep", *inputs, "--k-max", "3", "--epochs", "3", "--out", str(out)]) == 0
    assert_golden(out, SWEEP)


@pytest.mark.parametrize("objective", sorted(ORACLE))
def test_oracle_line_equals_the_golden_text(inputs, capsys, objective):
    assert main(["oracle", *inputs, "--mode", "fusion", "--k", "3",
                 "--objective", objective]) == 0
    assert capsys.readouterr().out == ORACLE[objective]


def test_default_sweep_of_139_classes_equals_the_golden_digests(tmp_path):
    # the benchmark's sweep-139 run: 6 k-means restarts collapse, their
    # retries join Lloyd pools 47 (at k = 10) to 235 restarts wide, and
    # seeding reads the point table at d up to 10
    system, out = tmp_path / "system", tmp_path / "out"
    assert main(["synth", "--n-classes", "139", "--n-blocks", "6", "--seed", "1",
                 "--out", str(system)]) == 0
    assert main(["sweep", "--calls", str(system / "calls.csv"), "--perf",
                 str(system / "perf.csv"), "--out", str(out)]) == 0
    assert json.loads((out / "sweep.json").read_text())["best_k"] == {"static": 7, "fusion": 6}
    for name, digest in SWEEP_139.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_evaluate_of_1500_classes_on_the_lanczos_path_equals_the_golden_digests(tmp_path):
    # above the dense threshold: a connected 1500-vertex core, one eigsh call
    system, out = tmp_path / "system", tmp_path / "out"
    assert main(["synth", "--n-classes", "1500", "--n-blocks", "15", "--intra", "0.1",
                 "--inter", "0.003", "--seed", "7", "--out", str(system)]) == 0
    assert main(["evaluate", "--calls", str(system / "calls.csv"), "--perf",
                 str(system / "perf.csv"), "--k", "15", "--out", str(out)]) == 0
    for name, digest in EVALUATE_1500.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
