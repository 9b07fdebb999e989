"""Golden ``build-graph`` exports of a hand-written five-class system.

``Audit`` only calls itself, so it is an isolated vertex: it is listed in
``graph.json`` (and, with its CPU time, sets the normalization maximum) but has
no row in ``affinity.csv``. ``Stock`` has no perf row. The catalog declares one
``object`` type, whose ``String`` field falls back to the default cost, and one
``opaque`` type. Every weight is written as a plain float literal.
"""

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


@pytest.mark.parametrize("mode", sorted(EXPECTED))
def test_build_graph_exports_equal_the_golden_text(tmp_path, mode):
    (tmp_path / "calls.csv").write_text(CALLS)
    (tmp_path / "perf.csv").write_text(PERF)
    (tmp_path / "types.txt").write_text(CATALOG)
    out = tmp_path / "out"
    assert main(["build-graph", "--calls", str(tmp_path / "calls.csv"),
                 "--perf", str(tmp_path / "perf.csv"),
                 "--type-catalog", str(tmp_path / "types.txt"),
                 "--mode", mode, "--out", str(out)]) == 0
    for name, text in EXPECTED[mode].items():
        assert (out / name).read_bytes().decode() == text, name
