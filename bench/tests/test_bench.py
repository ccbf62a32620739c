"""Tests for the benchmark's own code: workload generation, output checks and
span arithmetic.  Real outputs come from wpsdeg.cli.main on small inputs."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from run import Run  # noqa: E402
from workloads import BIG_SYSTEM_DEGREE, BOUND_125, NODE_SAMPLE, SINGULAR_OPS, make_ops  # noqa: E402


def cli(*argv) -> tuple[int, str]:
    from wpsdeg.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


def test_ops_depend_only_on_seed():
    for workload in ("tuple-mix", "enum-d5-report"):
        assert make_ops(workload, 7) == make_ops(workload, 7)
        assert make_ops(workload, 7) != make_ops(workload, 8)
    assert make_ops("enum-d3", 1) == make_ops("enum-d3", 2)


def test_tuple_mix_shape():
    ops = make_ops("tuple-mix", 3)
    kinds = [op["expect"]["kind"] for op in ops]
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "tree": 3, "classify": NODE_SAMPLE, "lift": NODE_SAMPLE,
        "singular": SINGULAR_OPS + len(BOUND_125), "moduli": 40}
    assert all(isinstance(a, str) for op in ops for a in op["argv"])
    big = [op["expect"] for op in ops if op["expect"]["kind"] == "moduli"
           and op["expect"]["degree"] * sum(op["expect"]["weights"]) // 4 > BIG_SYSTEM_DEGREE // 2]
    assert len(big) == 1
    for op in ops:
        w = op["expect"].get("weights")
        if op["expect"]["kind"] in ("classify", "lift"):
            assert checks.solves(w)
        elif w is not None:
            assert checks.well_formed(w)


def test_reference_arithmetic():
    assert checks.markov_nodes(100) == [(1, 1, 1), (1, 1, 2), (1, 2, 5), (1, 5, 13),
                                         (1, 13, 34), (1, 34, 89), (2, 5, 29)]
    assert {(1, 1, 2, 4), (1, 2, 9, 12), (1, 9, 50, 60)} <= set(checks.sum_nodes(125))
    assert all(checks.is_sum_quad(q) for q in checks.sum_nodes(10 ** 6))
    assert checks.count_monomials(5, (1, 1, 1, 1)) == 56
    assert checks.moduli_dim((1, 1, 1, 1), 5, 4) == 40
    assert checks.moduli_dim((1, 1, 1, 2), 1, 4) is None
    assert checks.strata((1, 4, 16, 27)) == {((1, 2), 4), ((2,), 16), ((3,), 27)}


def _expect(kind, **fields):
    return {"kind": kind, **fields}


def _corrupt_weight(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


CASES = [
    (_expect("enumerate", format="json", dim=3, bound=125, count=13),
     ("enumerate", "--dim", 3, "--bound", 125, "--format", "json"),
     lambda out: _corrupt_weight(out, '"12"', '"13"')),
    (_expect("enumerate", format="md", dim=3, bound=125, count=13, degree=5, moduli_sample=[0, 4, 12]),
     ("enumerate", "--dim", 3, "--bound", 125, "--degree", 5, "--format", "md"),
     lambda out: _corrupt_weight(out, "| (1,2,9,12) |", "| (1,2,9,13) |")),
    (_expect("tree", family="markov", nodes=checks.markov_nodes(10 ** 4)),
     ("tree", "--family", "markov", "--max-weight", 10 ** 4, "--format", "json"),
     lambda out: _corrupt_weight(out, '"29"', '"30"')),
    (_expect("classify", family="sum", weights=[1, 2, 9, 12], degree=5),
     ("classify", "1,2,9,12", "--degree", 5, "--format", "json"),
     lambda out: _corrupt_weight(out, '"moduli_dim": "', '"moduli_dim": "1')),
    (_expect("lift", weights=[1, 1, 4]),
     ("lift", "1,1,4", "--format", "csv"),
     lambda out: _corrupt_weight(out, "1,1,2,4", "1,1,3,4")),
    (_expect("singular", format="json", weights=[3, 5, 7, 2003]),
     ("singular", "3,5,7,2003", "--format", "json"),
     lambda out: _corrupt_weight(out, '"order": "2003"', '"order": "2002"')),
    (_expect("singular", format="table", weights=[1, 4, 16, 27]),
     ("singular", "1,4,16,27", "--format", "table"),
     lambda out: out.replace("27     1/27", "9      1/27")),
    (_expect("moduli", weights=[1, 2, 3, 5], degree=4),
     ("moduli-dim", "--weights", "1,2,3,5", "--degree", 4, "--format", "json"),
     lambda out: _corrupt_weight(out, '"moduli_dim": "', '"moduli_dim": "-')),
]


@pytest.mark.parametrize("expect,argv,corrupt", CASES, ids=[c[1][0] + "-" + c[0].get("format", "")
                                                              for c in CASES])
def test_check_accepts_output_and_rejects_corruption(expect, argv, corrupt):
    code, out = cli(*argv)
    assert checks.check(expect, code, out) is None
    bad = corrupt(out)
    assert bad != out
    assert checks.check(expect, code, bad) is not None
    assert checks.check(expect, 1, out) == "exit code 1"


def test_check_rejects_missing_tree_node_and_smooth_claim():
    expect = _expect("tree", family="sum", nodes=checks.sum_nodes(10 ** 4))
    code, out = cli("tree", "--family", "sum", "--max-weight", 10 ** 4, "--format", "json")
    obj = json.loads(out)
    obj["nodes"].pop()
    assert "nodes, expected" in checks.check(expect, code, json.dumps(obj))
    expect = _expect("singular", format="table", weights=[1, 2, 9, 12])
    assert checks.check(expect, 0, "note: smooth\n") is not None


def test_drift_between_passes_counts_as_failure():
    op = {"argv": ["lift", "1,1,4", "--format", "csv"], "expect": _expect("lift", weights=[1, 1, 4])}
    code, out = cli(*op["argv"])
    run = Run([op])
    run.check_pass({"ops": [{"code": code, "out": out, "err": ""}]})
    run.check_pass({"ops": [{"code": code, "out": out, "err": ""}]})
    assert (run.attempted, run.failed) == (2, 0)
    run.check_pass({"ops": [{"code": code, "out": out + " ", "err": ""}]})
    assert (run.attempted, run.failed) == (3, 1)


def test_self_time_on_hand_built_span_tree():
    tree = [
        ("cli.main", 0, 100, -1, 0, 0),
        ("cli.handler", 10, 90, 0, 0, 0),
        ("singular.strata", 20, 30, 1, 0, 0),
        ("records.record", 40, 80, 1, 0, 0),
        ("singular.strata", 45, 55, 3, 0, 0),
        ("weights.denumerant", 60, 70, 3, 0, 12),
    ]
    assert spans.self_times(tree) == [20, 30, 10, 20, 10, 10]
    metrics = spans.layer_metrics(tree, stdout_bytes=5)
    assert metrics["cli.parse_s"] == 20 / 1e9
    assert metrics["cli.render_self_s"] == 30 / 1e9
    assert metrics["records.record_self_s"] == 20 / 1e9
    assert metrics["singular.strata_s"] == 20 / 1e9
    assert metrics["singular.strata_calls"] == 2
    assert metrics["singular.strata_per_record"] == 1.0
    assert metrics["weights.denumerant_cells"] == 12
    assert metrics["search.wellformed_ratio"] == 0.0
    assert metrics["cli.stdout_bytes"] == 5


def test_tracer_links_parents_and_counts():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda x: [x] * x, "inner", lambda args, result: len(result))
    outer = tracer.wrap(lambda x: inner(x) + inner(x + 1), "outer")
    tracer.op = 4
    assert outer(2) == [2, 2, 3, 3, 3]
    names = [(s[0], s[3], s[4], s[5]) for s in tracer.spans]
    assert names == [("outer", -1, 4, 0), ("inner", 0, 4, 2), ("inner", 0, 4, 3)]
    assert all(s[1] <= s[2] for s in tracer.spans)
