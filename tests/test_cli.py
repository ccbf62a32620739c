import csv
import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import pytest

import wpsdeg
from conftest import from_json_obj
from wpsdeg import WeightTuple
from wpsdeg.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    capsys.readouterr()
    return info.value.code


# One JSON call per subcommand, with its exit code and the keys whose values
# are JSON booleans; every other number must arrive as a decimal string.
JSON_CALLS = [
    (["enumerate", "--dim", "3", "--bound", "125"], 0, set()),
    (["classify", "1,4,10,25", "--degree", "5"], 0, {"solution"}),
    (["classify", "1,1,1,2"], 1, {"solution"}),
    (["singular", "1,4,10,25"], 0, {"maximal", "isolated"}),
    (["tree", "--family", "sum", "--max-weight", "125"], 0, {"is_tree"}),
    (["lift", "1,4,25"], 0, set()),
    (["lift", "1,1,2"], 1, set()),
    (["moduli-dim", "--weights", "1,1,1,1", "--degree", "5", "--q", "4"], 0, set()),
    (["moduli-dim", "--weights", "1,1,1,1", "--degree", "1", "--q", "3"], 1, set()),
]


@pytest.mark.parametrize("argv,code,flag_keys", JSON_CALLS,
                         ids=[" ".join(argv) for argv, *_ in JSON_CALLS])
def test_json_has_no_bare_numbers(capsys, argv, code, flag_keys):
    got, out = run(capsys, *argv, "--format", "json")
    assert got == code
    flags = set()

    def walk(node, key):
        if isinstance(node, bool):
            flags.add(key)
        assert not isinstance(node, (int, float)) or isinstance(node, bool), (key, node)
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, k)
        elif isinstance(node, list):
            for v in node:
                walk(v, key)

    walk(json.loads(out), None)
    assert flags == flag_keys


class TestEnumerate:
    def test_table_dim3(self, capsys):
        code, out = run(capsys, "enumerate", "--dim", "3", "--bound", "125")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("weights")
        assert len(lines) == 14  # header + 13 solutions
        assert "(1,1,2,4)" in out and "(3,4,63,98)" in out

    def test_csv_dim2(self, capsys):
        code, out = run(capsys, "enumerate", "--dim", "2", "--bound", "25",
                        "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "weights"
        assert [r[0] for r in rows[1:]] == ["1,1,1", "1,1,4", "1,4,25"]

    def test_json_round_trip(self, capsys):
        code, out = run(capsys, "enumerate", "--dim", "3", "--bound", "30",
                        "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["count"] == str(len(obj["solutions"]))
        records = [from_json_obj(r) for r in obj["solutions"]]
        assert (1, 2, 9, 12) in [r.weights for r in records]

    def test_md_report_has_version_and_footnote(self, capsys):
        code, out = run(capsys, "enumerate", "--dim", "3", "--bound", "125",
                        "--format", "md")
        assert code == 0
        assert "wpsdeg 0.1.0" in out
        assert "Known statuses from the literature" in out
        assert "nothing in this section is computed by this tool" in " ".join(out.split())
        assert "| (3,4,63,98) | open; potentially smoothable |" in out

    def test_md_report_no_footnote_off_dim3(self, capsys):
        _, out = run(capsys, "enumerate", "--dim", "2", "--bound", "25",
                     "--format", "md")
        assert "literature" not in out

    def test_with_degree_adds_moduli_column(self, capsys):
        code, out = run(capsys, "enumerate", "--dim", "3", "--bound", "4",
                        "--degree", "5", "--q", "4")
        assert code == 0
        assert "moduli_dim" in out
        assert "40" in out and "38" in out

    def test_invalid_bound(self, capsys):
        assert run_usage_error(capsys, "enumerate", "--dim", "3", "--bound", "0") == 2

    def test_invalid_dim(self, capsys):
        assert run_usage_error(capsys, "enumerate", "--dim", "0", "--bound", "5") == 2

    def test_dot_rejected(self, capsys):
        assert run_usage_error(capsys, "enumerate", "--dim", "3", "--bound", "5",
                               "--format", "dot") == 2

    def test_byte_determinism(self, capsys):
        _, first = run(capsys, "enumerate", "--dim", "3", "--bound", "125",
                       "--format", "json")
        _, second = run(capsys, "enumerate", "--dim", "3", "--bound", "125",
                        "--format", "json")
        assert first == second

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, streamed = run(capsys, "enumerate", "--dim", "2", "--bound", "25",
                          "--format", "csv")
        target = tmp_path / "solutions.csv"
        code, out = run(capsys, "enumerate", "--dim", "2", "--bound", "25",
                        "--format", "csv", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == streamed

    @pytest.mark.parametrize("target", ["missing/x.json", "."])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, target):
        path = str(tmp_path / target)
        with pytest.raises(SystemExit) as info:
            main(["classify", "1,1,1,1", "--out", path])
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        assert f"cannot write --out {path}" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_out_write_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["classify", "1,1,1,1", "--out", "/dev/full"])
        assert info.value.code == 2
        assert "cannot write --out /dev/full: No space left on device" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [
        OSError(errno.ENOSPC, "No space left on device"),
        UnicodeEncodeError("ascii", "\u2119", 0, 1, "ordinal not in range(128)"),
    ], ids=["OSError", "UnicodeError"])
    @pytest.mark.parametrize("step", ["write", "flush"])
    def test_failed_stdout_write_is_usage_error(self, capsys, monkeypatch, error, step):
        class Broken(io.StringIO):
            def fail(self, *args):
                raise error

        monkeypatch.setattr(Broken, step, Broken.fail)
        monkeypatch.setattr(sys, "stdout", Broken())
        with pytest.raises(SystemExit) as info:
            main(["classify", "1,1,1,1"])
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert "cannot write stdout: " in err and "Traceback" not in err

    @pytest.mark.parametrize("fmt,calls", [("json", 13), ("md", 0), ("table", 0), ("csv", 0)])
    def test_records_encoded_for_json_only(self, capsys, monkeypatch, fmt, calls):
        import wpsdeg.cli

        encoded = []
        original = wpsdeg.cli.to_json_obj

        def counting(record):
            encoded.append(record)
            return original(record)

        monkeypatch.setattr(wpsdeg.cli, "to_json_obj", counting)
        code, _ = run(capsys, "enumerate", "--dim", "3", "--bound", "125", "--format", fmt)
        assert (code, len(encoded)) == (0, calls)


class TestClassify:
    def test_p2_type(self, capsys):
        code, out = run(capsys, "classify", "1,4,10,25")
        assert code == 0
        assert "P2Type" in out
        assert "smoothable (ℙ²-type family)" in out

    def test_sporadic(self, capsys):
        code, out = run(capsys, "classify", "3,4,63,98")
        assert code == 0
        assert "Sporadic" in out
        assert "unknown" in out

    def test_not_a_solution(self, capsys):
        code, out = run(capsys, "classify", "1,1,1,2")
        assert code == 1
        assert "not a solution" in out

    def test_normalizes_first(self, capsys):
        code, out = run(capsys, "classify", "2,2,2,2")
        assert code == 0
        assert "note: normalized to (1,1,1,1)" in out
        assert "P2Type" in out

    def test_json_shape(self, capsys):
        code, out = run(capsys, "classify", "1,1,2,4", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["solution"] is True
        assert obj["record"]["classification"] == "Both"

    def test_malformed_weights(self, capsys):
        assert run_usage_error(capsys, "classify", "1,x,3") == 2
        assert run_usage_error(capsys, "classify", "4") == 2
        assert run_usage_error(capsys, "classify", "1,-2,3") == 2

    # A weight list is parsed straight into a WeightTuple, whose own check
    # refuses a bad list with its reason.
    @pytest.mark.parametrize("text,reason", [
        ("1,x,3", "invalid literal for int() with base 10: 'x'"),
        ("4", "need at least two weights"),
        ("1,-2,3", "weights must be positive integers, got -2"),
    ])
    def test_malformed_weights_name_text_and_reason(self, capsys, text, reason):
        with pytest.raises(SystemExit):
            main(["classify", text])
        assert f"invalid weights {text!r}: {reason}" in capsys.readouterr().err

    def test_weights_parse_to_a_weight_tuple(self):
        weights = build_parser().parse_args(["lift", "4,1,2"]).weights
        assert type(weights) is WeightTuple and weights == (1, 2, 4)

    # The three dimension-3 solutions to 10^4 with two rigid points, whose
    # notations are joined with '|' in one cell.
    @pytest.mark.parametrize("weights", ["16,27,256,2197", "16,27,2197,4000", "20,27,3200,4913"])
    def test_md_cells_escape_the_separator(self, capsys, weights):
        code, out = run(capsys, "classify", weights, "--format", "md")
        header, rule, row = out.splitlines()
        assert code == 0 and "\\|" in row
        assert len(re.findall(r"(?<!\\)\|", row)) == header.count("|") == rule.count("|")


class TestSingular:
    def test_five_strata(self, capsys):
        code, out = run(capsys, "singular", "1,4,10,25")
        assert code == 0
        body = out.strip().splitlines()
        assert len(body) == 6  # header + 5 strata
        for notation in ["1/25(1,4,10)", "1/10(1,4,5)", "1/4(1,1,2)",
                         "1/2(1,1)", "1/5(1,4)"]:
            assert notation in out
        assert out.count("StrictlyKlt") == 1

    def test_smooth_note(self, capsys):
        code, out = run(capsys, "singular", "1,1,1,1")
        assert code == 0
        assert out.strip() == "note: smooth"

    def test_normalization_note(self, capsys):
        code, out = run(capsys, "singular", "1,2,4")
        assert code == 0
        assert "note: normalized to (1,1,2)" in out
        assert "1/2(1,1)" in out

    def test_json_shape(self, capsys):
        code, out = run(capsys, "singular", "1,1,2,4", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert [s["transverse"] for s in obj["strata"]] == ["1/2(1,1)", "1/4(1,1,2)"]
        assert obj["strata"][0]["maximal"] is True


class TestTree:
    def test_dot_path_graph(self, capsys):
        code, out = run(capsys, "tree", "--family", "sum", "--max-weight", "125",
                        "--format", "dot")
        assert code == 0
        assert out.startswith("graph sum_mutations {")
        assert out.count(" -- ") == 2
        assert '"(1,1,2,4)" -- "(1,2,9,12)" [label="fix(1,2)"];' in out
        assert '"(1,2,9,12)" -- "(1,9,50,60)" [label="fix(1,9)"];' in out

    def test_json_markov(self, capsys):
        code, out = run(capsys, "tree", "--family", "markov", "--max-weight", "2",
                        "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["nodes"] == [["1", "1", "1"], ["1", "1", "2"]]
        assert obj["is_tree"] is True

    def test_single_node(self, capsys):
        code, out = run(capsys, "tree", "--family", "sum", "--max-weight", "4")
        assert code == 0
        assert "nodes: 1" in out and "edges: 0" in out
        assert "(1,1,2,4)" in out

    def test_invalid_family(self, capsys):
        assert run_usage_error(capsys, "tree", "--family", "markoff",
                               "--max-weight", "10") == 2

    def test_invalid_bound(self, capsys):
        assert run_usage_error(capsys, "tree", "--family", "sum",
                               "--max-weight", "0") == 2

    def test_dot_determinism(self, capsys):
        _, first = run(capsys, "tree", "--family", "markov", "--max-weight", "200",
                       "--format", "dot")
        _, second = run(capsys, "tree", "--family", "markov", "--max-weight", "200",
                        "--format", "dot")
        assert first == second


class TestLift:
    def test_lifts_known_solution(self, capsys):
        code, out = run(capsys, "lift", "1,1,4")
        assert code == 0
        assert out.strip() == "(1,1,2,4)"

    def test_lifts_markov_square(self, capsys):
        code, out = run(capsys, "lift", "1,4,25")
        assert code == 0
        assert out.strip() == "(1,4,10,25)"

    def test_rejects_non_solution(self, capsys):
        code, out = run(capsys, "lift", "1,1,2")
        assert code == 1
        assert "not a dimension-2 solution" in out

    def test_json_shape(self, capsys):
        code, out = run(capsys, "lift", "1,1,1", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"weights": ["1", "1", "1"],
                                   "lifted": ["1", "1", "1", "1"]}


class TestModuliDim:
    def test_quintic_surfaces(self, capsys):
        code, out = run(capsys, "moduli-dim", "--weights", "1,1,1,1",
                        "--degree", "5", "--q", "4")
        assert code == 0
        assert out.strip() == "40"

    def test_default_q(self, capsys):
        code, out = run(capsys, "moduli-dim", "--weights", "1,1,1,1", "--degree", "5")
        assert code == 0
        assert out.strip() == "40"

    def test_non_integral_degree(self, capsys):
        code, out = run(capsys, "moduli-dim", "--weights", "1,1,1,1",
                        "--degree", "1", "--q", "3")
        assert code == 1
        assert "not integral" in out

    def test_json_shape(self, capsys):
        code, out = run(capsys, "moduli-dim", "--weights", "1,2,9,12",
                        "--degree", "5", "--q", "4", "--format", "json")
        assert code == 0
        assert json.loads(out)["moduli_dim"] == "37"

    def test_missing_degree(self, capsys):
        assert run_usage_error(capsys, "moduli-dim", "--weights", "1,1,1,1") == 2


class TestPositiveOptions:
    """--degree and --q are checked alike wherever they are accepted."""

    CASES = [
        (["enumerate", "--dim", "3", "--bound", "4", "--degree", "5", "--q", "0"], "--q"),
        (["enumerate", "--dim", "3", "--bound", "4", "--q", "-4"], "--q"),
        (["enumerate", "--dim", "3", "--bound", "4", "--degree", "0"], "--degree"),
        (["classify", "1,1,1,1", "--degree", "5", "--q", "0"], "--q"),
        (["classify", "1,1,1,1", "--degree", "0"], "--degree"),
        (["classify", "1,1,1,1", "--degree", "-3"], "--degree"),
        (["classify", "1,1,1,1", "--degree", "5", "--q", "-4"], "--q"),
        (["moduli-dim", "--weights", "1,1,1,1", "--degree", "0"], "--degree"),
        (["moduli-dim", "--weights", "1,1,1,1", "--degree", "5", "--q", "0"], "--q"),
    ]

    @pytest.mark.parametrize("argv,option", CASES)
    def test_rejected_with_usage_error(self, capsys, argv, option):
        with pytest.raises(SystemExit) as info:
            main(argv)
        captured = capsys.readouterr()
        assert info.value.code == 2
        assert captured.out == ""
        assert captured.err.rstrip().endswith(f"error: {option} must be at least 1")

    def test_dot_rejected_with_message(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["classify", "1,1,1,1", "--format", "dot"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: wpsdeg classify ")
        assert "invalid choice: 'dot'" in err

    def test_positive_values_still_accepted(self, capsys):
        code, out = run(capsys, "classify", "1,1,1,1", "--degree", "1", "--q", "1")
        assert code == 0
        assert "moduli_dim" in out


@pytest.mark.parametrize("command,formats", [
    ("classify", "json,csv,table,md"),
    ("enumerate", "json,csv,table,md"),
    ("singular", "json,csv,table,md"),
    ("lift", "json,csv,table,md"),
    ("moduli-dim", "json,csv,table,md"),
    ("tree", "json,csv,table,md,dot"),
])
def test_each_subcommand_offers_exactly_its_formats(capsys, command, formats):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args([command, "--help"])
    assert info.value.code == 0
    assert set(re.findall(r"--format \{([^}]*)\}", capsys.readouterr().out)) == {formats}


class TestCachedParser:
    """The parser is built once per process; handlers are found at call time."""

    def test_repeated_calls_give_identical_output(self, capsys):
        argv = ("singular", "1,4,16,27", "--format", "json")
        assert run(capsys, *argv) == run(capsys, *argv)

    def test_replaced_handler_sees_later_calls(self, capsys, monkeypatch):
        import wpsdeg.cli

        run(capsys, "singular", "1,1,2,4")
        calls = []
        original = wpsdeg.cli.cmd_singular

        def counting(args):
            calls.append(args.weights)
            return original(args)

        monkeypatch.setattr(wpsdeg.cli, "cmd_singular", counting)
        code, out = run(capsys, "singular", "1,1,2,4")
        assert code == 0
        assert "1/2(1,1)" in out
        assert calls == [(1, 1, 2, 4)]

    def test_replaced_search_sees_enumerate_calls(self, capsys, monkeypatch):
        import wpsdeg.search

        calls = []
        original = wpsdeg.search.enumerate_solutions

        def counting(n, bound):
            calls.append((n, bound))
            return original(n, bound)

        monkeypatch.setattr(wpsdeg.search, "enumerate_solutions", counting)
        code, out = run(capsys, "enumerate", "--dim", "2", "--bound", "25", "--format", "csv")
        assert code == 0
        assert "1,1,1" in out
        assert calls == [(2, 25)]

    def test_import_does_not_build_parser(self):
        src = str(Path(wpsdeg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import wpsdeg.cli; print(wpsdeg.cli.build_parser.cache_info().currsize)"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


@pytest.mark.parametrize("argv,code,stdout", [
    (["lift", "1,1,4"], 0, "(1,1,2,4)\n"),
    (["lift", "1,1,2"], 1, "(1,1,2) is not a dimension-2 solution\n"),
    (["enumerate", "--dim", "0", "--bound", "1"], 2, ""),
])
def test_module_exit_code_reaches_shell(argv, code, stdout):
    src = str(Path(wpsdeg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "wpsdeg.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == stdout


def test_denumerant_past_table_limit_is_usage_error(capsys):
    # lcm(977, 983, 991, 997) is about 9.5e11 and the degree about 9.9e11, so no
    # interpolation applies; the limit is checked before the table is allocated.
    start = perf_counter()
    with pytest.raises(SystemExit) as info:
        main(["moduli-dim", "--weights", "977,983,991,997", "--degree", "1000000000"])
    captured = capsys.readouterr()
    assert perf_counter() - start < 1.0
    assert info.value.code == 2
    assert captured.out == ""
    assert "needs 987000000001 table entries, over 10000000" in captured.err


def test_huge_degree_on_small_weights_is_instant(capsys):
    start = perf_counter()
    code, out = run(capsys, "moduli-dim", "--weights", "1,2,3,5", "--degree", "10000000",
                    "--q", "11")
    assert perf_counter() - start < 1.0
    assert code == 0
    assert int(out) > 0


def test_germ_past_walk_limit_is_usage_error(capsys):
    # 1/1000000007(1,2,1000000004) is Gorenstein, so no element has age below 1
    # and a full walk would visit 10^9 elements.  CPU time, so that a busy
    # machine does not fail the test.
    start = process_time()
    with pytest.raises(SystemExit) as info:
        main(["singular", "1,2,1000000004,1000000007"])
    captured = capsys.readouterr()
    assert process_time() - start < 3.0
    assert info.value.code == 2
    assert captured.out == ""
    assert ("1/1000000007(1,2,1000000004): no age below 1 among the first 2000000 of "
            "1000000006 elements") in captured.err


def test_canonical_germ_inside_walk_limit_is_classified(capsys):
    # r - 1 = 1000002 elements, all walked.
    code, out = run(capsys, "singular", "1,2,1000000,1000003", "--format", "json")
    assert code == 0
    verdicts = {s["transverse"]: s["verdict"] for s in json.loads(out)["strata"]}
    assert verdicts["1/1000003(1,2,1000000)"] == "StrictlyCanonical"


def test_number_of_weights_sets_no_exponential_cost(capsys):
    # P^23: 24 weights, so a walk over index subsets would visit 2^24 of them.
    start = process_time()
    code, out = run(capsys, "classify", "1," * 23 + "1", "--format", "csv")
    assert process_time() - start < 1.0
    assert code == 0
    assert out.startswith("weights,")


@pytest.mark.parametrize("argv,message", [
    # Below the dimension limit the search would recurse 995 levels deep and crash.
    (["enumerate", "--dim", "995", "--bound", "1"],
     "dimension 995 is past the search limit of 500"),
    # Without the other limits the next call would not finish, and a max weight
    # of a few thousand digits would hold millions of tree nodes before printing.
    (["enumerate", "--dim", "3", "--bound", str(10**11)],
     f"bound {10**11} is past the search limit of 40000"),
    (["enumerate", "--dim", "6", "--bound", "1000"],
     "dimension 6 with bound 1000 is past the search limit"),
    (["tree", "--family", "markov", "--max-weight", str(10**100 + 1)],
     "past the tree limit of 1e+100"),
])
def test_cost_limit_is_usage_error(capsys, argv, message):
    start = process_time()
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert process_time() - start < 0.1
    assert info.value.code == 2
    assert captured.out == ""
    assert message in captured.err


def _decimal_product(offsets, digits):
    """prod(10^digits + k) written out from its coefficients in X = 10^digits,
    which all stay below X, so no large int is converted to a string."""
    coefficients = [1]
    for k in offsets:
        coefficients = [a + k * b for a, b in zip(coefficients + [0], [0] + coefficients)]
    return "1" + "".join(str(c).zfill(digits) for c in coefficients[1:])


@pytest.mark.parametrize("fmt", ["json", "csv", "table", "md"])
def test_products_past_the_int_str_limit_print_in_full(capsys, fmt):
    # CPython refuses int/str conversions past 4300 digits by default; this
    # product has 4801.  Exit 1 is the verdict: not a solution.
    weights = ",".join("1" + str(k).zfill(1200) for k in (1, 3, 7, 9))
    code, out = run(capsys, "classify", weights, "--format", fmt)
    assert code == 1
    product = _decimal_product((1, 3, 7, 9), 1200)
    assert len(product) == 4801
    assert product in out
    assert "not a solution" in out


def test_weight_past_the_int_str_limit_is_parsed(capsys):
    weights = ["1" + str(k).zfill(4400) for k in (1, 3, 7, 9)]
    code, out = run(capsys, "classify", ",".join(weights), "--format", "json")
    assert code == 1
    assert json.loads(out)["record"]["weights"] == weights


# A caller's digit limit set apart from CPython's default of 4300, and below
# the 4801 digits of the product that the classify call prints.
CALLER_DIGIT_LIMIT = 4321


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="CPython before 3.10.7 has no int/str digit limit")
@pytest.mark.parametrize("argv,code,printed", [
    (["lift", "1,1,4"], 0, "(1,1,2,4)"),
    (["classify", ",".join("1" + str(k).zfill(1200) for k in (1, 3, 7, 9))], 1,
     _decimal_product((1, 3, 7, 9), 1200)),
    (["enumerate", "--dim", "0", "--bound", "1"], 2, None),
    (["enumerate", "--dim", "3", "--bound", "40001"], 2, None),
], ids=["return", "print-4801-digits", "usage-error", "cost-limit"])
def test_caller_int_str_limit_is_restored(capsys, argv, code, printed):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(CALLER_DIGIT_LIMIT)
    try:
        if printed is None:
            assert run_usage_error(capsys, *argv) == code
        else:
            got, out = run(capsys, *argv)
            assert got == code
            assert printed in out
        assert sys.get_int_max_str_digits() == CALLER_DIGIT_LIMIT
    finally:
        sys.set_int_max_str_digits(before)


def test_no_subcommand_is_usage_error(capsys):
    assert run_usage_error(capsys) == 2


class TestEachTupleAnalysedOnce:
    """Each tuple is analysed once, by the record built for it."""

    @pytest.fixture
    def strata_calls(self, monkeypatch):
        import wpsdeg.cli
        import wpsdeg.singular

        calls = []
        original = wpsdeg.singular.singular_strata

        def counting(weights):
            calls.append(tuple(weights))
            return original(weights)

        for module in (wpsdeg.singular, wpsdeg.cli):
            monkeypatch.setattr(module, "singular_strata", counting)
        return calls

    @pytest.mark.parametrize("argv,reports", [
        (["enumerate", "--dim", "3", "--bound", "125", "--format", "json"], 13),
        (["classify", "1,4,16,27"], 1),
        (["classify", "1,1,1,2"], 0),
    ])
    def test_records_build_every_report(self, capsys, monkeypatch, argv, reports):
        import wpsdeg.records

        calls = []
        original = wpsdeg.records.smoothability_report

        def counting(weights):
            calls.append(tuple(weights))
            return original(weights)

        monkeypatch.setattr(wpsdeg.records, "smoothability_report", counting)
        run(capsys, *argv)
        assert len(calls) == reports

    # Rigid points are read off the weights, so records build no strata.
    def test_enumerate_makes_no_strata_call(self, capsys, strata_calls):
        code, out = run(capsys, "enumerate", "--dim", "4", "--bound", "300",
                        "--degree", "5", "--format", "md")
        assert code == 0
        assert "98 solutions." in out
        assert strata_calls == []

    @pytest.mark.parametrize("weights", ["1,1,2,4", "1,4,16,27", "3,4,63,98"])
    def test_classify_at_most_one_strata_call(self, capsys, strata_calls, weights):
        code, _ = run(capsys, "classify", weights, "--degree", "5")
        assert code == 0
        assert strata_calls == []

    def test_singular_one_strata_call(self, capsys, strata_calls):
        code, _ = run(capsys, "singular", "1,4,10,25")
        assert code == 0
        assert strata_calls == [(1, 4, 10, 25)]
