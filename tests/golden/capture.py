"""Capture the golden CLI corpus replayed by tests/test_golden.py.

Each case is an argv list for wpsdeg.cli.main, stored with its exit code
and stdout.  An argv entry "{out}" stands for a fresh file path; the file's
contents are stored as well.  Run it against the code whose output is to be
pinned, from the repository root:

    PYTHONPATH=src python3 tests/golden/capture.py > tests/golden/cli_corpus.json
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

FORMATS = ("json", "csv", "table", "md")
OUT = "{out}"


def _cases() -> list[list[str]]:
    cases = []

    def every_format(*argv):
        cases.extend([*argv, "--format", fmt] for fmt in FORMATS)

    every_format("enumerate", "--dim", "1", "--bound", "5")
    every_format("enumerate", "--dim", "2", "--bound", "25")
    every_format("enumerate", "--dim", "3", "--bound", "125")
    every_format("enumerate", "--dim", "3", "--bound", "4", "--degree", "5", "--q", "4")
    every_format("enumerate", "--dim", "3", "--bound", "30", "--degree", "1", "--q", "3")
    every_format("enumerate", "--dim", "4", "--bound", "30", "--degree", "5")
    cases += [
        ["enumerate", "--dim", "3", "--bound", "1", "--format", "md"],
        ["enumerate", "--dim", "2", "--bound", "1", "--format", "md"],
        ["enumerate", "--dim", "5", "--bound", "20"],
        ["enumerate", "--dim", "3", "--bound", "60"],
    ]

    every_format("classify", "1,4,10,25")
    every_format("classify", "1,1,2,4", "--degree", "5", "--q", "4")
    every_format("classify", "1,1,1,2")
    every_format("classify", "2,2,2,2")
    every_format("classify", "2,4,6")
    every_format("classify", "1,4,25", "--degree", "1", "--q", "3")
    for weights in ("1,9,50,60", "1,4,16,27", "3,4,63,98", "1,1", "1,7,27,49"):
        cases.append(["classify", weights])
    cases += [
        ["classify", "1,1,1,1,1", "--degree", "5", "--format", "md"],
        ["classify", "1,2,9,12", "--degree", "2"],
    ]

    every_format("singular", "1,4,10,25")
    every_format("singular", "1,1,1,1")
    every_format("singular", "1,2,4")
    every_format("singular", "2,2,2,2")
    for weights in ("1,4,16,27", "1,1,2,4", "3,4,63,98"):
        cases.append(["singular", weights])

    for family, bound in (("sum", "125"), ("markov", "200"), ("sum", "4"), ("sum", "3")):
        every_format("tree", "--family", family, "--max-weight", bound)
        cases.append(["tree", "--family", family, "--max-weight", bound, "--format", "dot"])
    cases.append(["tree", "--family", "markov", "--max-weight", "1"])

    every_format("lift", "1,4,25")
    every_format("lift", "1,1,2")
    for weights in ("1,1,4", "1,1,1", "1,1,2,4", "2,2,2"):
        cases.append(["lift", weights])

    every_format("moduli-dim", "--weights", "1,1,1,1", "--degree", "5", "--q", "4")
    every_format("moduli-dim", "--weights", "1,1,1,1", "--degree", "1", "--q", "3")
    every_format("moduli-dim", "--weights", "2,2,2,2", "--degree", "5")
    every_format("moduli-dim", "--weights", "2,2,4", "--degree", "1", "--q", "3")
    cases += [
        ["moduli-dim", "--weights", "1,2,9,12", "--degree", "5", "--q", "4"],
        ["moduli-dim", "--weights", "1,1,1,1", "--degree", "5"],
    ]

    cases += [
        ["enumerate", "--dim", "2", "--bound", "25", "--format", "csv", "--out", OUT],
        ["enumerate", "--dim", "3", "--bound", "30", "--format", "md", "--out", OUT],
        ["classify", "1,1,1,2", "--out", OUT],
        ["singular", "2,2,2,2", "--format", "json", "--out", OUT],
        ["tree", "--family", "sum", "--max-weight", "125", "--format", "dot", "--out", OUT],
        ["lift", "1,1,2", "--format", "json", "--out", OUT],
        ["moduli-dim", "--weights", "1,1,1,1", "--degree", "1", "--q", "3", "--out", OUT],
    ]

    cases += [
        ["enumerate", "--dim", "3", "--bound", "5", "--format", "dot"],
        ["enumerate", "--dim", "0", "--bound", "5", "--format", "dot"],
        ["classify", "1,1,2,4", "--format", "dot"],
        ["singular", "1,1,2,4", "--format", "dot"],
        ["lift", "1,1,4", "--format", "dot"],
        ["moduli-dim", "--weights", "1,1,1,1", "--degree", "5", "--format", "dot"],
        ["moduli-dim", "--weights", "1,1,1,1", "--degree", "0", "--format", "dot"],
    ]
    return cases


def run_case(argv: list[str], out_path: str) -> dict:
    """Run one case in-process; exit code, stdout and any --out file."""
    from wpsdeg.cli import main

    real_argv = [out_path if a == OUT else a for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(real_argv)
        except SystemExit as exc:
            code = exc.code
    result = {"argv": argv, "code": code, "stdout": stdout.getvalue()}
    if OUT in argv:
        with open(out_path, encoding="utf-8", newline="") as handle:
            result["out"] = handle.read()
    return result


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out.txt")
        corpus = [run_case(argv, out_path) for argv in _cases()]
    json.dump(corpus, sys.stdout, indent=1, ensure_ascii=False)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
