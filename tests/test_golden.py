"""Replay the golden CLI corpus: every case must match byte for byte.

The corpus (tests/golden/cli_corpus.json) pins the exit code, stdout and
any --out file of each case; tests/golden/capture.py regenerates it, and
the corpus must hold exactly the cases capture.py lists, in its order.
"""

import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
sys.path.insert(0, str(GOLDEN))

from capture import _cases, run_case  # noqa: E402

CORPUS = json.loads((GOLDEN / "cli_corpus.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CORPUS, ids=[" ".join(c["argv"]) for c in CORPUS])
def test_cli_output_matches_corpus(case, tmp_path):
    assert run_case(case["argv"], str(tmp_path / "out.txt")) == case


def test_corpus_holds_the_capture_cases_in_order():
    # A case list edited without regenerating the corpus, or the reverse, fails here.
    assert [case["argv"] for case in CORPUS] == _cases()
