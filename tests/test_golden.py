"""Replay the golden CLI corpus: every case must match byte for byte.

The corpus (tests/golden/cli_corpus.json) pins the exit code, stdout and
any --out file of each case; tests/golden/capture.py regenerates it.
"""

import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
sys.path.insert(0, str(GOLDEN))

from capture import run_case  # noqa: E402

CORPUS = json.loads((GOLDEN / "cli_corpus.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CORPUS, ids=[" ".join(c["argv"]) for c in CORPUS])
def test_cli_output_matches_corpus(case, tmp_path):
    assert run_case(case["argv"], str(tmp_path / "out.txt")) == case
