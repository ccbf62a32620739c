"""Every function the benchmark's tracer wraps must exist where it looks.

bench/spans.py names (module, attribute) pairs in PROBES, and its
Tracer.install replaces each attribute by a timing wrapper; a name that no
longer resolves makes `bench/run.py --trace 1` fail.  The file is read with
runpy, so nothing is written under bench/.
"""

import importlib
import runpy
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
PAIRS = sorted({(module, attribute) for module, attribute, *_ in
                runpy.run_path(str(SPANS))["PROBES"]})


def test_probes_listed():
    assert len(PAIRS) > 10


@pytest.mark.parametrize("module,attribute", PAIRS, ids=[f"{m}.{a}" for m, a in PAIRS])
def test_probe_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None))
