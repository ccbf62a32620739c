"""The public API holds only names the package itself or the benchmark uses.

A name in wpsdeg.__all__ must be read (an ast Load) in some module of the
package other than __init__.py, or be wrapped by the benchmark's tracer
(bench/spans.py PROBES, read with runpy so nothing is written under bench/),
or be listed in KEPT with the reason it stays.  A name only tests call
belongs in the tests.
"""

import ast
import runpy
from pathlib import Path
from types import ModuleType

import pytest

import wpsdeg

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in (ROOT / "src" / "wpsdeg").glob("*.py") if p.name != "__init__.py")
PROBED = {attribute for _, attribute, *_ in runpy.run_path(str(ROOT / "bench" / "spans.py"))["PROBES"]}

KEPT = {
    "aut_dimension": "dim Aut is a paper quantity, and the planned --explain evidence may read it",
    "brute_force_oracle": "the unpruned reference search the tests and the README check against",
    "sum_type_decompose": "the (alpha, beta, gamma) evidence planned for sum-type verdicts",
}


def _loaded_names() -> set[str]:
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
    return names


LOADED = _loaded_names()
PUBLIC = sorted(name for name in wpsdeg.__all__ if name != "__version__")


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_has_a_caller(name):
    assert name in LOADED or name in PROBED or name in KEPT, (
        f"{name} is public but nothing in src/wpsdeg or bench/spans.py PROBES uses it")


@pytest.mark.parametrize("name", sorted(KEPT))
def test_kept_name_is_public_and_has_no_caller(name):
    # Once a kept name gains a caller, its KEPT entry goes.
    assert name in wpsdeg.__all__
    assert name not in LOADED and name not in PROBED


def test_all_lists_exactly_the_public_names():
    bound = {name for name, value in vars(wpsdeg).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert set(wpsdeg.__all__) - {"__version__"} == bound
    assert len(wpsdeg.__all__) == len(set(wpsdeg.__all__))
