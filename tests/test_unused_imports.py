"""Every name a module of the package imports is read in that module.

Checked for src/wpsdeg/*.py except __init__.py, whose imports are the public
API (tests/test_public_api.py).  A name counts as read when the module holds
an ast Load of it.  The only exceptions are the PROBE_ONLY pairs: imports that
no code reads but bench/spans.py PROBES wraps at that module attribute (read
with runpy, so nothing is written under bench/).  They go once the benchmark
stops wrapping them there.
"""

import ast
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in (ROOT / "src" / "wpsdeg").glob("*.py") if p.name != "__init__.py")
PROBES = {(module, attribute) for module, attribute, *_ in
          runpy.run_path(str(ROOT / "bench" / "spans.py"))["PROBES"]}

PROBE_ONLY = {
    ("wpsdeg.search", "classify_solution"),
    ("wpsdeg.search", "isolated_rigid_points"),
}


def _imports_and_loads(path: Path) -> tuple[set[str], set[str]]:
    imported, loaded = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
    return imported, loaded


MODULES = {f"wpsdeg.{path.stem}": _imports_and_loads(path) for path in SOURCES}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_import_is_read(module):
    imported, loaded = MODULES[module]
    unread = {name for name in imported - loaded if (module, name) not in PROBE_ONLY}
    assert not unread, f"{module} imports {sorted(unread)} but never reads them"


@pytest.mark.parametrize("module,name", sorted(PROBE_ONLY))
def test_probe_only_import_is_probed_and_unread(module, name):
    # Once the benchmark stops wrapping it, or code reads it, the entry goes.
    imported, loaded = MODULES[module]
    assert (module, name) in PROBES
    assert name in imported and name not in loaded
