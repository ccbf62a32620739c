"""Spans around wpsdeg's layer boundaries, recorded from outside the program.

Tracer.install replaces each function in PROBES by a wrapper at the module
attribute its callers look it up under, so no file of wpsdeg changes.  A
span is (name, start_ns, end_ns, parent, op, n): parent is the index of the
enclosing span or -1, op the id of the CLI call it belongs to, and n a count
taken from the call's arguments or result (0 where none is defined).

layer_metrics turns one pass's spans into the per-layer metrics.  A layer's
self time is its span time minus the part its child spans cover.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter_ns

NS = 1e9


def _denumerant_cells(args, result) -> int:
    degree, weights = args
    return len(weights) * (degree + 1) if degree >= 0 else 0


# (module, attribute, span name, count from (args, result) or None)
PROBES = [
    *(("wpsdeg.cli", f"cmd_{c}", "cli.handler", None)
      for c in ("enumerate", "classify", "singular", "tree", "lift", "moduli_dim")),
    ("wpsdeg.search", "enumerate_solutions", "search.enumerate", lambda a, r: len(r)),
    ("wpsdeg.search", "is_well_formed", "search.wellformed", None),
    ("wpsdeg.search", "classify_solution", "mutation.classify", None),
    ("wpsdeg.singular", "classify_solution", "mutation.classify", None),
    ("wpsdeg.search", "isolated_rigid_points", "singular.rigid_points", None),
    ("wpsdeg.singular", "isolated_rigid_points", "singular.rigid_points", None),
    ("wpsdeg.singular", "singular_strata", "singular.strata", None),
    ("wpsdeg.cli", "singular_strata", "singular.strata", None),
    ("wpsdeg.singular", "reid_tai_classify", "singular.reid_tai", lambda a, r: a[0].order),
    ("wpsdeg.records", "smoothability_report", "singular.smoothability", None),
    ("wpsdeg.cli", "record_for_solution", "records.record", None),
    ("wpsdeg.cli", "record_for_non_solution", "records.record", None),
    ("wpsdeg.cli", "to_json_obj", "records.serialize", None),
    ("wpsdeg.cli", "to_csv_row", "records.serialize", None),
    ("wpsdeg.records", "moduli_component_dimension", "weights.moduli", None),
    ("wpsdeg.cli", "moduli_component_dimension", "weights.moduli", None),
    ("wpsdeg.weights", "denumerant", "weights.denumerant", _denumerant_cells),
    ("wpsdeg.cli", "normalize", "weights.normalize", None),
    ("wpsdeg.cli", "generate_tree", "mutation.tree", lambda a, r: len(r.nodes)),
    ("wpsdeg.cli", "lift", "mutation.lift", None),
]


class Tracer:
    """Span store for one process.  Set .op before each CLI call."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, fn, name: str, count=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            n = 0
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(args, result)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, n)

        return traced

    def install(self) -> None:
        for module, attr, name, count in PROBES:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(getattr(mod, attr), name, count))


def self_times(spans) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for name, start, end, parent, op, n in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, op, n) in enumerate(spans):
        covered, reach = 0, start
        for lo, hi in sorted(children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans, stdout_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one pass, keyed by the names in BENCHMARK.json."""
    total = defaultdict(int)
    own = defaultdict(int)
    calls = defaultdict(int)
    counted = defaultdict(int)
    for span, self_ns in zip(spans, self_times(spans)):
        name, start, end, parent, op, n = span
        total[name] += end - start
        own[name] += self_ns
        calls[name] += 1
        counted[name] += n

    # Strata computed to annotate solutions (in the search and for each
    # record) rather than asked for by the singular subcommand: the
    # repetition that one record per tuple would remove.
    annotation_strata = sum(1 for name, start, end, parent, op, n in spans
                            if name == "singular.strata"
                            and (parent < 0 or spans[parent][0] != "cli.handler"))

    raw = calls["search.wellformed"]
    records = calls["records.record"]
    return {
        "search.enumerate_self_s": own["search.enumerate"] / NS,
        "search.wellformed_s": total["search.wellformed"] / NS,
        "search.raw_candidates": raw,
        "search.solutions": counted["search.enumerate"],
        "search.wellformed_ratio": counted["search.enumerate"] / raw if raw else 0.0,
        "singular.strata_s": total["singular.strata"] / NS,
        "singular.strata_calls": calls["singular.strata"],
        "singular.strata_per_record": annotation_strata / records if records else 0.0,
        "singular.rigid_points_self_s": own["singular.rigid_points"] / NS,
        "singular.smoothability_self_s": own["singular.smoothability"] / NS,
        "singular.reid_tai_s": total["singular.reid_tai"] / NS,
        "singular.germs_classified": calls["singular.reid_tai"],
        "singular.reid_tai_order_sum": counted["singular.reid_tai"],
        "weights.denumerant_s": total["weights.denumerant"] / NS,
        "weights.denumerant_calls": calls["weights.denumerant"],
        "weights.denumerant_cells": counted["weights.denumerant"],
        "weights.moduli_self_s": own["weights.moduli"] / NS,
        "weights.normalize_s": total["weights.normalize"] / NS,
        "mutation.tree_s": total["mutation.tree"] / NS,
        "mutation.tree_nodes": counted["mutation.tree"],
        "mutation.classify_s": total["mutation.classify"] / NS,
        "mutation.classify_calls": calls["mutation.classify"],
        "mutation.lift_s": total["mutation.lift"] / NS,
        "records.record_self_s": own["records.record"] / NS,
        "records.records_built": records,
        "records.serialize_s": total["records.serialize"] / NS,
        "cli.parse_s": own["cli.main"] / NS,
        "cli.render_self_s": own["cli.handler"] / NS,
        "cli.ops": calls["cli.main"],
        "cli.stdout_bytes": stdout_bytes,
    }
