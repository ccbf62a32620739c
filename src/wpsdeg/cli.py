"""Command-line front end.

Subcommands: enumerate, classify, singular, tree, lift, moduli-dim.
Formats: json, csv, table, md everywhere; dot for tree only.  Output is
byte-deterministic: records are sorted, field order is fixed, and nothing
carries a timestamp (the markdown report embeds the version string only).

Exit codes: 0 success, 1 domain-level negative result (not a solution,
non-integral divisor degree), 2 usage error (output that cannot be written,
to --out or stdout, is one) or a cost limit (CostLimitError):
a denumerant table past weights.MAX_DENUMERANT_TABLE, a Reid-Tai walk past
singular.MAX_REID_TAI_WALK, a dimension past search.MAX_SEARCH_DIMENSION, a
search past search.MAX_SEARCH_BOUND or search.MAX_SEARCH_TUPLES, or a tree
past mutation.MAX_TREE_WEIGHT.
"""

import argparse
import csv
import functools
import io
import json
import sys

from . import __version__, search
from .mutation import Family, generate_tree, lift
from .records import (
    SolutionRecord,
    cell,
    json_value,
    record_for_non_solution,
    record_for_solution,
    to_csv_row,
    to_json_obj,
)
from .singular import singular_strata
from .weights import (
    CostLimitError,
    NonIntegralDegreeError,
    WeightTuple,
    moduli_component_dimension,
    normalize,
    satisfies_degeneration_equation,
)

FORMATS = ("json", "csv", "table", "md")


def _parse_weights(text: str) -> WeightTuple:
    try:
        return WeightTuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid weights {text!r}: {exc}")


def _fmt(weights) -> str:
    return "(" + cell(weights) + ")"


def _normalized(weights: WeightTuple) -> tuple[WeightTuple, list[str]]:
    """The well-formed model of the weights, plus a note when it differs."""
    wn = normalize(weights)
    return wn, [] if wn == weights else [f"normalized to {_fmt(wn)}"]


def _md_table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(c.replace("|", "\\|") for c in r) + " |" for r in [header, *rows]]
    lines.insert(1, "|" + "|".join("---" for _ in header) + "|")
    return "\n".join(lines)


def _output(args, code: int, obj, header=(), rows=(), notes=(), text=None) -> int:
    """Write the one text form of a result to args.out or stdout, return code.

    obj and rows hold raw values, encoded only when written: obj by
    json_value, handed to_json_obj for its records, each row value by cell.
    json dumps obj.  csv writes header and rows when there is a header.
    Otherwise the notes come first, then text if given, else the rows as an
    aligned table (table) or a markdown table (md, a '|' in a cell escaped),
    omitted when empty.  A write that fails is a usage error.
    """
    fmt = args.format
    if fmt == "json":
        text = json.dumps(json_value(obj, to_json_obj), indent=2, ensure_ascii=False)
    elif fmt == "csv" and header:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(cell, row) for row in rows)
        text = buffer.getvalue()
    else:
        lines = [f"note: {note}" for note in notes]
        if text is not None:
            lines.append(text)
        elif rows:
            rows = [list(map(cell, row)) for row in rows]
            if fmt == "table":
                widths = [max(len(r[i]) for r in [header, *rows]) for i in range(len(header))]
                for r in [header, *rows]:
                    lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
            else:
                lines.append(_md_table(header, rows))
        text = "\n".join(lines)
    if not text.endswith("\n"):
        text += "\n"
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except (OSError, UnicodeError) as exc:
        target = f"--out {args.out}" if args.out else "stdout"
        build_parser().error(f"cannot write {target}: {getattr(exc, 'strerror', None) or exc}")
    return code


def _record_table(records: list[SolutionRecord], fmt: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of solution records: the flat schema for csv, display otherwise."""
    if fmt == "csv":
        return list(SolutionRecord._fields), [to_csv_row(r) for r in records]
    header = ["weights", "sum", "product", "volume", "classification",
              "rigid_points", "verdict"]
    rows = []
    for r in records:
        volume = cell(r.volume_num) if r.volume_den == 1 else f"{r.volume_num}/{r.volume_den}"
        rows.append([_fmt(r.weights), cell(r.sum), cell(r.product), volume,
                     r.classification or "-", cell(r.rigid_points) or "-", r.verdict_text])
    if any(r.moduli_dim is not None for r in records):
        header.append("moduli_dim")
        for row, r in zip(rows, records):
            row.append(cell(r.moduli_dim) or "-")
    return header, rows


_LITERATURE_STATUS = [
    ("(1,1,1,1)", "smoothable; ℙ²-type family"),
    ("(1,1,2,4)", "smoothable; in both families"),
    ("(1,2,9,12)", "smoothable; sum-type family"),
    ("(1,4,10,25)", "smoothable; ℙ²-type family"),
    ("(1,4,16,27)", "not smoothable; rigid isolated point"),
    ("(1,6,9,32)",
     "not smoothable; rigidity shown via a hypersurface embedding, not computed here"),
    ("(1,7,27,49)", "not smoothable; rigid isolated point"),
    ("(1,9,50,60)", "smoothable; sum-type family"),
    ("(1,22,32,121)", "not smoothable; rigidity shown via a degree-2 embedding, not computed here"),
    ("(3,4,63,98)", "open; potentially smoothable"),
]


def cmd_enumerate(args) -> int:
    records = [record_for_solution(w, args.degree, args.q)
               for w in search.enumerate_solutions(args.dim, args.bound)]
    obj = {"dim": args.dim, "bound": args.bound, "count": len(records), "solutions": records}
    header, rows = _record_table(records, args.format)
    text = None
    if args.format == "md":
        header[5] = "rigid points"
        plural = "s" if len(records) != 1 else ""
        lines = [f"# Degeneration solutions: dimension {args.dim}, max weight {args.bound}",
                 "", f"wpsdeg {__version__}", "", f"{len(records)} solution{plural}.", "",
                 _md_table(header, rows)]
        if args.dim == 3:
            lines += ["", "## Known statuses from the literature", "",
                      "Reference data quoted from published classifications of these",
                      "spaces; nothing in this section is computed by this tool.", "",
                      _md_table(["space", "literature status"], _LITERATURE_STATUS)]
        text = "\n".join(lines)
    return _output(args, 0, obj, header, rows, text=text)


def cmd_classify(args) -> int:
    wn, notes = _normalized(args.weights)
    solution = satisfies_degeneration_equation(wn)
    record = (record_for_solution(wn, args.degree, args.q) if solution
              else record_for_non_solution(wn))
    obj = {"solution": solution, "notes": notes, "record": record}
    header, rows = _record_table([record], args.format)
    return _output(args, 0 if solution else 1, obj, header, rows, notes)


def cmd_singular(args) -> int:
    wn, notes = _normalized(args.weights)
    strata = singular_strata(wn)
    if not strata:
        notes.append("smooth")
    header = ["indices", "dimension", "order", "transverse", "verdict",
              "maximal", "isolated"]
    entries = [dict(zip(header, (s.indices, s.dimension, s.order, s.transverse.notation(),
                                 s.transverse.verdict, s.maximal, s.is_isolated_point)))
               for s in strata]
    obj = {"weights": wn, "notes": notes, "strata": entries}
    return _output(args, 0, obj, header, [entry.values() for entry in entries], notes)


def cmd_tree(args) -> int:
    graph = generate_tree(Family(args.family), args.max_weight)
    obj = {"family": graph.family.value, "max_weight": args.max_weight,
           "node_count": len(graph.nodes), "edge_count": len(graph.edges),
           "cycle_rank": graph.cycle_rank, "is_tree": graph.is_tree, "nodes": graph.nodes,
           "edges": [{"src": e.src, "dst": e.dst, "fixed": e.fixed} for e in graph.edges]}
    nodes = [_fmt(node) for node in graph.nodes]
    edges = [[_fmt(e.src), _fmt(e.dst), "fix" + _fmt(e.fixed)] for e in graph.edges]
    if args.format == "dot":
        lines = [f"graph {graph.family.value}_mutations {{"]
        lines += [f'  "{node}";' for node in nodes]
        lines += [f'  "{src}" -- "{dst}" [label="{label}"];' for src, dst, label in edges]
        lines.append("}")
    else:
        lines = [f"family: {graph.family.value}  max weight: {args.max_weight}  "
                 f"nodes: {len(graph.nodes)}  edges: {len(graph.edges)}  "
                 f"tree: {'yes' if graph.is_tree else 'no'}"]
        if args.format == "table":
            lines += nodes + ["  ".join(edge) for edge in edges]
        else:
            lines += ["", _md_table(["node"], [[node] for node in nodes])]
            if edges:
                lines += ["", _md_table(["src", "dst", "mutation"], edges)]
    rows = [["node", node, "", ""] for node in nodes] + [["edge", *edge] for edge in edges]
    return _output(args, 0, obj, ["kind", "src", "dst", "fixed"], rows, text="\n".join(lines))


def cmd_moduli_dim(args) -> int:
    wn, notes = _normalized(args.weights)
    q = args.q if args.q is not None else wn.dim + 1
    obj = {"weights": wn, "degree": args.degree, "q": q, "notes": notes}
    try:
        value = moduli_component_dimension(wn, args.degree, q)
    except NonIntegralDegreeError as exc:
        key, value, code, text = "error", str(exc), 1, f"error: {exc}"
    else:
        key, code = "moduli_dim", 0
        text = cell(value) if args.format == "table" else (
            f"moduli component dimension of degree-{args.degree} divisors "
            f"on {_fmt(wn)} at q={q}: **{value}**")
    obj[key] = value
    return _output(args, code, obj, ["weights", "degree", "q", key],
                   [[wn, args.degree, q, value]], notes, text)


def cmd_lift(args) -> int:
    w = args.weights
    if not satisfies_degeneration_equation(w):
        message = f"{_fmt(w)} is not a dimension-{w.dim} solution"
        return _output(args, 1, {"weights": w, "error": message}, text=message)
    lifted = lift(w)
    return _output(args, 0, {"weights": w, "lifted": lifted}, ["weights", "lifted"],
                   [[w, lifted]], text=_fmt(lifted))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and cached for the process.

    Subcommand `name` runs cmd_<name> (dashes as underscores); main looks the
    handler up at call time, so a replaced cmd_* attribute is still called.
    """
    parser = argparse.ArgumentParser(
        prog="wpsdeg",
        description="Weighted projective degenerations of projective space: "
                    "exact enumeration, classification and singularity reports.",
    )
    parser.add_argument("--version", action="version", version=f"wpsdeg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="all well-formed solutions up to a bound")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--degree", type=int,
                   help="also report moduli dimensions for divisors of this degree")
    p.add_argument("--q", type=int, help="pairing denominator (default dim+1)")

    p = sub.add_parser("classify", help="family membership and smoothability of one tuple")
    p.add_argument("weights", type=_parse_weights)
    p.add_argument("--degree", type=int)
    p.add_argument("--q", type=int)

    p = sub.add_parser("singular", help="singular strata with transverse types and verdicts")
    p.add_argument("weights", type=_parse_weights)

    p = sub.add_parser("tree", help="mutation graph of a family up to a weight bound")
    p.add_argument("--family", choices=[f.value for f in Family], required=True)
    p.add_argument("--max-weight", type=int, required=True, dest="max_weight")

    p = sub.add_parser("lift", help="lift a dimension-n solution one dimension up")
    p.add_argument("weights", type=_parse_weights)

    p = sub.add_parser("moduli-dim", help="moduli component dimension for divisors")
    p.add_argument("--weights", type=_parse_weights, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--q", type=int)

    for name, p in sub.choices.items():
        formats = FORMATS + ("dot",) if name == "tree" else FORMATS
        p.add_argument("--format", choices=formats, default="table")
        p.add_argument("--out", help="write output to this file instead of stdout")
    return parser


# Options that must be positive when given, checked in this order.
_AT_LEAST_ONE = ("dim", "bound", "max_weight", "degree", "q")


def main(argv=None) -> int:
    """Run one CLI call with the cached parser and return its exit code.

    Every integer is bounded by argv, so CPython's int/str digit limit
    (3.10.7+) is lifted for the call; the caller's limit is back in place
    on every way out, a return, a usage error or a cost limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name in _AT_LEAST_ONE:
        value = getattr(args, name, None)
        if value is not None and value < 1:
            parser.error(f"--{name.replace('_', '-')} must be at least 1")
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except CostLimitError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
