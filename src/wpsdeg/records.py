"""Solution records, and the one rule for writing any output value.

One flat record per weighted projective space, shared by every output
format.  Like every record class of the package it is a named tuple: its
fields are read-only and it compares, hashes and iterates as the plain tuple
of its fields.  json_value and cell are the only encoders of the package:
every subcommand writes its JSON through json_value, which hands each
SolutionRecord it meets to the record encoder it is given (to_json_obj), and
its csv, table and md cells through cell.  Integers become decimal strings,
in JSON too, so that consumers with 53-bit number types cannot corrupt large
products; None is null or an empty cell.  A cell joins a tuple's integers
with ',' and its notations with '|'; the csv module quotes per RFC 4180.
"""

from collections import namedtuple

from .singular import smoothability_report
from .weights import (
    NonIntegralDegreeError,
    WeightTuple,
    anticanonical_volume,
    moduli_component_dimension,
)


class SolutionRecord(namedtuple("SolutionRecord", "weights sum product volume_num volume_den "
                                "classification rigid_points verdict_text moduli_dim",
                                defaults=(None,))):
    """weights and rigid_points (notations) are tuples, classification and
    moduli_dim may be None, every other field an int or a str."""

    __slots__ = ()


def record_for_solution(weights, degree: int | None = None,
                        q: int | None = None) -> SolutionRecord:
    """Full record for a well-formed solution; moduli_dim when degree given.

    The weights are analysed by smoothability_report, which raises ValueError
    on a tuple that is not well-formed or fails the degeneration equation.
    q defaults to dim+1.  A divisor degree that is not integral for these
    weights leaves moduli_dim as None rather than failing the whole record.
    """
    report = smoothability_report(weights)
    w = report.weights
    moduli_dim = None
    if degree is not None:
        try:
            moduli_dim = moduli_component_dimension(w, degree, w.dim + 1 if q is None else q)
        except NonIntegralDegreeError:
            pass
    # The equation gives sum = (n+1)m and product = m^n, so K^n = (-(n+1))^n.
    return SolutionRecord(
        tuple(w), w.total, w.product, (-(w.dim + 1)) ** w.dim, 1,
        str(report.classification) if report.classification else None,
        tuple(s.transverse.notation() for s in report.rigid_points),
        report.verdict_text, moduli_dim)


def record_for_non_solution(weights) -> SolutionRecord:
    """Record for a tuple that fails the degeneration equation."""
    w = WeightTuple(weights)
    volume = anticanonical_volume(w)
    return SolutionRecord(tuple(w), w.total, w.product, volume.numerator,
                          volume.denominator, None, (), "not a solution")


def json_value(value, encode_record):
    """value as JSON data: ints (not bools) as decimal strings, records by
    encode_record, other tuples as lists."""
    if isinstance(value, int):
        return value if isinstance(value, bool) else str(value)
    if isinstance(value, dict):
        return {key: json_value(v, encode_record) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        if isinstance(value, SolutionRecord):
            return encode_record(value)
        return [json_value(v, encode_record) for v in value]
    return value


def cell(value) -> str:
    """value as one csv or table cell: None empty, flags yes/no, tuples joined."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, tuple):
        return ("|" if value and isinstance(value[0], str) else ",").join(map(str, value))
    return str(value)


def to_json_obj(record: SolutionRecord) -> dict:
    """JSON-ready dict in field order, integers as strings, no None moduli_dim."""
    obj = {name: json_value(value, to_json_obj) for name, value in zip(record._fields, record)}
    if record.moduli_dim is None:
        del obj["moduli_dim"]
    return obj


def to_csv_row(record: SolutionRecord) -> list[str]:
    return list(map(cell, record))
