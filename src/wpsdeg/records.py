"""Serialization schema for solution reports.

One flat record per weighted projective space, shared by every output
format.  JSON and CSV walk its fields with one formatter per value type.
Integers become decimal strings, in JSON too, so that consumers with 53-bit
number types cannot corrupt large products; None is null or an empty cell.
CSV joins a tuple's integers with ',' and its notations with '|', and quotes
per RFC 4180 via the csv module.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .singular import SmoothabilityReport, smoothability_report
from .weights import (
    NonIntegralDegreeError,
    WeightTuple,
    anticanonical_volume,
    moduli_component_dimension,
)


@dataclass(frozen=True)
class SolutionRecord:
    weights: tuple[int, ...]
    sum: int
    product: int
    volume_num: int
    volume_den: int
    classification: str | None
    rigid_points: tuple[str, ...]
    verdict_text: str
    moduli_dim: int | None = None


FIELD_NAMES = [f.name for f in fields(SolutionRecord)]


def _base_fields(w: WeightTuple) -> dict:
    volume = anticanonical_volume(w)
    return {
        "weights": tuple(w),
        "sum": w.total,
        "product": w.product,
        "volume_num": volume.numerator,
        "volume_den": volume.denominator,
    }


def record_for_solution(solution, degree: int | None = None,
                        q: int | None = None) -> SolutionRecord:
    """Full record for a well-formed solution; moduli_dim when degree given.

    solution is a SmoothabilityReport, reused as is, or a weight tuple,
    analysed here.  q defaults to dim+1.  A divisor degree that is not
    integral for these weights leaves moduli_dim as None rather than failing
    the whole record.
    """
    if isinstance(solution, SmoothabilityReport):
        report = solution
    else:
        report = smoothability_report(solution)
    w = report.weights
    moduli_dim = None
    if degree is not None:
        try:
            moduli_dim = moduli_component_dimension(w, degree, w.dim + 1 if q is None else q)
        except NonIntegralDegreeError:
            pass
    return SolutionRecord(
        classification=str(report.classification) if report.classification else None,
        rigid_points=tuple(s.transverse.notation() for s in report.rigid_points),
        verdict_text=report.verdict_text,
        moduli_dim=moduli_dim,
        **_base_fields(w),
    )


def record_for_non_solution(weights) -> SolutionRecord:
    """Record for a tuple that fails the degeneration equation."""
    w = WeightTuple(weights)
    return SolutionRecord(
        classification=None,
        rigid_points=(),
        verdict_text="not a solution",
        moduli_dim=None,
        **_base_fields(w),
    )


def _json_value(value):
    if isinstance(value, tuple):
        return [str(v) for v in value]
    return value if value is None or isinstance(value, str) else str(value)


def _csv_cell(value) -> str:
    if isinstance(value, tuple):
        return "|".join(value) if value and isinstance(value[0], str) else ",".join(map(str, value))
    return "" if value is None else str(value)


def to_json_obj(record: SolutionRecord) -> dict:
    """JSON-ready dict in field order, integers as strings, no None moduli_dim."""
    obj = {name: _json_value(getattr(record, name)) for name in FIELD_NAMES}
    if record.moduli_dim is None:
        del obj["moduli_dim"]
    return obj


def to_csv_row(record: SolutionRecord) -> list[str]:
    return [_csv_cell(getattr(record, name)) for name in FIELD_NAMES]
