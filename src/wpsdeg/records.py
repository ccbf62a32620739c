"""Serialization schema for solution reports.

One flat record per weighted projective space, shared by every output
format.  All integers serialize as decimal strings in JSON so that
consumers with 53-bit number types cannot corrupt large products; the CSV
form quotes per RFC 4180 via the csv module and joins multiple rigid-point
notations with '|'.
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


CSV_HEADER = [f.name for f in fields(SolutionRecord)]


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


def to_json_obj(record: SolutionRecord) -> dict:
    """JSON-ready dict, every integer as a decimal string, fixed key order."""
    obj = {
        "weights": [str(a) for a in record.weights],
        "sum": str(record.sum),
        "product": str(record.product),
        "volume_num": str(record.volume_num),
        "volume_den": str(record.volume_den),
        "classification": record.classification,
        "rigid_points": list(record.rigid_points),
        "verdict_text": record.verdict_text,
    }
    if record.moduli_dim is not None:
        obj["moduli_dim"] = str(record.moduli_dim)
    return obj


def to_csv_row(record: SolutionRecord) -> list[str]:
    return [
        ",".join(str(a) for a in record.weights),
        str(record.sum),
        str(record.product),
        str(record.volume_num),
        str(record.volume_den),
        record.classification or "",
        "|".join(record.rigid_points),
        record.verdict_text,
        "" if record.moduli_dim is None else str(record.moduli_dim),
    ]
