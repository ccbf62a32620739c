"""Shared constants, tiny oracles and record parsers for the test suite."""

from __future__ import annotations

from wpsdeg import MarkovTriple, SolutionRecord, WeightTuple, satisfies_degeneration_equation


# The classical bound-125 table of dimension-3 solutions used by several
# golden tests.  Enumeration itself finds a strict superset; see
# test_search.py for the full pinned set.
TABLE_TEN = [
    (1, 1, 1, 1),
    (1, 1, 2, 4),
    (1, 2, 9, 12),
    (1, 4, 10, 25),
    (1, 4, 16, 27),
    (1, 6, 9, 32),
    (1, 7, 27, 49),
    (1, 9, 50, 60),
    (1, 22, 32, 121),
    (3, 4, 63, 98),
]

# Everything the solver actually finds at dimension 3, bound 125, backed by
# the unpruned oracle (see test_search.py::TestOracle::test_oracle_agrees_at_table_bound).
FOUND_AT_125 = sorted(TABLE_TEN + [
    (1, 18, 96, 125),
    (1, 27, 27, 125),
    (5, 6, 9, 100),
])


def brute_denumerant(degree: int, weights) -> int:
    """Reference count of exponent vectors, no DP: plain recursion."""
    if degree < 0:
        return 0
    if not weights:
        return 1 if degree == 0 else 0
    head, rest = weights[0], weights[1:]
    return sum(brute_denumerant(degree - k * head, rest)
               for k in range(degree // head + 1))


def p2_type_tuple(triple: MarkovTriple) -> WeightTuple:
    """The solution (p^2, q^2, r^2, pqr) attached to a Markov-type triple."""
    p, q, r = triple
    out = WeightTuple((p * p, q * q, r * r, p * q * r))
    assert satisfies_degeneration_equation(out)
    return out


# Inverses of records.to_json_obj and records.to_csv_row: the round-trip
# tests use them to show that both encodings lose nothing.
def from_json_obj(obj: dict) -> SolutionRecord:
    moduli = obj.get("moduli_dim")
    return SolutionRecord(
        weights=tuple(int(a) for a in obj["weights"]),
        sum=int(obj["sum"]),
        product=int(obj["product"]),
        volume_num=int(obj["volume_num"]),
        volume_den=int(obj["volume_den"]),
        classification=obj["classification"],
        rigid_points=tuple(obj["rigid_points"]),
        verdict_text=obj["verdict_text"],
        moduli_dim=None if moduli is None else int(moduli),
    )


def from_csv_row(row: list[str]) -> SolutionRecord:
    return SolutionRecord(
        weights=tuple(int(a) for a in row[0].split(",")),
        sum=int(row[1]),
        product=int(row[2]),
        volume_num=int(row[3]),
        volume_den=int(row[4]),
        classification=row[5] or None,
        rigid_points=tuple(row[6].split("|")) if row[6] else (),
        verdict_text=row[7],
        moduli_dim=int(row[8]) if row[8] else None,
    )
