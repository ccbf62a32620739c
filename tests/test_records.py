import json

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_csv_row, from_json_obj
from wpsdeg import (
    SolutionRecord,
    record_for_non_solution,
    record_for_solution,
    to_csv_row,
    to_json_obj,
)


def test_solution_record_fields():
    record = record_for_solution((1, 4, 10, 25))
    assert record.weights == (1, 4, 10, 25)
    assert record.sum == 40
    assert record.product == 1000
    assert (record.volume_num, record.volume_den) == (-64, 1)
    assert record.classification == "P2Type"
    assert record.rigid_points == ()
    assert record.verdict_text == "smoothable (ℙ²-type family)"
    assert record.moduli_dim is None


def test_record_with_moduli_dimension():
    record = record_for_solution((1, 1, 2, 4), degree=5, q=4)
    assert record.moduli_dim == 38


def test_record_default_q_is_dim_plus_one():
    record = record_for_solution((1, 1, 1, 1), degree=5)
    assert record.moduli_dim == 40


def test_record_non_integral_degree_leaves_moduli_none():
    record = record_for_solution((1, 1, 1, 1), degree=1, q=3)
    assert record.moduli_dim is None


def test_rigid_point_notation():
    record = record_for_solution((1, 4, 16, 27))
    assert record.rigid_points == ("1/27(1,4,16)",)
    assert record.verdict_text == "not smoothable (rigid point)"


def test_non_solution_record():
    record = record_for_non_solution((1, 1, 1, 2))
    assert record.verdict_text == "not a solution"
    assert record.classification is None
    assert (record.volume_num, record.volume_den) == (-125, 2)


def test_json_all_integers_are_strings():
    obj = to_json_obj(record_for_solution((1, 22, 32, 121), degree=5, q=4))
    assert obj["weights"] == ["1", "22", "32", "121"]
    assert obj["sum"] == "176"
    assert obj["product"] == "85184"
    assert obj["volume_num"] == "-64"
    assert isinstance(obj["moduli_dim"], str)


def test_json_round_trip_examples():
    for w in [(1, 1, 1, 1), (1, 4, 16, 27), (3, 4, 63, 98)]:
        record = record_for_solution(w, degree=5, q=4)
        assert from_json_obj(json.loads(json.dumps(to_json_obj(record)))) == record


def test_json_round_trip_without_moduli():
    record = record_for_solution((1, 2, 9, 12))
    obj = to_json_obj(record)
    assert "moduli_dim" not in obj
    assert from_json_obj(obj) == record


def test_csv_round_trip():
    for w in [(1, 1, 2, 4), (1, 7, 27, 49)]:
        record = record_for_solution(w, degree=5, q=4)
        assert from_csv_row(to_csv_row(record)) == record


def test_csv_row_is_all_strings():
    row = to_csv_row(record_for_non_solution((1, 1, 1, 2)))
    assert all(isinstance(cell, str) for cell in row)


big = st.integers(1, 10 ** 30)


@given(st.lists(big, min_size=2, max_size=6), big, big, big, big,
       st.sampled_from([None, "P2Type", "SumType", "Both", "Sporadic"]),
       st.lists(st.sampled_from(["1/27(1,4,16)", "1/125(1,18,96)"]), max_size=2),
       st.sampled_from(["unknown", "not a solution"]),
       st.one_of(st.none(), st.integers(-10 ** 20, 10 ** 20)))
@settings(max_examples=80)
def test_round_trips_survive_huge_integers(weights, total, product, vn, vd,
                                           classification, rigid, verdict, moduli):
    record = SolutionRecord(tuple(weights), total, product, vn, vd,
                            classification, tuple(rigid), verdict, moduli)
    assert from_json_obj(json.loads(json.dumps(to_json_obj(record)))) == record
    assert from_csv_row(to_csv_row(record)) == record
