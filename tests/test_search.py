from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FOUND_AT_125, TABLE_TEN
from wpsdeg import (
    Classification,
    ORACLE_ITERATION_CUTOFF,
    WeightTuple,
    anticanonical_volume,
    brute_force_oracle,
    enumerate_solutions,
    is_well_formed,
    satisfies_degeneration_equation,
)


class TestCandidateCheck:
    def test_known_solution(self):
        assert satisfies_degeneration_equation(WeightTuple((1, 1, 2, 4)))

    def test_near_miss(self):
        # 64*2 = 128 while 5^3 = 125
        assert not satisfies_degeneration_equation(WeightTuple((1, 1, 1, 2)))

    def test_sporadic_solution(self):
        assert satisfies_degeneration_equation(WeightTuple((3, 4, 63, 98)))


class TestEnumerate:
    def test_dim3_tiny_bound(self):
        tuples = [tuple(s.weights) for s in enumerate_solutions(3, 4)]
        assert tuples == [(1, 1, 1, 1), (1, 1, 2, 4)]

    def test_dim2_bound_25(self):
        tuples = [tuple(s.weights) for s in enumerate_solutions(2, 25)]
        assert tuples == [(1, 1, 1), (1, 1, 4), (1, 4, 25)]

    def test_dim3_bound_125_full_set(self):
        # Pinned against the unpruned oracle; a strict superset of the
        # classical ten-entry table: (1, 18, 96, 125) and (1, 27, 27, 125)
        # sit at the bound, (5, 6, 9, 100) well inside it.
        tuples = [tuple(s.weights) for s in enumerate_solutions(3, 125)]
        assert tuples == FOUND_AT_125

    def test_classification_annotations(self):
        by_weights = {tuple(s.weights): s for s in enumerate_solutions(3, 125)}
        assert by_weights[(1, 1, 2, 4)].classification is Classification.BOTH
        assert by_weights[(1, 2, 9, 12)].classification is Classification.SUM_TYPE
        assert by_weights[(3, 4, 63, 98)].classification is Classification.SPORADIC

    def test_rigidity_annotations(self):
        by_weights = {tuple(s.weights): s for s in enumerate_solutions(3, 125)}
        rigid = {w for w, s in by_weights.items() if s.rigid_points}
        assert {(1, 4, 16, 27), (1, 7, 27, 49)} <= rigid

    def test_dim2_has_no_classification(self):
        for s in enumerate_solutions(2, 30):
            assert s.classification is None
            assert s.rigid_points == ()

    def test_every_result_valid(self):
        for s in enumerate_solutions(3, 125):
            assert is_well_formed(s.weights)
            assert satisfies_degeneration_equation(s.weights)

    def test_both_only_at_1124(self):
        for s in enumerate_solutions(3, 125):
            if s.classification is Classification.BOTH:
                assert tuple(s.weights) == (1, 1, 2, 4)

    def test_dim1_only_trivial(self):
        tuples = [tuple(s.weights) for s in enumerate_solutions(1, 50)]
        assert tuples == [(1, 1)]

    @pytest.mark.parametrize("n,bound", [(0, 5), (3, 0), (-1, 10)])
    def test_invalid_arguments(self, n, bound):
        with pytest.raises(ValueError):
            enumerate_solutions(n, bound)

    @given(st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_bound(self, b1, b2):
        lo, hi = sorted((b1, b2))
        small = {tuple(s.weights) for s in enumerate_solutions(2, lo)}
        large = {tuple(s.weights) for s in enumerate_solutions(2, hi)}
        assert small <= large

    def test_volume_constant_on_results(self):
        for n in (2, 3):
            expected = Fraction((-1) ** n * (n + 1) ** n)
            for s in enumerate_solutions(n, 60):
                assert anticanonical_volume(s.weights) == expected


class TestOracle:
    def test_trivial_bound(self):
        assert [tuple(w) for w in brute_force_oracle(2, 1)] == [(1, 1, 1)]

    def test_contains_known_solutions(self):
        found = {tuple(w) for w in brute_force_oracle(3, 30)}
        assert {(1, 2, 9, 12), (1, 4, 10, 25)} <= found

    def test_refuses_past_cutoff(self):
        bound = int(round(ORACLE_ITERATION_CUTOFF ** 0.25)) + 2
        with pytest.raises(ValueError):
            brute_force_oracle(3, bound)

    @given(st.integers(1, 35))
    @settings(max_examples=15, deadline=None)
    def test_equivalence_dim2(self, bound):
        fast = [tuple(s.weights) for s in enumerate_solutions(2, bound)]
        slow = [tuple(w) for w in brute_force_oracle(2, bound)]
        assert fast == slow

    @given(st.integers(1, 16))
    @settings(max_examples=10, deadline=None)
    def test_equivalence_dim3(self, bound):
        fast = [tuple(s.weights) for s in enumerate_solutions(3, bound)]
        slow = [tuple(w) for w in brute_force_oracle(3, bound)]
        assert fast == slow

    def test_oracle_agrees_at_table_bound(self):
        oracle = [tuple(w) for w in brute_force_oracle(3, 125)]
        assert oracle == FOUND_AT_125
        assert set(TABLE_TEN) < set(oracle)
