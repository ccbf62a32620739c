from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FOUND_AT_125, TABLE_TEN, p2_type_tuple
from wpsdeg import (
    Classification,
    MarkovTriple,
    ORACLE_ITERATION_CUTOFF,
    WeightTuple,
    anticanonical_volume,
    brute_force_oracle,
    denumerant,
    enumerate_solutions,
    generate_tree,
    is_well_formed,
    lift,
    satisfies_degeneration_equation,
)
from wpsdeg.search import _divisors_bounded, _factorize, _raw_solutions


def divisor_scan_raw_solutions(n, bound):
    """Reference for the closed-form pair: the search as it was when the last
    two weights still came from a divisor scan and a forced last weight."""
    out = []
    slots_total = n + 1
    for m in range(1, bound + 1):
        target_prod = m ** n
        factors = {p: e * n for p, e in _factorize(m).items()}
        divs = _divisors_bounded(factors, bound)

        def extend(start, slots, sum_left, prod_left, acc):
            if slots == 1:
                if sum_left == prod_left:
                    out.append((*acc, sum_left))
                return
            for idx in range(start, len(divs)):
                a = divs[idx]
                if a * slots > sum_left:
                    break
                if prod_left % a:
                    continue
                rest = prod_left // a
                if rest > bound ** (slots - 1):
                    continue
                if rest < a ** (slots - 1):
                    continue
                acc.append(a)
                extend(idx, slots - 1, sum_left - a, rest, acc)
                acc.pop()

        extend(0, slots_total, slots_total * m, target_prod, [])
    return sorted(out)


def well_formed_lifts(solutions, bound):
    lifts = (lift(s.weights) for s in solutions)
    return {tuple(w) for w in lifts if is_well_formed(w) and max(w) <= bound}


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


class TestClosedFormPair:
    @pytest.mark.parametrize("n,bound", [(1, 2000), (2, 3000), (3, 600),
                                         (4, 200), (5, 120), (6, 40)])
    def test_matches_divisor_scan(self, n, bound):
        assert _raw_solutions(n, bound) == divisor_scan_raw_solutions(n, bound)


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


class TestTreeCompleteness:
    """Mutation trees as an oracle at a bound brute force cannot reach."""

    BOUND = 2000

    def test_family_solutions_are_the_tree_nodes(self):
        found = {tuple(s.weights): s for s in enumerate_solutions(3, self.BOUND)}
        p2_type = {tuple(p2_type_tuple(MarkovTriple(*node)))
                   for node in generate_tree("markov", self.BOUND).nodes}
        p2_type = {w for w in p2_type if max(w) <= self.BOUND}
        sum_type = set(generate_tree("sum", self.BOUND).nodes)
        assert (len(p2_type), len(sum_type)) == (6, 7)
        assert p2_type <= set(found)
        assert sum_type <= set(found)
        p2_classes = {Classification.P2_TYPE, Classification.BOTH}
        sum_classes = {Classification.SUM_TYPE, Classification.BOTH}
        assert all(found[w].classification in p2_classes for w in p2_type)
        assert all(found[w].classification in sum_classes for w in sum_type)
        family = {w for w, s in found.items()
                  if s.classification is not Classification.SPORADIC}
        assert family == p2_type | sum_type


TEN_THOUSAND = 10_000


@pytest.fixture(scope="module")
def dim3_at_ten_thousand():
    return {tuple(s.weights): s for s in enumerate_solutions(3, TEN_THOUSAND)}


@pytest.mark.slow
class TestOraclesAtTenThousand:
    """Metamorphic checks at dimension 3, bound 10^4, far past brute force."""

    def test_family_solutions_are_the_tree_nodes(self, dim3_at_ten_thousand):
        found = dim3_at_ten_thousand
        p2_type = {tuple(p2_type_tuple(MarkovTriple(*node)))
                   for node in generate_tree("markov", TEN_THOUSAND).nodes}
        p2_type = {w for w in p2_type if max(w) <= TEN_THOUSAND}
        sum_type = set(generate_tree("sum", TEN_THOUSAND).nodes)
        assert (len(found), len(p2_type), len(sum_type)) == (141, 7, 9)
        assert p2_type | sum_type <= set(found)
        p2_classes = {Classification.P2_TYPE, Classification.BOTH}
        sum_classes = {Classification.SUM_TYPE, Classification.BOTH}
        assert all(found[w].classification in p2_classes for w in p2_type)
        assert all(found[w].classification in sum_classes for w in sum_type)
        family = {w for w, s in found.items()
                  if s.classification is not Classification.SPORADIC}
        assert family == p2_type | sum_type

    def test_family_members_have_the_hilbert_function_of_p3(self, dim3_at_ten_thousand):
        # h^0(-kK) = denumerant(k * sum(a), a), and C(4k + 3, 3) on P^3.
        # Asserted on family members only: a mismatch elsewhere is evidence
        # about smoothability, not a verdict.
        family = [w for w, s in dim3_at_ten_thousand.items()
                  if s.classification is not Classification.SPORADIC]
        assert len(family) == 15
        for w in family:
            for k in (1, 2, 3):
                assert denumerant(k * sum(w), w) == comb(4 * k + 3, 3), (w, k)

    def test_monotone_in_bound(self, dim3_at_ten_thousand):
        small = [tuple(s.weights) for s in enumerate_solutions(3, 2000)]
        assert small == sorted(w for w in dim3_at_ten_thousand if max(w) <= 2000)

    def test_lifts_from_dim2_are_enumerated(self, dim3_at_ten_thousand):
        lifts = well_formed_lifts(enumerate_solutions(2, TEN_THOUSAND), TEN_THOUSAND)
        assert len(lifts) == 7
        assert lifts <= set(dim3_at_ten_thousand)


def test_lifts_from_dim3_are_enumerated_in_dim4():
    bound = 1000
    lifts = well_formed_lifts(enumerate_solutions(3, bound), bound)
    found = {tuple(s.weights) for s in enumerate_solutions(4, bound)}
    assert (len(lifts), len(found)) == (41, 350)
    assert lifts <= found
