from fractions import Fraction
from math import comb, isqrt

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
    smoothability_report,
)
from wpsdeg import search
from wpsdeg.search import (
    MAX_SEARCH_BOUND,
    MAX_SEARCH_DIMENSION,
    MAX_SEARCH_TUPLES,
    _raw_solutions,
)
from wpsdeg.weights import CostLimitError


def per_sum_raw_solutions(n: int, bound: int) -> list[tuple[int, ...]]:
    """_raw_solutions one sum at a time, sharing only s = (n+1)*m with it
    (lift proves it; test_anchored_by_brute_force checks it).  Weights are
    picked from the smallest up, each at most the mean of the weights left
    and a divisor of the product left; the two largest x <= y are the roots
    of t^2 - S*t + P, kept when x >= the last pick and y <= bound."""
    out: list[tuple[int, ...]] = []

    def pick(low, slots, sum_left, prod_left, acc):
        if slots == 2:
            disc = sum_left * sum_left - 4 * prod_left
            root = isqrt(disc) if disc >= 0 else -1
            # root^2 = S^2 - 4P = S^2 (mod 4) forces root = S (mod 2)
            x, y = (sum_left - root) // 2, (sum_left + root) // 2
            if root * root == disc and x >= low and y <= bound:
                out.append((*acc, x, y))
            return
        for a in range(low, sum_left // slots + 1):
            if prod_left % a == 0:
                pick(a, slots - 1, sum_left - a, prod_left // a, (*acc, a))

    for m in range(1, bound + 1):
        pick(1, n + 1, (n + 1) * m, m ** n, ())
    return sorted(out)


def well_formed_lifts(solutions, bound):
    lifts = (lift(s) for s in solutions)
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
        tuples = [tuple(s) for s in enumerate_solutions(3, 4)]
        assert tuples == [(1, 1, 1, 1), (1, 1, 2, 4)]

    def test_dim2_bound_25(self):
        tuples = [tuple(s) for s in enumerate_solutions(2, 25)]
        assert tuples == [(1, 1, 1), (1, 1, 4), (1, 4, 25)]

    def test_dim3_bound_125_full_set(self):
        # Pinned against the unpruned oracle; a strict superset of the
        # classical ten-entry table: (1, 18, 96, 125) and (1, 27, 27, 125)
        # sit at the bound, (5, 6, 9, 100) well inside it.
        tuples = [tuple(s) for s in enumerate_solutions(3, 125)]
        assert tuples == FOUND_AT_125

    def test_classification_annotations(self):
        by_weights = {tuple(s): smoothability_report(s) for s in enumerate_solutions(3, 125)}
        assert by_weights[(1, 1, 2, 4)].classification is Classification.BOTH
        assert by_weights[(1, 2, 9, 12)].classification is Classification.SUM_TYPE
        assert by_weights[(3, 4, 63, 98)].classification is Classification.SPORADIC

    def test_rigidity_annotations(self):
        by_weights = {tuple(s): smoothability_report(s) for s in enumerate_solutions(3, 125)}
        rigid = {w for w, s in by_weights.items() if s.rigid_points}
        assert {(1, 4, 16, 27), (1, 7, 27, 49)} <= rigid

    def test_dim2_has_no_classification(self):
        for s in enumerate_solutions(2, 30):
            assert smoothability_report(s).classification is None
            assert smoothability_report(s).rigid_points == ()

    def test_every_result_valid(self):
        for s in enumerate_solutions(3, 125):
            assert is_well_formed(s)
            assert satisfies_degeneration_equation(s)

    def test_both_only_at_1124(self):
        for s in enumerate_solutions(3, 125):
            if smoothability_report(s).classification is Classification.BOTH:
                assert tuple(s) == (1, 1, 2, 4)

    def test_dim1_only_trivial(self):
        tuples = [tuple(s) for s in enumerate_solutions(1, 50)]
        assert tuples == [(1, 1)]

    @pytest.mark.parametrize("n,bound", [(0, 5), (3, 0), (-1, 10)])
    def test_invalid_arguments(self, n, bound):
        with pytest.raises(ValueError):
            enumerate_solutions(n, bound)

    @given(st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_bound(self, b1, b2):
        lo, hi = sorted((b1, b2))
        small = {tuple(s) for s in enumerate_solutions(2, lo)}
        large = {tuple(s) for s in enumerate_solutions(2, hi)}
        assert small <= large

    def test_volume_constant_on_results(self):
        for n in (2, 3):
            expected = Fraction((-1) ** n * (n + 1) ** n)
            for s in enumerate_solutions(n, 60):
                assert anticanonical_volume(s) == expected


class TestDimensionLimit:
    """Both searches recurse once per weight, so a dimension past the limit is
    refused before any search instead of overflowing the stack."""

    @pytest.mark.parametrize("search", [enumerate_solutions, brute_force_oracle])
    def test_refused_past_limit(self, search):
        limit = MAX_SEARCH_DIMENSION
        with pytest.raises(CostLimitError, match=f"past the search limit of {limit}"):
            search(limit + 1, 1)

    def test_enumerate_at_limit(self):
        assert [tuple(s) for s in enumerate_solutions(MAX_SEARCH_DIMENSION, 2)] == [
            (1,) * (MAX_SEARCH_DIMENSION + 1)]

    def test_oracle_at_limit(self):
        assert [tuple(w) for w in brute_force_oracle(MAX_SEARCH_DIMENSION, 1)] == [
            (1,) * (MAX_SEARCH_DIMENSION + 1)]


class TestBoundLimit:
    """The bound is refused before any sieve or divisor list is built once the
    search would take seconds; the settings the tests and the benchmark use
    stay inside."""

    @pytest.fixture
    def no_factoring(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("sieved or listed divisors past the limit")
        monkeypatch.setattr(search, "_smallest_prime_factors", refuse)
        monkeypatch.setattr(search, "_divisors_bounded", refuse)

    def test_bound_past_limit(self, no_factoring):
        with pytest.raises(CostLimitError, match=f"past the search limit of {MAX_SEARCH_BOUND}"):
            enumerate_solutions(3, MAX_SEARCH_BOUND + 1)

    @pytest.mark.parametrize("n,bound", [(4, 5000), (6, 1000), (24, 17), (500, 6)])
    def test_walk_past_limit(self, no_factoring, n, bound):
        assert comb(bound + n - 2, n - 1) > MAX_SEARCH_TUPLES
        with pytest.raises(CostLimitError, match=f"over {MAX_SEARCH_TUPLES}"):
            enumerate_solutions(n, bound)

    @pytest.mark.parametrize("n,bound", [(1, MAX_SEARCH_BOUND), (3, MAX_SEARCH_BOUND),
                                         (3, 2000), (3, 10_000), (4, 1000), (5, 200),
                                         (4, 4931), (500, 5)])
    def test_inside_limit(self, monkeypatch, n, bound):
        monkeypatch.setattr(search, "_raw_solutions", lambda n, bound: [])
        assert enumerate_solutions(n, bound) == []


class TestDivisorLists:
    """The sieve and the divisor lists against trial division, which shares
    no code with them."""

    SIEVE_BOUND = 2000

    @pytest.fixture(scope="class")
    def spf(self):
        return search._smallest_prime_factors(self.SIEVE_BOUND)

    def test_sieve_factors_multiply_back(self, spf):
        for m in range(2, self.SIEVE_BOUND + 1):
            rest, product = m, 1
            while rest > 1:
                p = spf[rest]
                assert rest % p == 0 and all(rest % q for q in range(2, p)), (m, p)
                rest //= p
                product *= p
            assert product == m

    @pytest.mark.parametrize("n", range(1, 7))
    def test_divisors_match_trial_division(self, spf, n):
        top = self.SIEVE_BOUND
        for m in range(1, top + 1):
            power = m ** n
            scan = [d for d in range(1, top + 1) if power % d == 0]
            for bound in (1, m, top):
                assert search._divisors_bounded(m, n, spf, bound) == [
                    d for d in scan if d <= bound], (m, bound)


class TestPerSumReference:
    """The search against a reference that walks the other way and shares
    no divisor code with it."""

    # Every pick is capped at the sum left less the slots after it; without
    # the cap a pick can pass the sum left, and the walk keeps
    # (-35, -1, 196, 400) at (3, 500).
    @pytest.mark.parametrize("n,bound", [
        (1, 2000), (2, 300), (2, 3000), (3, 500), (3, 600), (4, 200), (4, 300),
        (5, 60), (5, 120), (6, 40), (6, 60),
        pytest.param(3, 2000, marks=pytest.mark.slow),
        pytest.param(4, 500, marks=pytest.mark.slow),
        pytest.param(5, 200, marks=pytest.mark.slow),
    ])
    def test_matches_search(self, n, bound):
        assert _raw_solutions(n, bound) == per_sum_raw_solutions(n, bound)

    # A tuple's mean m is at most its largest weight, so the reference at a
    # bound is the part of the reference at top whose largest weight fits.
    @pytest.mark.parametrize("n,top", [(1, 60), (2, 120), (3, 40), (4, 25), (5, 16), (6, 12)])
    def test_matches_search_at_every_bound(self, n, top):
        walk = per_sum_raw_solutions(n, top)
        for bound in range(1, top + 1):
            assert _raw_solutions(n, bound) == [w for w in walk if w[-1] <= bound], bound

    @pytest.mark.parametrize("n,bound", [(1, 60), (2, 60), (3, 30), (4, 14), (5, 9)])
    def test_anchored_by_brute_force(self, n, bound):
        well_formed = [w for w in map(WeightTuple, per_sum_raw_solutions(n, bound))
                       if is_well_formed(w)]
        assert well_formed == brute_force_oracle(n, bound)


class TestOracle:
    def test_trivial_bound(self):
        assert [tuple(w) for w in brute_force_oracle(2, 1)] == [(1, 1, 1)]

    def test_contains_known_solutions(self):
        found = {tuple(w) for w in brute_force_oracle(3, 30)}
        assert {(1, 2, 9, 12), (1, 4, 10, 25)} <= found

    @pytest.mark.parametrize("n,bound", [(0, 5), (2, 0)])
    def test_invalid_arguments(self, n, bound):
        with pytest.raises(ValueError, match="need n >= 1 and bound >= 1"):
            brute_force_oracle(n, bound)

    def test_refuses_past_cutoff(self):
        bound = int(round(ORACLE_ITERATION_CUTOFF ** 0.25)) + 2
        with pytest.raises(ValueError):
            brute_force_oracle(3, bound)

    @given(st.integers(1, 35))
    @settings(max_examples=15, deadline=None)
    def test_equivalence_dim2(self, bound):
        assert enumerate_solutions(2, bound) == brute_force_oracle(2, bound)

    @given(st.integers(1, 16))
    @settings(max_examples=10, deadline=None)
    def test_equivalence_dim3(self, bound):
        assert enumerate_solutions(3, bound) == brute_force_oracle(3, bound)

    def test_both_return_weight_tuples(self):
        for found in (enumerate_solutions(3, 30), brute_force_oracle(3, 30)):
            assert found and all(isinstance(w, WeightTuple) for w in found)

    def test_oracle_agrees_at_table_bound(self):
        oracle = [tuple(w) for w in brute_force_oracle(3, 125)]
        assert oracle == FOUND_AT_125
        assert set(TABLE_TEN) < set(oracle)


class TestTreeCompleteness:
    """Mutation trees as an oracle at a bound brute force cannot reach."""

    BOUND = 2000

    def test_family_solutions_are_the_tree_nodes(self):
        found = {tuple(s): smoothability_report(s) for s in enumerate_solutions(3, self.BOUND)}
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
    return {tuple(s): smoothability_report(s) for s in enumerate_solutions(3, TEN_THOUSAND)}


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
        small = [tuple(s) for s in enumerate_solutions(3, 2000)]
        assert small == sorted(w for w in dim3_at_ten_thousand if max(w) <= 2000)

    def test_lifts_from_dim2_are_enumerated(self, dim3_at_ten_thousand):
        lifts = well_formed_lifts(enumerate_solutions(2, TEN_THOUSAND), TEN_THOUSAND)
        assert len(lifts) == 7
        assert lifts <= set(dim3_at_ten_thousand)


def test_lifts_from_dim3_are_enumerated_in_dim4():
    bound = 1000
    lifts = well_formed_lifts(enumerate_solutions(3, bound), bound)
    found = {tuple(s) for s in enumerate_solutions(4, bound)}
    assert (len(lifts), len(found)) == (41, 350)
    assert lifts <= found
