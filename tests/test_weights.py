import random
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, gcd, lcm
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_denumerant
from wpsdeg import (
    NonIntegralDegreeError,
    WeightTuple,
    anticanonical_volume,
    aut_dimension,
    denumerant,
    denumerants,
    enumerate_solutions,
    is_well_formed,
    moduli_component_dimension,
    normalize,
    satisfies_degeneration_equation,
)
from wpsdeg.weights import CostLimitError, _cofactor_gcds, _sum_out_pays


def denumerant_table(top, weights):
    """Reference: the plain coin-counting table of every degree 0..top."""
    table = [1] + [0] * top
    for a in weights:
        for j in range(a, top + 1):
            table[j] += table[j - a]
    return table


weight_lists = st.lists(st.integers(1, 125), min_size=2, max_size=6)

# Weights up to 60 that divide 2520 = lcm(1..10): any tuple of them has an
# lcm of at most 2520, so a degree up to (n+2) * lcm needs at most 17,640 entries.
small_lcm_weights = [a for a in range(1, 61) if 2520 % a == 0]


def force_route(patch, sum_out):
    """Make denumerants sum out the second-largest weight always, or never."""
    patch.setattr("wpsdeg.weights._sum_out_pays", lambda *args: sum_out)


def spy_route(patch):
    """Record each choice the unforced route rule makes; returns the list."""
    picked = []

    def rule(*args):
        picked.append(_sum_out_pays(*args))
        return picked[-1]

    patch.setattr("wpsdeg.weights._sum_out_pays", rule)
    return picked


def fixpoint_normalize(weights):
    """Reference for the closed form: apply both reductions until neither does."""
    ws = sorted(weights)
    changed = True
    while changed:
        changed = False
        g = gcd(*ws)
        if g > 1:
            ws = [a // g for a in ws]
            changed = True
        for i in range(len(ws)):
            q = gcd(*(ws[j] for j in range(len(ws)) if j != i))
            if q > 1:
                ws = [a if j == i else a // q for j, a in enumerate(ws)]
                changed = True
    return tuple(sorted(ws))


class TestWeightTuple:
    def test_sorts_ascending(self):
        assert tuple(WeightTuple((4, 1, 2, 1))) == (1, 1, 2, 4)

    def test_basic_properties(self):
        w = WeightTuple((1, 1, 2, 4))
        assert w.dim == 3
        assert w.total == 8
        assert w.product == 8

    def test_repr(self):
        assert repr(WeightTuple((4, 1, 2, 1))) == "WeightTuple((1, 1, 2, 4))"

    @pytest.mark.parametrize("bad", [(), (5,), (1, 0), (1, -2), (1, 2.5), (1, True)])
    def test_rejects_invalid_entries(self, bad):
        with pytest.raises((ValueError, TypeError)):
            WeightTuple(bad)


class TestWellFormed:
    def test_contains_two_ones(self):
        assert is_well_formed(WeightTuple((1, 1, 2, 4)))

    def test_shared_factor_in_all_but_one(self):
        assert not is_well_formed(WeightTuple((1, 2, 4)))

    def test_sporadic_entry(self):
        assert is_well_formed(WeightTuple((3, 4, 63, 98)))

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_cofactor_gcds_match_the_direct_gcds(self, size):
        # Every ordered tuple, since callers also pass unsorted lists.
        for entries in product(range(1, 13), repeat=size):
            direct = [gcd(*entries[:i], *entries[i + 1:]) for i in range(size)]
            assert _cofactor_gcds(entries) == direct, entries

    def test_many_weights_are_linear(self):
        start = perf_counter()
        assert is_well_formed((1,) * 20000)
        assert perf_counter() - start < 0.5


class TestNormalize:
    def test_two_step_example(self):
        assert tuple(normalize((1, 2, 4))) == (1, 1, 2)

    def test_five_weight_example(self):
        assert tuple(normalize((2, 6, 10, 18, 32))) == (1, 3, 5, 9, 16)

    def test_already_well_formed(self):
        assert tuple(normalize((1, 1, 1, 1))) == (1, 1, 1, 1)

    def test_global_factor_then_partial(self):
        assert tuple(normalize((2, 4, 8))) == (1, 1, 2)

    @given(weight_lists)
    def test_idempotent(self, entries):
        once = normalize(entries)
        assert tuple(normalize(once)) == tuple(once)

    @given(weight_lists)
    def test_output_well_formed(self, entries):
        assert is_well_formed(normalize(entries))

    @pytest.mark.parametrize("size,top", [(2, 24), (3, 24), (4, 12)])
    def test_matches_fixpoint_on_every_small_tuple(self, size, top):
        for entries in combinations_with_replacement(range(1, top + 1), size):
            assert tuple(normalize(entries)) == fixpoint_normalize(entries), entries

    @given(weight_lists)
    def test_matches_fixpoint(self, entries):
        assert tuple(normalize(entries)) == fixpoint_normalize(entries)


class TestVolume:
    def test_p3(self):
        assert anticanonical_volume(WeightTuple((1, 1, 1, 1))) == -64

    def test_quadric_cone_cone(self):
        assert anticanonical_volume(WeightTuple((1, 1, 2, 4))) == -64

    def test_surface_case_positive(self):
        assert anticanonical_volume(WeightTuple((1, 1, 4))) == 9

    def test_exact_rational(self):
        assert anticanonical_volume(WeightTuple((1, 1, 1, 2))) == Fraction(-125, 2)

    @given(weight_lists)
    def test_volume_iff_equation(self, entries):
        w = WeightTuple(entries)
        n = w.dim
        expected = Fraction((-1) ** n * (n + 1) ** n)
        assert (anticanonical_volume(w) == expected) == satisfies_degeneration_equation(w)


class TestDenumerant:
    def test_degree_zero(self):
        assert denumerant(0, WeightTuple((3, 7, 11))) == 1

    def test_quintics_on_p3(self):
        assert denumerant(5, WeightTuple((1, 1, 1, 1))) == 56

    def test_degree_ten_weighted(self):
        assert denumerant(10, WeightTuple((1, 1, 2, 4))) == 56

    def test_negative_degree(self):
        assert denumerant(-3, WeightTuple((1, 1))) == 0

    @given(st.lists(st.integers(1, 20), min_size=1, max_size=4),
           st.integers(0, 60))
    def test_matches_brute_force(self, entries, degree):
        if len(entries) < 2:
            entries = entries + [1]
        w = WeightTuple(entries)
        assert denumerant(degree, w) == brute_denumerant(degree, tuple(w))

    @given(st.integers(1, 5), st.integers(0, 40))
    def test_unit_weights_binomial(self, n, degree):
        w = WeightTuple((1,) * (n + 1))
        assert denumerant(degree, w) == comb(degree + n, n)

    @given(st.lists(st.integers(1, 20), min_size=2, max_size=4),
           st.integers(0, 40))
    @settings(max_examples=50)
    def test_monotone_in_degree(self, entries, degree):
        w = WeightTuple(entries)
        if 1 in tuple(w):
            assert denumerant(degree + 1, w) >= denumerant(degree, w)

    @pytest.mark.parametrize("size,largest", [(2, 12), (3, 8), (4, 5)])
    def test_matches_table_on_every_small_tuple(self, size, largest):
        # Up to (n+2) * lcm covers the table branch (x <= n), the interpolated
        # branch (x = n+1) and every residue of the degree mod lcm.
        for weights in combinations_with_replacement(range(1, largest + 1), size):
            top = (size + 1) * lcm(*weights)
            table = denumerant_table(top, weights)
            for degree in range(top + 1):
                assert denumerant(degree, weights) == table[degree], (degree, weights)
            assert denumerants(range(top + 1), weights) == table, weights

    @pytest.mark.parametrize("piece", [1, 2, 3])
    @pytest.mark.parametrize("size,largest", [(2, 12), (3, 8), (4, 5)])
    def test_matches_table_in_tiny_pieces(self, monkeypatch, piece, size, largest):
        # Pieces of 1 to 3 entries put a window seam or a row split between
        # almost every pair of entries, in both forms of the fill.
        monkeypatch.setattr("wpsdeg.weights._PIECE", piece)
        self.test_matches_table_on_every_small_tuple(size, largest)

    @pytest.mark.parametrize("sum_out", [True, False], ids=["sum-out", "table"])
    @pytest.mark.parametrize("size,largest", [(2, 12), (3, 8), (4, 5)])
    def test_both_routes_match_table_on_every_small_tuple(self, monkeypatch, sum_out,
                                                          size, largest):
        force_route(monkeypatch, sum_out)
        self.test_matches_table_on_every_small_tuple(size, largest)

    @pytest.mark.parametrize("sum_out", [True, False], ids=["sum-out", "table"])
    @pytest.mark.parametrize("size,largest", [(2, 12), (3, 6), (4, 4)])
    def test_both_routes_match_table_in_tiny_pieces(self, monkeypatch, sum_out,
                                                    size, largest):
        # Pieces of 2 entries split nearly every strided read, with a short
        # last piece when the read has an odd number of entries.
        force_route(monkeypatch, sum_out)
        self.test_matches_table_in_tiny_pieces(monkeypatch, 2, size, largest)

    @given(st.lists(st.sampled_from(small_lcm_weights), min_size=3, max_size=6),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_both_routes_match_table_on_random_tuples(self, entries, data):
        w = tuple(sorted(entries))
        n, period = len(w) - 1, lcm(*w)
        degrees = data.draw(st.lists(st.integers(-1, (n + 2) * period), min_size=1,
                                     max_size=4))
        table = denumerant_table(max(degrees), w)
        expected = [table[d] if d >= 0 else 0 for d in degrees]
        for sum_out in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                force_route(patch, sum_out)
                assert denumerants(degrees, w) == expected, (sum_out, degrees, w)

    def test_both_routes_on_the_dimension_five_solutions(self, monkeypatch):
        # The rule sums out on every tuple but the 9 whose reads of degree
        # 10 * sum cost more than the fill they would save; either route
        # gives the same counts on all 304.
        calls = [((10 * sum(s), *s), tuple(s)) for s in enumerate_solutions(5, 200)]
        picked = spy_route(monkeypatch)
        unforced = [denumerants(degrees, w) for degrees, w in calls]
        assert (picked.count(True), picked.count(False)) == (295, 9)
        for sum_out in (True, False):
            force_route(monkeypatch, sum_out)
            assert [denumerants(degrees, w) for degrees, w in calls] == unforced, sum_out

    def test_rule_keeps_the_table_where_the_reads_cost_more(self, monkeypatch):
        # lcm 754,369, so top = d = 2 * 10**6; summed out, the reads would add
        # about d^2 / (2 * 97 * 101) = 2 * 10**8 entries against 2 * 10**6
        # fill additions, and take 11-13 s.
        picked = spy_route(monkeypatch)
        start = perf_counter()
        counts = denumerants((2_000_000, 1, 7, 11, 97, 101), (1, 7, 11, 97, 101))
        assert perf_counter() - start < 2.0
        assert picked == [False]
        assert counts == [883932589299684336, 1, 2, 3, 74, 81]

    def test_matches_table_on_the_dimension_five_solutions(self):
        # The range the dimension-5 moduli counts use: each weight's own
        # degree for Aut, and 10 * sum, tables of up to 7,200 entries; one
        # call reads them all, as moduli_component_dimension does.
        solutions = enumerate_solutions(5, 200)
        assert len(solutions) == 304
        for solution in solutions:
            w = tuple(solution)
            degrees = (10 * sum(w), *w)
            table = denumerant_table(degrees[0], w)
            for degree in degrees:
                assert denumerant(degree, w) == table[degree], (degree, w)
            assert denumerants(degrees, w) == [table[d] for d in degrees], w

    def test_mixed_degrees_in_one_call(self):
        # lcm 30, n = 2: 61 is read from the table (x = 2), 200 and 10**4 are
        # interpolated (x = 6, 333) at their own residues 20 and 10.
        w = (2, 3, 5)
        degrees = (7, -4, 0, 200, 7, 61, 3, -1, 10**4, 1, 0)
        table = denumerant_table(10**4, w)
        assert denumerants(degrees, w) == [table[d] if d >= 0 else 0 for d in degrees]

    def test_no_degrees_and_only_negative_degrees(self):
        assert denumerants((), (3, 5)) == []
        assert denumerants((-1, -7), (3, 5)) == [0, 0]

    def test_degrees_read_once(self):
        # An iterator of degrees is read once: inside the table and past it.
        assert denumerants(iter([5, 10]), (1, 2)) == [3, 6]
        with pytest.raises(CostLimitError, match="degree 10000000 on"):
            denumerants(iter([10**7]), (1, 10**7 + 1))

    def test_smallest_weight_past_the_table(self):
        # The seed repeats one period of the smallest weight; past the table
        # that period is cut to the table, not allocated in full.
        tracemalloc.start()
        try:
            assert denumerants((0, 5, 7), (10**7, 10**7 + 1)) == [1, 0, 0]
            assert tracemalloc.get_traced_memory()[1] < 10**5
        finally:
            tracemalloc.stop()

    @staticmethod
    def peak(fill, *args):
        tracemalloc.start()
        try:
            fill(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_is_that_of_the_plain_table(self, monkeypatch):
        # Whole residue classes as slices would copy up to `top` pointers and
        # integers per step, about twice the table's own peak here.  The rule
        # sums out the 2 here; the forced table route fills it.
        w, degree = (1, 1, 1, 1, 2, 300007), 10**5
        plain = self.peak(denumerant_table, degree, w)
        picked = spy_route(monkeypatch)
        assert self.peak(denumerant, degree, w) <= 1.1 * plain
        assert picked == [True]
        force_route(monkeypatch, False)
        assert self.peak(denumerant, degree, w) <= 1.1 * plain

    def test_summed_out_reads_copy_a_piece_at_a_time(self, monkeypatch):
        # Summed out, (1, 2, a_n) leaves a table of ones, 8 bytes an entry;
        # one slice down the 2s would copy half of it again.
        w, degree = (1, 2, 10**6 + 3), 3 * 10**5
        picked = spy_route(monkeypatch)
        assert self.peak(denumerant, degree, w) <= 1.1 * self.peak(lambda: [1] * (degree + 1))
        assert picked == [True]
        assert denumerant(degree, w) == degree // 2 + 1

    def test_closed_forms_at_huge_degree(self):
        assert denumerant(10**12, (1, 1, 1, 1)) == comb(10**12 + 3, 3)
        assert denumerant(10**15, (1, 2)) == 10**15 // 2 + 1

    def test_huge_degree_is_fast(self):
        start = perf_counter()
        count = denumerant(10**8, (1, 2, 3, 5))
        assert perf_counter() - start < 1.0
        assert count > 0

    def test_table_past_limit_raises_before_filling(self):
        # lcm is about 9.5e11, so no interpolation applies at this degree.
        start = perf_counter()
        with pytest.raises(CostLimitError, match="table entries"):
            denumerant(987 * 10**9, (977, 983, 991, 997))
        assert perf_counter() - start < 1.0
        assert issubclass(CostLimitError, ValueError)


def popoviciu(degree, a, b):
    """Two-weight count in closed form (Popoviciu, 1953), integers only.

    With g = gcd(a, b) the count is 0 unless g | N; otherwise divide N, a and
    b by g, and p(N) = (N - b * (b' N mod a) - a * (a' N mod b)) / (a b) + 1
    with a' = a^-1 mod b and b' = b^-1 mod a.
    """
    g = gcd(a, b)
    if degree % g:
        return 0
    degree, a, b = degree // g, a // g, b // g
    numerator = degree - b * (pow(b, -1, a) * degree % a) - a * (pow(a, -1, b) * degree % b)
    assert numerator % (a * b) == 0
    return numerator // (a * b) + 1


class TestDenumerantAgainstPopoviciu:
    """An oracle for the Newton branch independent of any table: past
    rho + n * lcm, denumerant interpolates instead of counting."""

    def test_two_weights_up_to_huge_degree(self):
        rng = random.Random(11)
        interpolated = 0
        for _ in range(2000):
            a, b = rng.randint(1, 60), rng.randint(1, 60)
            degree = rng.randrange(10 ** rng.randint(1, 15))
            interpolated += degree // lcm(a, b) > 1
            assert denumerant(degree, (a, b)) == popoviciu(degree, a, b), (degree, a, b)
        assert interpolated > 1500

    def test_three_weights_by_summing_one_exponent(self):
        rng = random.Random(12)
        for _ in range(200):
            a, b, c = sorted(rng.randint(1, 12) for _ in range(3))
            degree = rng.randint(3 * lcm(a, b, c), 2 * 10**4)
            expected = sum(popoviciu(degree - k * c, a, b) for k in range(degree // c + 1))
            assert denumerant(degree, (a, b, c)) == expected, (degree, a, b, c)

    @pytest.mark.parametrize("degree,weights,sum_out", [
        pytest.param(2 * 10**6 + 7, (97, 101, 103), True, marks=pytest.mark.slow,
                     id="97,101,103-sum-out"),
        pytest.param(2 * 10**6 + 7, (97, 101, 103), False, id="97,101,103-table"),
        pytest.param(5 * 10**6, (1, 2999, 3001), True, id="1,2999,3001-sum-out"),
        pytest.param(5 * 10**6, (1, 2999, 3001), False, id="1,2999,3001-table"),
        pytest.param(3 * 10**6 + 1, (2, 9967, 9973), True, id="2,9967,9973-sum-out"),
        pytest.param(3 * 10**6 + 1, (2, 9967, 9973), False, id="2,9967,9973-table"),
    ])
    def test_both_routes_at_table_scale(self, monkeypatch, degree, weights, sum_out):
        # At most n = 2 periods of the lcm: the whole count comes from the table.
        a, b, c = weights
        assert degree // lcm(a, b, c) <= 2
        expected = sum(popoviciu(degree - k * c, a, b) for k in range(degree // c + 1))
        force_route(monkeypatch, sum_out)
        assert denumerants((degree,), weights) == [expected]

    def test_formula_matches_brute_force_on_small_degrees(self):
        for a, b in combinations_with_replacement(range(1, 9), 2):
            for degree in range(40):
                assert popoviciu(degree, a, b) == brute_denumerant(degree, (a, b))


class TestAutDimension:
    def test_p3(self):
        assert aut_dimension(WeightTuple((1, 1, 1, 1))) == 15

    def test_weighted_example(self):
        assert aut_dimension(WeightTuple((1, 1, 2, 4))) == 17

    def test_sum_type_example(self):
        assert aut_dimension(WeightTuple((1, 2, 9, 12))) == 18

    @given(st.integers(1, 6))
    def test_unit_weights_identity(self, n):
        assert aut_dimension(WeightTuple((1,) * (n + 1))) == (n + 1) ** 2 - 1

    def test_rejects_non_well_formed(self):
        with pytest.raises(ValueError):
            aut_dimension(WeightTuple((1, 2, 4)))


class TestModuliComponentDimension:
    def test_quintic_surfaces(self):
        assert moduli_component_dimension(WeightTuple((1, 1, 1, 1)), 5, 4) == 40

    def test_weighted_components(self):
        assert moduli_component_dimension(WeightTuple((1, 1, 2, 4)), 5, 4) == 38
        assert moduli_component_dimension(WeightTuple((1, 2, 9, 12)), 5, 4) == 37

    def test_unit_weights_closed_form(self):
        # C(599, 299) monomials of degree 300 in 300 variables, and
        # dim Aut = dim PGL(300) = 300^2 - 1.
        assert moduli_component_dimension((1,) * 300, 300, 300) == comb(599, 299) - 300**2

    def test_non_integral_degree(self):
        with pytest.raises(NonIntegralDegreeError):
            moduli_component_dimension(WeightTuple((1, 1, 1, 1)), 1, 3)

    def test_error_is_value_error(self):
        # callers that only know ValueError still catch it
        with pytest.raises(ValueError):
            moduli_component_dimension(WeightTuple((1, 1, 1, 1)), 1, 3)

    @pytest.mark.parametrize("q", [0, -4])
    def test_rejects_ratio_below_one(self, q):
        # q = 0 would divide by zero, and a negative q has no meaning as a pairing
        with pytest.raises(ValueError, match="at least 1") as info:
            moduli_component_dimension(WeightTuple((1, 1, 1, 1)), 5, q)
        assert not isinstance(info.value, NonIntegralDegreeError)

    def test_rejects_non_well_formed_after_the_degree_checks(self):
        with pytest.raises(NonIntegralDegreeError):
            moduli_component_dimension((1, 2, 4), 1, 2)
        with pytest.raises(ValueError, match="moduli_component_dimension requires") as info:
            moduli_component_dimension((1, 2, 4), 3, 3)
        assert not isinstance(info.value, NonIntegralDegreeError)
        # the message names the function that refused, not the one it shares a check with
        with pytest.raises(ValueError, match="aut_dimension requires"):
            aut_dimension((1, 2, 4))

    @pytest.mark.parametrize("degree", [0, -3])
    def test_rejects_degree_below_one(self, degree):
        # no divisor class has degree below 1; the count would come out negative
        with pytest.raises(ValueError, match="at least 1") as info:
            moduli_component_dimension(WeightTuple((1, 1, 1, 1)), degree, 4)
        assert not isinstance(info.value, NonIntegralDegreeError)

