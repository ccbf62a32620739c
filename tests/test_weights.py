from fractions import Fraction
from itertools import combinations_with_replacement
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
    is_well_formed,
    moduli_component_dimension,
    normalize,
    satisfies_degeneration_equation,
)
from wpsdeg.weights import DenumerantTooLargeError


def denumerant_table(top, weights):
    """Reference: the plain coin-counting table of every degree 0..top."""
    table = [1] + [0] * top
    for a in weights:
        for j in range(a, top + 1):
            table[j] += table[j - a]
    return table


weight_lists = st.lists(st.integers(1, 125), min_size=2, max_size=6)


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
        with pytest.raises(DenumerantTooLargeError, match="table entries"):
            denumerant(987 * 10**9, (977, 983, 991, 997))
        assert perf_counter() - start < 1.0
        assert issubclass(DenumerantTooLargeError, ValueError)


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

    @pytest.mark.parametrize("degree", [0, -3])
    def test_rejects_degree_below_one(self, degree):
        # no divisor class has degree below 1; the count would come out negative
        with pytest.raises(ValueError, match="at least 1") as info:
            moduli_component_dimension(WeightTuple((1, 1, 1, 1)), degree, 4)
        assert not isinstance(info.value, NonIntegralDegreeError)

