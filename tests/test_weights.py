from fractions import Fraction
from math import comb

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
    hypersurface_section_count,
    is_well_formed,
    moduli_component_dimension,
    normalize,
    satisfies_degeneration_equation,
)

weight_lists = st.lists(st.integers(1, 125), min_size=2, max_size=6)


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


class TestHypersurfaceSectionCount:
    def test_quadric_sections(self):
        ambient = WeightTuple((1, 1, 1, 1, 2))
        assert hypersurface_section_count(ambient, 2, 5) == 56

    def test_low_degree(self):
        ambient = WeightTuple((1, 1, 1, 1, 2))
        assert hypersurface_section_count(ambient, 2, 1) == 4

    def test_degree_zero(self):
        assert hypersurface_section_count(WeightTuple((2, 3, 5)), 4, 0) == 1

    @given(st.lists(st.integers(1, 10), min_size=2, max_size=4),
           st.integers(1, 15), st.integers(0, 30))
    @settings(max_examples=60)
    def test_difference_formula(self, entries, h, d):
        w = WeightTuple(entries)
        low = denumerant(d - h, w) if d - h >= 0 else 0
        assert hypersurface_section_count(w, h, d) == denumerant(d, w) - low
