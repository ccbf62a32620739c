from itertools import combinations, combinations_with_replacement
from math import gcd
from time import perf_counter, process_time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpsdeg import (
    Classification,
    CyclicQuotient,
    SingularStratum,
    SmoothabilityReport,
    Verdict,
    WeightTuple,
    enumerate_solutions,
    is_well_formed,
    isolated_rigid_points,
    normalize,
    reid_tai_classify,
    singular_strata,
    smoothability_report,
)
from wpsdeg import singular
from wpsdeg.weights import CostLimitError

well_formed_tuples = st.lists(st.integers(1, 60), min_size=3, max_size=5).map(
    lambda entries: normalize(entries))


def element_scan_classify(germ):
    """Reference for the gcd test: inspect every group element in turn."""
    r = germ.order
    min_numerator = None
    for k in range(1, r):
        residues = [(k * w) % r for w in germ.weights]
        nonzero = sum(1 for x in residues if x)
        if nonzero == 0:
            raise ValueError(f"{germ.notation()}: element {k} acts as the identity")
        if nonzero == 1:
            raise ValueError(f"{germ.notation()}: element {k} is a quasi-reflection")
        numerator = sum(residues)
        if min_numerator is None or numerator < min_numerator:
            min_numerator = numerator
    if min_numerator > r:
        return Verdict.TERMINAL
    if min_numerator == r:
        return Verdict.STRICTLY_CANONICAL
    return Verdict.STRICTLY_KLT


def verdict_or_error(classify, germ):
    try:
        return classify(germ)
    except ValueError as error:
        return str(error)


def subset_walk_strata(w):
    """Reference for the gcd closure: every index subset, one stratum per saturation."""
    count = len(w)
    saturations = {}
    for size in range(1, count):
        for subset in combinations(range(count), size):
            m = gcd(*(w[j] for j in subset))
            if m > 1:
                saturations[tuple(j for j in range(count) if w[j] % m == 0)] = m
    strata = []
    for indices, m in saturations.items():
        residues = tuple(w[k] % m for k in range(count) if k not in indices)
        maximal = not any(set(indices) < set(other) for other in saturations)
        strata.append(SingularStratum(indices, m, CyclicQuotient(m, residues), maximal))
    strata.sort(key=lambda s: (s.order, s.indices))
    return strata


class TestCyclicQuotient:
    def test_reduces_and_sorts(self):
        q = CyclicQuotient(5, (12, 3))
        assert q.weights == (2, 3)

    def test_notation(self):
        assert CyclicQuotient(25, (1, 4, 10)).notation() == "1/25(1,4,10)"

    def test_rejects_zero_residue(self):
        with pytest.raises(ValueError):
            CyclicQuotient(4, (1, 8))

    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            CyclicQuotient(1, (1,))

    def test_rejects_no_weights(self):
        with pytest.raises(ValueError, match="need at least one weight"):
            CyclicQuotient(5, ())


class TestReidTai:
    def test_terminal(self):
        assert reid_tai_classify(CyclicQuotient(5, (1, 2, 3))) is Verdict.TERMINAL

    def test_strictly_canonical(self):
        assert reid_tai_classify(CyclicQuotient(2, (1, 1))) is Verdict.STRICTLY_CANONICAL
        assert reid_tai_classify(CyclicQuotient(4, (1, 1, 2))) is Verdict.STRICTLY_CANONICAL

    def test_strictly_klt(self):
        assert reid_tai_classify(CyclicQuotient(4, (1, 1))) is Verdict.STRICTLY_KLT
        assert reid_tai_classify(CyclicQuotient(25, (1, 4, 10))) is Verdict.STRICTLY_KLT

    def test_quasi_reflection_rejected(self):
        with pytest.raises(ValueError):
            reid_tai_classify(CyclicQuotient(4, (1, 2, 2)))

    def test_identity_element_rejected(self):
        # order 6 on residues (2,4): k=3 sends both to 0
        with pytest.raises(ValueError):
            reid_tai_classify(CyclicQuotient(6, (2, 4)))

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_matches_element_scan_on_every_small_germ(self, size):
        for order in range(2, 17):
            for residues in combinations_with_replacement(range(1, order), size):
                germ = CyclicQuotient(order, residues)
                assert (verdict_or_error(reid_tai_classify, germ)
                        == verdict_or_error(element_scan_classify, germ)), germ

    @pytest.mark.slow
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_matches_element_scan_up_to_order_24(self, size):
        for order in range(2, 25):
            for residues in combinations_with_replacement(range(1, order), size):
                germ = CyclicQuotient(order, residues)
                assert (verdict_or_error(reid_tai_classify, germ)
                        == verdict_or_error(element_scan_classify, germ)), germ

    def test_klt_germ_of_huge_order_stops_early(self):
        # k = 1 already has age 4 / r < 1; walking all r - 1 elements takes seconds.
        start = perf_counter()
        verdict = reid_tai_classify(CyclicQuotient(10**7 + 19, (1, 1, 2)))
        assert perf_counter() - start < 1.0
        assert verdict is Verdict.STRICTLY_KLT

    def test_walk_limit_counts_elements_walked(self, monkeypatch):
        # 1/13(12,12,12): ages of k = 1..8 are at least 1, k = 9 has 12/13.
        germ = CyclicQuotient(13, (12, 12, 12))
        monkeypatch.setattr(singular, "MAX_REID_TAI_WALK", 9)
        assert reid_tai_classify(germ) is Verdict.STRICTLY_KLT
        monkeypatch.setattr(singular, "MAX_REID_TAI_WALK", 8)
        with pytest.raises(CostLimitError, match=r"first 8 of 12 elements"):
            reid_tai_classify(germ)

    def test_walk_limit_applies_past_the_last_element_only(self, monkeypatch):
        # Gorenstein germs 1/r(1,2,r-3) never reach an age below 1.
        monkeypatch.setattr(singular, "MAX_REID_TAI_WALK", 12)
        assert reid_tai_classify(CyclicQuotient(13, (1, 2, 10))) is Verdict.STRICTLY_CANONICAL
        with pytest.raises(ValueError, match=r"1/14\(1,2,11\): no age below 1"):
            reid_tai_classify(CyclicQuotient(14, (1, 2, 11)))

    def test_verdict_property_is_reid_tai_classify(self):
        q = CyclicQuotient(27, (1, 4, 16))
        assert q.verdict is reid_tai_classify(q)

    @given(st.integers(2, 40), st.data())
    @settings(max_examples=120, deadline=None)
    def test_verdict_matches_min_age(self, order, data):
        residues = data.draw(st.lists(st.integers(1, order - 1),
                                      min_size=2, max_size=4))
        germ = CyclicQuotient(order, residues)
        try:
            verdict = reid_tai_classify(germ)
        except ValueError:
            return
        ages = [sum((k * w) % order for w in germ.weights) / order
                for k in range(1, order)]
        low = min(ages)
        if verdict is Verdict.TERMINAL:
            assert low > 1
        elif verdict is Verdict.STRICTLY_CANONICAL:
            assert low == 1
        else:
            assert low < 1


class TestSingularStrata:
    def test_five_strata_example(self):
        strata = singular_strata(WeightTuple((1, 4, 10, 25)))
        summary = {(s.transverse.notation(), s.dimension, str(s.transverse.verdict))
                   for s in strata}
        assert summary == {
            ("1/2(1,1)", 1, "StrictlyCanonical"),
            ("1/5(1,4)", 1, "StrictlyCanonical"),
            ("1/4(1,1,2)", 0, "StrictlyCanonical"),
            ("1/10(1,4,5)", 0, "StrictlyCanonical"),
            ("1/25(1,4,10)", 0, "StrictlyKlt"),
        }

    def test_smooth_space(self):
        assert singular_strata(WeightTuple((1, 1, 1, 1))) == []

    def test_two_strata_example(self):
        strata = singular_strata(WeightTuple((1, 1, 2, 4)))
        assert [(s.order, s.transverse.notation()) for s in strata] == [
            (2, "1/2(1,1)"), (4, "1/4(1,1,2)")]

    def test_curve_contains_points(self):
        strata = {s.indices: s for s in singular_strata(WeightTuple((1, 4, 10, 25)))}
        assert strata[(1, 2)].maximal  # gcd 2 curve through the 4 and 10 points
        assert not strata[(1,)].maximal
        assert not strata[(2,)].maximal

    def test_rejects_non_well_formed(self):
        with pytest.raises(ValueError):
            singular_strata(WeightTuple((1, 2, 4)))

    @given(well_formed_tuples)
    @settings(max_examples=120, deadline=None)
    def test_stratum_shape_invariants(self, w):
        count = len(w)
        for s in singular_strata(w):
            assert s.order >= 2
            assert s.dimension == len(s.indices) - 1
            assert len(s.transverse.weights) == count - len(s.indices)
            assert all(r != 0 for r in s.transverse.weights)
            assert gcd(*(w[j] for j in s.indices)) == s.order
            # saturation: exactly the coordinates divisible by the order
            assert set(s.indices) == {j for j in range(count) if w[j] % s.order == 0}

    @given(well_formed_tuples)
    @settings(max_examples=120, deadline=None)
    def test_maximality_flags(self, w):
        strata = singular_strata(w)
        index_sets = [set(s.indices) for s in strata]
        for s in strata:
            contained = any(set(s.indices) < other for other in index_sets)
            assert s.maximal == (not contained)


    def test_matches_subset_walk_on_every_small_tuple(self):
        checked = 0
        for count, top in ((2, 40), (3, 30), (4, 20), (5, 12), (6, 9)):
            for w in combinations_with_replacement(range(1, top + 1), count):
                if is_well_formed(w):
                    assert singular_strata(w) == subset_walk_strata(w), w
                    checked += 1
        assert checked == 11865

    def test_number_of_weights_sets_no_exponential_cost(self):
        start = process_time()
        strata = singular_strata(range(2, 26))
        assert process_time() - start < 1.0
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
        assert [s.order for s in strata] == list(range(2, 26))
        assert [s.order for s in strata if s.maximal] == primes
        assert [s.order for s in strata if s.is_isolated_point] == [13, 17, 19, 23]


class TestIsolatedRigidPoints:
    def test_rigid_examples(self):
        points = isolated_rigid_points(WeightTuple((1, 4, 16, 27)))
        assert [s.transverse.notation() for s in points] == ["1/27(1,4,16)"]
        points = isolated_rigid_points(WeightTuple((1, 7, 27, 49)))
        assert [s.transverse.notation() for s in points] == ["1/27(1,7,22)"]

    def test_non_rigid_examples(self):
        for w in [(1, 1, 1, 1), (1, 1, 2, 4), (1, 4, 10, 25), (1, 6, 9, 32),
                  (1, 9, 50, 60), (1, 22, 32, 121), (3, 4, 63, 98)]:
            assert isolated_rigid_points(WeightTuple(w)) == []

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            isolated_rigid_points(WeightTuple((1, 1, 4)))

    def test_rejects_non_well_formed(self):
        with pytest.raises(ValueError, match="not well-formed"):
            isolated_rigid_points(WeightTuple((2, 2, 4, 8)))

    @given(st.lists(st.integers(1, 60), min_size=4, max_size=5).map(
        lambda entries: normalize(entries)))
    @settings(max_examples=100, deadline=None)
    def test_matches_strata_filter(self, w):
        if w.dim < 3:
            return
        expected = [s for s in singular_strata(w) if s.is_isolated_point]
        assert isolated_rigid_points(w) == expected

    def test_matches_strata_filter_on_every_benchmark_solution(self):
        checked = rigid = 0
        for n, bound in ((3, 2000), (4, 500), (5, 200)):
            for w in enumerate_solutions(n, bound):
                points = isolated_rigid_points(w)
                assert points == [s for s in singular_strata(w) if s.is_isolated_point], w
                checked += 1
                rigid += bool(points)
        assert (checked, rigid) == (538, 19)


class TestSmoothabilityReport:
    def test_p2_family_verdict(self):
        report = smoothability_report(WeightTuple((1, 4, 10, 25)))
        assert report.classification is Classification.P2_TYPE
        assert report.verdict_text == "smoothable (ℙ²-type family)"

    def test_sum_family_verdict(self):
        report = smoothability_report(WeightTuple((1, 9, 50, 60)))
        assert report.verdict_text == "smoothable (sum-type family)"

    def test_both_verdict(self):
        report = smoothability_report(WeightTuple((1, 1, 2, 4)))
        assert report.verdict_text == "smoothable (ℙ²-type and sum-type families)"

    def test_rigid_verdict(self):
        report = smoothability_report(WeightTuple((1, 4, 16, 27)))
        assert report.verdict_text == "not smoothable (rigid point)"
        assert report.classification is Classification.SPORADIC

    def test_unknown_verdict(self):
        report = smoothability_report(WeightTuple((3, 4, 63, 98)))
        assert report.verdict_text == "unknown"

    def test_dim2_has_no_classification(self):
        report = smoothability_report(WeightTuple((1, 4, 25)))
        assert report.classification is None
        assert report.rigid_points == ()
        assert report.verdict_text == "unknown"

    def test_rigid_points_subset_of_strata(self):
        report = smoothability_report(WeightTuple((1, 4, 16, 27)))
        assert list(report.rigid_points) == [
            s for s in singular_strata(report.weights) if s.is_isolated_point]
        assert [s.dimension for s in report.rigid_points] == [0]

    def test_rejects_non_solution(self):
        with pytest.raises(ValueError):
            smoothability_report(WeightTuple((1, 1, 1, 2)))

    def test_rejects_non_well_formed(self):
        with pytest.raises(ValueError):
            smoothability_report(WeightTuple((2, 2, 4, 8)))

    def test_family_members_never_rigid(self):
        # the conflict RuntimeError must be unreachable on real solutions
        for w in [(1, 1, 1, 1), (1, 1, 2, 4), (1, 2, 9, 12), (1, 4, 10, 25),
                  (1, 9, 50, 60)]:
            report = smoothability_report(WeightTuple(w))
            assert report.rigid_points == ()

    def test_family_with_rigid_point_raises(self):
        rigid = smoothability_report(WeightTuple((1, 4, 16, 27))).rigid_points
        with pytest.raises(RuntimeError, match="one of the two computations is wrong"):
            SmoothabilityReport(WeightTuple((1, 4, 10, 25)), Classification.P2_TYPE, rigid)
