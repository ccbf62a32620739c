import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import p2_type_tuple
from wpsdeg import (
    Classification,
    Family,
    MarkovTriple,
    SumQuadruple,
    WeightTuple,
    classify_solution,
    generate_tree,
    lift,
    markov_mutate,
    satisfies_degeneration_equation,
    sum_mutate,
    sum_type_decompose,
)
from wpsdeg.mutation import MAX_TREE_WEIGHT
from wpsdeg.search import _raw_solutions
from wpsdeg.weights import CostLimitError


def random_markov_walk(seed: int, steps: int) -> MarkovTriple:
    rng = random.Random(seed)
    node = MarkovTriple(1, 1, 1)
    for _ in range(steps):
        node = markov_mutate(node, rng.randrange(3))
    return node


def random_sum_walk(seed: int, steps: int) -> SumQuadruple:
    rng = random.Random(seed)
    node = SumQuadruple(1, 1, 2, 4)
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        node = sum_mutate(node, (i, j))
    return node


class TestMarkovTriple:
    def test_validates_relation(self):
        with pytest.raises(ValueError):
            MarkovTriple(1, 1, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            MarkovTriple(0, 1, 1)

    def test_root_mutation(self):
        assert tuple(markov_mutate(MarkovTriple(1, 1, 1), 2)) == (1, 1, 2)

    def test_slot_zero_keeps_raw_order(self):
        out = markov_mutate(MarkovTriple(1, 1, 2), 0)
        assert tuple(out) == (5, 1, 2)
        assert out.canonical() == (1, 2, 5)

    def test_invalid_slot(self):
        with pytest.raises(ValueError):
            markov_mutate(MarkovTriple(1, 1, 1), 3)

    @given(st.integers(0, 10 ** 9), st.integers(0, 8), st.integers(0, 2))
    @settings(max_examples=150, deadline=None)
    def test_involution(self, seed, steps, slot):
        node = random_markov_walk(seed, steps)
        assert markov_mutate(markov_mutate(node, slot), slot) == node


class TestSumQuadruple:
    def test_validates_sum(self):
        with pytest.raises(ValueError):
            SumQuadruple(1, 1, 2, 5)

    def test_validates_square_relation(self):
        with pytest.raises(ValueError):
            SumQuadruple(1, 1, 4, 6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="entries must be positive"):
            SumQuadruple(0, 1, 1, 2)

    def test_root_mutation(self):
        out = sum_mutate(SumQuadruple(1, 1, 2, 4), (0, 2))
        assert out.canonical() == (1, 2, 9, 12)

    def test_second_step(self):
        out = sum_mutate(SumQuadruple(1, 2, 9, 12), (0, 2))
        assert out.canonical() == (1, 9, 50, 60)

    def test_fixed_pair_validation(self):
        with pytest.raises(ValueError):
            sum_mutate(SumQuadruple(1, 1, 2, 4), (1, 1))
        with pytest.raises(ValueError):
            sum_mutate(SumQuadruple(1, 1, 2, 4), (0, 3))

    @given(st.integers(0, 10 ** 9), st.integers(0, 6),
           st.sampled_from([(0, 1), (0, 2), (1, 2)]))
    @settings(max_examples=150, deadline=None)
    def test_involution(self, seed, steps, fixed):
        node = random_sum_walk(seed, steps)
        assert sum_mutate(sum_mutate(node, fixed), fixed) == node

    @given(st.integers(0, 10 ** 9), st.integers(0, 6),
           st.sampled_from([(0, 1), (0, 2), (1, 2)]))
    @settings(max_examples=150, deadline=None)
    def test_cross_family_identity(self, seed, steps, fixed):
        node = random_sum_walk(seed, steps)
        mutated = sum_mutate(node, fixed)
        entries = tuple(node)
        a, b = entries[fixed[0]], entries[fixed[1]]
        k = ({0, 1, 2} - set(fixed)).pop()
        c = entries[k]
        assert (a + b) * node.d == c * mutated.d


class TestP2TypeTuple:
    def test_root(self):
        assert tuple(p2_type_tuple(MarkovTriple(1, 1, 1))) == (1, 1, 1, 1)

    def test_first_step(self):
        assert tuple(p2_type_tuple(MarkovTriple(1, 1, 2))) == (1, 1, 2, 4)

    def test_interleaved_product(self):
        assert tuple(p2_type_tuple(MarkovTriple(1, 2, 5))) == (1, 4, 10, 25)

    @given(st.integers(0, 10 ** 9), st.integers(0, 7))
    @settings(max_examples=100, deadline=None)
    def test_always_a_solution(self, seed, steps):
        node = random_markov_walk(seed, steps)
        assert satisfies_degeneration_equation(p2_type_tuple(node))


class TestClassify:
    def test_both(self):
        assert classify_solution(WeightTuple((1, 1, 2, 4))) is Classification.BOTH

    def test_sum_type(self):
        assert classify_solution(WeightTuple((1, 2, 9, 12))) is Classification.SUM_TYPE

    def test_p2_type(self):
        assert classify_solution(WeightTuple((1, 4, 10, 25))) is Classification.P2_TYPE

    def test_sporadic(self):
        assert classify_solution(WeightTuple((3, 4, 63, 98))) is Classification.SPORADIC

    def test_rejects_non_solution(self):
        with pytest.raises(ValueError):
            classify_solution(WeightTuple((1, 1, 1, 2)))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            classify_solution(WeightTuple((1, 1, 4)))

    def test_agrees_with_tree_membership(self):
        bound = 3000
        p2_nodes = {tuple(sorted(p2_type_tuple(MarkovTriple(*n))))
                    for n in generate_tree(Family.MARKOV, 60).nodes
                    if max(p2_type_tuple(MarkovTriple(*n))) <= bound}
        sum_nodes = {n for n in generate_tree(Family.SUM, bound).nodes}
        for w in sorted(p2_nodes | sum_nodes):
            got = classify_solution(WeightTuple(w))
            in_p2 = w in p2_nodes
            in_sum = w in sum_nodes
            if in_p2 and in_sum:
                assert got is Classification.BOTH
            elif in_p2:
                assert got is Classification.P2_TYPE
            elif in_sum:
                assert got is Classification.SUM_TYPE

    def test_every_family_node_to_10_40(self):
        p2_nodes = [p2_type_tuple(MarkovTriple(*n))
                    for n in generate_tree(Family.MARKOV, 10**40).nodes]
        sum_nodes = [WeightTuple(n) for n in generate_tree(Family.SUM, 10**40).nodes]
        for nodes, family in ((p2_nodes, Classification.P2_TYPE),
                              (sum_nodes, Classification.SUM_TYPE)):
            for w in nodes:
                both = tuple(w) == (1, 1, 2, 4)
                assert classify_solution(w) is (Classification.BOTH if both else family), w

    def test_closed_form_matches_the_definitions(self):
        # Every raw solution to 2000, well-formed or not, against the family
        # definitions read slot by slot.
        def p2_type(w):
            for i in range(4):
                squares = w[:i] + w[i + 1:]
                p, q, r = map(isqrt, squares)
                if ((p * p, q * q, r * r) == squares and p * q * r == w[i]
                        and 3 * p * q * r == p * p + q * q + r * r):
                    return True
            return False

        classes = {(True, True): Classification.BOTH, (True, False): Classification.P2_TYPE,
                   (False, True): Classification.SUM_TYPE, (False, False): Classification.SPORADIC}
        for w in _raw_solutions(3, 2000):
            a, b, c, d = w
            sum_type = d == a + b + c and 8 * a * b * c == d * d
            assert classify_solution(w) is classes[p2_type(w), sum_type], w


class TestSumTypeDecompose:
    @pytest.mark.parametrize("quad,expected", [
        ((1, 1, 2, 4), (1, 1, 1)),
        ((1, 2, 9, 12), (1, 3, 1)),
        ((1, 9, 50, 60), (1, 3, 5)),
        ((2, 9, 121, 132), (3, 11, 1)),
    ])
    def test_known_decompositions(self, quad, expected):
        assert sum_type_decompose(SumQuadruple(*quad)) == expected

    @given(st.integers(0, 10 ** 9), st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_always_decomposes(self, seed, steps):
        node = random_sum_walk(seed, steps)
        alpha, beta, gamma = sum_type_decompose(node)
        assert alpha <= beta
        assert sorted((alpha * alpha, beta * beta, 2 * gamma * gamma)) == sorted(
            (node.a, node.b, node.c))
        assert 4 * alpha * beta * gamma == alpha ** 2 + beta ** 2 + 2 * gamma ** 2


class TestLift:
    def test_square_cone(self):
        assert tuple(lift(WeightTuple((1, 1, 4)))) == (1, 1, 2, 4)

    def test_trivial(self):
        assert tuple(lift(WeightTuple((1, 1, 1)))) == (1, 1, 1, 1)

    def test_markov_square(self):
        assert tuple(lift(WeightTuple((1, 4, 25)))) == (1, 4, 10, 25)

    def test_rejects_non_solution(self):
        with pytest.raises(ValueError):
            lift(WeightTuple((1, 1, 2)))

    def test_lift_of_dim3_solutions(self):
        for w in [(1, 1, 1, 1), (1, 1, 2, 4), (1, 4, 10, 25)]:
            lifted = lift(WeightTuple(w))
            assert lifted is not None
            assert satisfies_degeneration_equation(lifted)
            assert lifted.dim == 4


class TestGenerateTree:
    def test_markov_bound_30(self):
        nodes = generate_tree(Family.MARKOV, 30).nodes
        assert nodes == ((1, 1, 1), (1, 1, 2), (1, 2, 5), (1, 5, 13), (2, 5, 29))

    def test_sum_bound_125(self):
        graph = generate_tree(Family.SUM, 125)
        assert graph.nodes == ((1, 1, 2, 4), (1, 2, 9, 12), (1, 9, 50, 60))
        assert len(graph.edges) == 2
        assert graph.is_tree

    def test_sum_root_only(self):
        graph = generate_tree(Family.SUM, 4)
        assert graph.nodes == ((1, 1, 2, 4),)
        assert graph.edges == ()
        assert graph.is_tree

    def test_accepts_family_strings(self):
        assert generate_tree("markov", 2).nodes == ((1, 1, 1), (1, 1, 2))

    def test_bound_below_root(self):
        graph = generate_tree(Family.SUM, 3)
        assert graph.nodes == ()
        assert graph.cycle_rank == 0

    def test_every_node_satisfies_relation(self):
        for node in generate_tree(Family.MARKOV, 10 ** 4).nodes:
            MarkovTriple(*node)
        for node in generate_tree(Family.SUM, 10 ** 4).nodes:
            SumQuadruple(*sorted(node))

    def test_trees_have_no_cycles_at_moderate_bounds(self):
        assert generate_tree(Family.MARKOV, 10 ** 5).is_tree
        assert generate_tree(Family.SUM, 10 ** 5).is_tree

    def test_family_overlap_is_exactly_the_known_tuple(self):
        bound = 10 ** 6
        p2 = set()
        for node in generate_tree(Family.MARKOV, 10 ** 3).nodes:
            w = p2_type_tuple(MarkovTriple(*node))
            if max(w) <= bound:
                p2.add(tuple(w))
        sums = set(generate_tree(Family.SUM, bound).nodes)
        assert p2 & sums == {(1, 1, 2, 4)}

    @pytest.mark.parametrize("family,build,mutate", [
        (Family.MARKOV, MarkovTriple, markov_mutate),
        (Family.SUM, SumQuadruple,
         lambda quad, slot: sum_mutate(quad, [i for i in range(3) if i != slot])),
    ])
    def test_every_edge_is_the_mutation_keeping_its_fixed_values(self, family, build, mutate):
        # 10^12 is the tuple-mix benchmark bound, far past the golden corpus's 125 and 200
        graph = generate_tree(family, 10 ** 12)
        assert len(graph.edges) > 20 and max(map(max, graph.nodes)) > 10 ** 9
        for edge in graph.edges:
            src = build(*edge.src)
            entries = tuple(src)
            slots = [k for k in range(3)
                     if tuple(sorted(entries[i] for i in range(3) if i != k)) == edge.fixed]
            assert slots, edge
            assert {mutate(src, k).canonical() for k in slots} == {edge.dst}, edge

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            generate_tree(Family.MARKOV, 0)

    def test_bound_past_limit(self):
        with pytest.raises(CostLimitError, match="past the tree limit"):
            generate_tree(Family.SUM, MAX_TREE_WEIGHT + 1)

    def test_bound_at_limit(self):
        assert len(generate_tree(Family.MARKOV, MAX_TREE_WEIGHT).nodes) == 9670
