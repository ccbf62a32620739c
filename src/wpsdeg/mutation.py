"""The two infinite mutation families of dimension-3 solutions.

Solutions of 64abcd = (a+b+c+d)^3 organize into mutation trees.  One family
squares the classical Markov-like triples 3pqr = p^2 + q^2 + r^2 and takes
(p^2, q^2, r^2, pqr); the other consists of quadruples (a, b, c, a+b+c) with
8abc = (a+b+c)^2 and mutates by fixing two of the first three entries.  Both
mutations are exact involutions, so the reachable solutions form undirected
graphs grown from the roots (1,1,1) and (1,1,2,4).

This module generates those graphs with explicit bounds, classifies a given
solution by family membership, lifts solutions up one dimension, and exposes
the decomposition (alpha^2, beta^2, 2*gamma^2) of the sum family.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from math import isqrt, prod

from .weights import WeightTuple, satisfies_degeneration_equation


class Classification(str, Enum):
    P2_TYPE = "P2Type"
    SUM_TYPE = "SumType"
    BOTH = "Both"
    SPORADIC = "Sporadic"

    def __str__(self):
        return self.value


class Family(str, Enum):
    MARKOV = "markov"
    SUM = "sum"

    def __str__(self):
        return self.value


def _is_square(x: int) -> bool:
    return x >= 0 and isqrt(x) ** 2 == x


@dataclass(frozen=True)
class MarkovTriple:
    """Positive (p, q, r) with 3pqr = p^2 + q^2 + r^2, slot order preserved."""

    p: int
    q: int
    r: int

    def __post_init__(self):
        if min(self.p, self.q, self.r) < 1:
            raise ValueError(f"entries must be positive: {self.as_tuple()}")
        p, q, r = self.p, self.q, self.r
        if 3 * p * q * r != p * p + q * q + r * r:
            raise ValueError(f"{self.as_tuple()} fails 3pqr = p^2 + q^2 + r^2")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)

    def canonical(self) -> tuple[int, int, int]:
        return tuple(sorted(self.as_tuple()))


@dataclass(frozen=True)
class SumQuadruple:
    """(a, b, c, d) with d = a + b + c and 8abc = d^2, slot order preserved."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        if min(a, b, c, d) < 1:
            raise ValueError(f"entries must be positive: {self.as_tuple()}")
        if d != a + b + c:
            raise ValueError(f"{self.as_tuple()}: last entry must be the sum of the others")
        if 8 * a * b * c != d * d:
            raise ValueError(f"{self.as_tuple()} fails 8abc = d^2")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def canonical(self) -> tuple[int, int, int, int]:
        return tuple(sorted(self.as_tuple()))


def markov_mutate(triple: MarkovTriple, slot: int) -> MarkovTriple:
    """Replace the chosen entry by 3*(product of the other two) - entry.

    The two roots of the relation read as a quadratic in the chosen slot
    multiply to the sum of the squares of the other two entries, so the
    result is positive for every valid triple.  Mutating the same slot twice
    restores the original exactly.
    """
    if slot not in (0, 1, 2):
        raise ValueError("slot must be 0, 1 or 2")
    entries = list(triple.as_tuple())
    others = [entries[i] for i in range(3) if i != slot]
    entries[slot] = 3 * others[0] * others[1] - entries[slot]
    return MarkovTriple(*entries)


def sum_mutate(quad: SumQuadruple, fixed: tuple[int, int]) -> SumQuadruple:
    """Mutate a sum quadruple, fixing two of the first three slots.

    With the fixed entries relabeled (a, b) and the remaining one c, the
    relation 8abz = (a + b + z)^2 is quadratic in z; the mutation swaps c for
    the other root 8ab - a - b - d and recomputes d.  The two roots multiply
    to (a + b)^2, so the result is positive for every valid quadruple.  Any
    of the three pairs may be fixed: `fixed` gives two distinct positions
    among slots 0..2.  Applying the same mutation twice restores the original
    exactly.
    """
    i, j = fixed
    if i == j or not {i, j} <= {0, 1, 2}:
        raise ValueError("fixed must be two distinct positions among 0, 1, 2")
    k = ({0, 1, 2} - {i, j}).pop()
    entries = list(quad.as_tuple())
    a, b = entries[i], entries[j]
    entries[k] = 8 * a * b - a - b - quad.d
    entries[3] = 8 * a * b - quad.d
    return SumQuadruple(*entries)


def classify_solution(weights) -> Classification:
    """Family membership of a dimension-3 solution.

    P2-type: three entries are squares alpha^2, beta^2, gamma^2 with
    3*alpha*beta*gamma = alpha^2 + beta^2 + gamma^2 and the fourth entry is
    alpha*beta*gamma.  All four choices of the non-square slot are tried,
    since ascending order interleaves the product among the squares.

    Sum-type: the largest entry is the sum of the other three and
    8abc = d^2.

    Both memberships can hold at once; sporadic solutions satisfy neither.
    """
    w = WeightTuple(weights)
    if w.dim != 3 or not satisfies_degeneration_equation(w):
        raise ValueError(f"{tuple(w)} is not a dimension-3 degeneration solution")

    p2 = False
    for skip in range(4):
        squares = [w[i] for i in range(4) if i != skip]
        if all(_is_square(x) for x in squares):
            roots = [isqrt(x) for x in squares]
            if (3 * prod(roots) == sum(x * x for x in roots)
                    and prod(roots) == w[skip]):
                p2 = True
                break

    a, b, c, d = w
    sum_type = (d == a + b + c) and (8 * a * b * c == d * d)

    if p2 and sum_type:
        return Classification.BOTH
    if p2:
        return Classification.P2_TYPE
    if sum_type:
        return Classification.SUM_TYPE
    return Classification.SPORADIC


def sum_type_decompose(quad: SumQuadruple) -> tuple[int, int, int]:
    """Write {a, b, c} as {alpha^2, beta^2, 2*gamma^2}.

    Returns (alpha, beta, gamma) with alpha <= beta and
    4*alpha*beta*gamma = alpha^2 + beta^2 + 2*gamma^2 verified exactly.
    Every valid sum quadruple should admit such a decomposition; this checks
    rather than assumes, and raises if no assignment works.
    """
    entries = sorted((quad.a, quad.b, quad.c))
    for k in range(3):
        doubled = entries[k]
        squares = [entries[i] for i in range(3) if i != k]
        if doubled % 2 != 0 or not _is_square(doubled // 2):
            continue
        if not all(_is_square(x) for x in squares):
            continue
        gamma = isqrt(doubled // 2)
        alpha, beta = sorted(isqrt(x) for x in squares)
        if 4 * alpha * beta * gamma == alpha * alpha + beta * beta + 2 * gamma * gamma:
            return (alpha, beta, gamma)
    raise ValueError(f"{quad.as_tuple()} admits no (alpha^2, beta^2, 2 gamma^2) decomposition")


def lift(weights) -> WeightTuple:
    """Lift a dimension-n solution to a dimension-(n+1) solution.

    A solution forces sum(a_i) = (n+1) * m with prod(a_i) = m^n: since
    (n+1)^n divides s^n for s = sum(a_i), every prime power p^e exactly
    dividing n+1 has p^(e*n) | s^n, so p^e | s, hence (n+1) | s.  Appending
    b = m yields a solution one dimension up, which is asserted exactly.
    Raises if the input is not a solution.
    """
    w = WeightTuple(weights)
    if not satisfies_degeneration_equation(w):
        raise ValueError(f"{tuple(w)} is not a dimension-{w.dim} degeneration solution")
    lifted = WeightTuple(tuple(w) + (w.total // (w.dim + 1),))
    assert satisfies_degeneration_equation(lifted)
    return lifted


@dataclass(frozen=True)
class MutationEdge:
    """Undirected edge between canonical nodes; fixed holds the preserved
    entry values of the mutation (sorted)."""

    src: tuple[int, ...]
    dst: tuple[int, ...]
    fixed: tuple[int, int]


@dataclass(frozen=True)
class MutationGraph:
    family: Family
    nodes: tuple[tuple[int, ...], ...]
    edges: tuple[MutationEdge, ...]

    @property
    def cycle_rank(self) -> int:
        """Independent cycles in the (connected) graph; 0 means a tree."""
        if not self.nodes:
            return 0
        return len(self.edges) - (len(self.nodes) - 1)

    @property
    def is_tree(self) -> bool:
        return self.cycle_rank == 0


_MARKOV_ROOT = (1, 1, 1)
_SUM_ROOT = (1, 1, 2, 4)


def generate_tree(family: Family | str, max_weight: int) -> MutationGraph:
    """Breadth-first closure of the family root under all mutations.

    Nodes are canonical (sorted) tuples with max entry <= max_weight,
    deduplicated; edges record the fixed entry values.  Mutations that fix a
    node are not edges.  The graph is not assumed to be a tree: cycle_rank
    reports any surplus edges found.  If the root itself exceeds max_weight
    the graph is empty.
    """
    family = Family(family)
    if max_weight < 1:
        raise ValueError("max_weight must be at least 1")

    if family is Family.MARKOV:
        root = MarkovTriple(*_MARKOV_ROOT)
        moves = (0, 1, 2)
        apply = markov_mutate

        def fixed_values(node, move):
            entries = node.as_tuple()
            return tuple(sorted(entries[i] for i in range(3) if i != move))
    else:
        root = SumQuadruple(*_SUM_ROOT)
        moves = ((0, 1), (0, 2), (1, 2))
        apply = sum_mutate

        def fixed_values(node, move):
            entries = node.as_tuple()
            return tuple(sorted(entries[i] for i in move))

    if max(root.canonical()) > max_weight:
        return MutationGraph(family, (), ())

    seen = {root.canonical()}
    edges = set()
    queue = deque([root])
    while queue:
        node = queue.popleft()
        here = node.canonical()
        for move in moves:
            # roots multiply to q^2 + r^2 or (a + b)^2 > 0, so a valid node never raises
            neighbor = apply(node, move)
            there = neighbor.canonical()
            if there == here or max(there) > max_weight:
                continue
            if there not in seen:
                seen.add(there)
                queue.append(neighbor)
            lo, hi = min(here, there), max(here, there)
            edges.add(MutationEdge(lo, hi, fixed_values(node, move)))
    return MutationGraph(
        family,
        tuple(sorted(seen)),
        tuple(sorted(edges, key=lambda e: (e.src, e.dst, e.fixed))),
    )
