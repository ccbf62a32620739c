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

from collections import deque, namedtuple
from enum import Enum
from math import isqrt

from .weights import CostLimitError, WeightTuple, satisfies_degeneration_equation


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


def _is_square(x: int) -> bool:
    return x >= 0 and isqrt(x) ** 2 == x


class MarkovTriple(namedtuple("MarkovTriple", "p q r")):
    """Positive (p, q, r) with 3pqr = p^2 + q^2 + r^2, slot order preserved."""

    __slots__ = ()

    def __new__(cls, p: int, q: int, r: int):
        if min(p, q, r) < 1:
            raise ValueError(f"entries must be positive: {(p, q, r)}")
        if 3 * p * q * r != p * p + q * q + r * r:
            raise ValueError(f"{(p, q, r)} fails 3pqr = p^2 + q^2 + r^2")
        return tuple.__new__(cls, (p, q, r))

    # _replace and copy.replace build through _make, so they run the checks too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def canonical(self) -> tuple[int, int, int]:
        return tuple(sorted(self))


class SumQuadruple(namedtuple("SumQuadruple", "a b c d")):
    """(a, b, c, d) with d = a + b + c and 8abc = d^2, slot order preserved."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int):
        if min(a, b, c, d) < 1:
            raise ValueError(f"entries must be positive: {(a, b, c, d)}")
        if d != a + b + c:
            raise ValueError(f"{(a, b, c, d)}: last entry must be the sum of the others")
        if 8 * a * b * c != d * d:
            raise ValueError(f"{(a, b, c, d)} fails 8abc = d^2")
        return tuple.__new__(cls, (a, b, c, d))

    _make = classmethod(lambda cls, fields: cls(*fields))

    def canonical(self) -> tuple[int, int, int, int]:
        return tuple(sorted(self))


def markov_mutate(triple: MarkovTriple, slot: int) -> MarkovTriple:
    """Replace the chosen entry by 3*(product of the other two) - entry.

    The two roots of the relation read as a quadratic in the chosen slot
    multiply to the sum of the squares of the other two entries, so the
    result is positive for every valid triple.  Mutating the same slot twice
    restores the original exactly.
    """
    if slot not in (0, 1, 2):
        raise ValueError("slot must be 0, 1 or 2")
    entries = list(triple)
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
    entries = list(quad)
    a, b = entries[i], entries[j]
    entries[k] = 8 * a * b - a - b - quad.d
    entries[3] = 8 * a * b - quad.d
    return SumQuadruple(*entries)


def classify_solution(weights) -> Classification:
    """Family membership of a dimension-3 solution, read off m = sum / 4.

    A dimension-3 solution has sum 4m and product m^3 (see lift).  P2-type,
    (alpha^2, beta^2, gamma^2, alpha*beta*gamma) with 3*alpha*beta*gamma =
    alpha^2 + beta^2 + gamma^2, holds iff m is a weight and the other three
    are squares: its sum 4*alpha*beta*gamma makes m the fourth weight, and
    conversely the product m * (alpha*beta*gamma)^2 = m^3 forces
    alpha*beta*gamma = m, so the sum 4m is the Markov relation.  Sum-type,
    (a, b, c, d) with d = a + b + c and 8abc = d^2, holds iff the largest
    weight d is 2m: its sum is 2d, and conversely a + b + c = 4m - d = d and
    64abcd = (2d)^3 is 8abc = d^2.  Both memberships can hold at once;
    sporadic solutions satisfy neither.
    """
    w = WeightTuple(weights)
    if w.dim != 3 or not satisfies_degeneration_equation(w):
        raise ValueError(f"{tuple(w)} is not a dimension-3 degeneration solution")

    m = w.total // 4
    p2 = m in w and all(map(_is_square, w[:w.index(m)] + w[w.index(m) + 1:]))
    sum_type = w[3] == 2 * m

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
    raise ValueError(f"{tuple(quad)} admits no (alpha^2, beta^2, 2 gamma^2) decomposition")


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


class MutationEdge(namedtuple("MutationEdge", "src dst fixed")):
    """Undirected edge between canonical nodes; fixed holds the preserved
    entry values of the mutation (sorted)."""

    __slots__ = ()


class MutationGraph(namedtuple("MutationGraph", "family nodes edges")):
    __slots__ = ()

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

# Largest max_weight generate_tree accepts.  Node counts grow as the square of
# the bound's digit count; at this bound the Markov graph has 9,670 nodes and
# takes about 0.2 s (2-core VM, CPython 3.11.7).
MAX_TREE_WEIGHT = 10**100


def generate_tree(family: Family | str, max_weight: int) -> MutationGraph:
    """Breadth-first closure of the family root under all mutations.

    Nodes are canonical (sorted) tuples with max entry <= max_weight,
    deduplicated; edges record the fixed entry values.  Mutations that fix a
    node are not edges.  The graph is not assumed to be a tree: cycle_rank
    reports any surplus edges found.  If the root itself exceeds max_weight
    the graph is empty.  A max_weight past MAX_TREE_WEIGHT raises
    CostLimitError.
    """
    family = Family(family)
    if max_weight < 1:
        raise ValueError("max_weight must be at least 1")
    if max_weight > MAX_TREE_WEIGHT:
        raise CostLimitError(f"max weight {max_weight} is past the tree limit of {MAX_TREE_WEIGHT:.0e} "
                             "(node counts grow as the square of its digit count)")

    markov = family is Family.MARKOV
    root = MarkovTriple(*_MARKOV_ROOT) if markov else SumQuadruple(*_SUM_ROOT)
    if max(root.canonical()) > max_weight:
        return MutationGraph(family, (), ())

    seen = {root.canonical()}
    edges = set()
    queue = deque([root])
    while queue:
        node = queue.popleft()
        here = node.canonical()
        # every mutation changes one of the first three slots and fixes the other two
        for slot, others in enumerate(((1, 2), (0, 2), (0, 1))):
            # roots multiply to q^2 + r^2 or (a + b)^2 > 0, so a valid node never raises
            neighbor = markov_mutate(node, slot) if markov else sum_mutate(node, others)
            there = neighbor.canonical()
            if there == here or max(there) > max_weight:
                continue
            if there not in seen:
                seen.add(there)
                queue.append(neighbor)
            lo, hi = min(here, there), max(here, there)
            edges.add(MutationEdge(lo, hi, tuple(sorted(node[i] for i in others))))
    return MutationGraph(family, tuple(sorted(seen)), tuple(sorted(edges)))
