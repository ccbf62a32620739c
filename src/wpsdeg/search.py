"""Exhaustive search for solutions of (n+1)^n * prod(a_i) = (sum(a_i))^n.

Well-formed solution tuples are the weighted projective spaces that can
degenerate from P^n.  The search is exact and complete up to a max-weight
bound, and ships with an independent unpruned oracle for cross-checking.

The fast enumeration leans on the structure of the equation.  Write
s = sum(a_i).  Then (n+1)^n divides s^n, which forces (n+1) | s prime by
prime, so s = (n+1) * m for an integer m, and the equation collapses to

    prod(a_i) = m^n,    sum(a_i) = (n+1) * m.

Every a_i therefore divides m^n.  For each m up to the bound we enumerate
ascending tuples of divisors of m^n with the prescribed sum and product;
the divisibility and sum/product window constraints cut the tree down to
almost nothing.  The last two weights are never searched: once all others
are fixed, the remaining sum S and product P make them the roots x <= y of
t^2 - S*t + P, so one integer square root of S^2 - 4P decides the branch
(`_raw_solutions` says why it needs no parity check and two range checks).
"""

from __future__ import annotations

from math import isqrt

from .mutation import classify_solution
from .singular import SmoothabilityReport, isolated_rigid_points
from .weights import WeightTuple, is_well_formed

# The unpruned oracle walks every ascending tuple; refuse anything that would
# take more than about bound^(n+1) ~ 1e9 loop steps.
ORACLE_ITERATION_CUTOFF = 10 ** 9


def _factorize(m: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


def _divisors_bounded(factors: dict[int, int], bound: int) -> list[int]:
    divs = [1]
    for p, e in factors.items():
        divs = [d * p ** k for d in divs for k in range(e + 1) if d * p ** k <= bound]
    return sorted(divs)


def _raw_solutions(n: int, bound: int) -> list[tuple[int, ...]]:
    """All ascending (n+1)-tuples with entries <= bound satisfying the equation,
    well-formed or not.  The last two weights x <= y are the roots of
    t^2 - S*t + P (remaining sum and product); no parity check is needed, as
    the root of S^2 - 4P has the parity of S.  Since x * y = P divides m^n and
    x <= y <= bound, x is a walked divisor, so x >= divs[start] (the walk stays
    ascending) and y <= bound are the only range checks.  Each m has its own
    sum and the ascending walk visits a tuple once: no duplicates."""
    out: list[tuple[int, ...]] = []
    slots_total = n + 1
    for m in range(1, bound + 1):
        target_prod = m ** n
        factors = {p: e * n for p, e in _factorize(m).items()}
        divs = _divisors_bounded(factors, bound)

        def extend(start: int, slots: int, sum_left: int, prod_left: int, acc: list[int]):
            if slots == 2:
                disc = sum_left * sum_left - 4 * prod_left
                if disc < 0:
                    return
                root = isqrt(disc)
                if root * root == disc:
                    # root^2 = S^2 - 4P = S^2 (mod 4) forces root = S (mod 2)
                    x, y = (sum_left - root) // 2, (sum_left + root) // 2
                    if x >= divs[start] and y <= bound:
                        out.append((*acc, x, y))
                return
            for idx in range(start, len(divs)):
                a = divs[idx]
                # entries are ascending, so the remaining sum is at least slots * a
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


def enumerate_solutions(n: int, bound: int) -> list[SmoothabilityReport]:
    """All well-formed solutions of dimension n with max weight <= bound.

    Returns one report per solution, sorted lexicographically by canonical
    tuple, each carrying its family classification (dimension 3 only) and
    its rigid points (dimension >= 3 only).
    Raw solutions that are not well-formed are discarded, not normalized:
    normalization changes sum and product, so the normalized tuple would not
    satisfy the equation.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    solutions = []
    for raw in _raw_solutions(n, bound):
        w = WeightTuple(raw)
        if not is_well_formed(w):
            continue
        solutions.append(SmoothabilityReport(
            w,
            classify_solution(w) if n == 3 else None,
            tuple(isolated_rigid_points(w)) if n >= 3 else (),
        ))
    return solutions


def brute_force_oracle(n: int, bound: int) -> list[WeightTuple]:
    """Independent check: same tuples by plain nested iteration, no pruning.

    Visits every ascending (n+1)-tuple with entries in 1..bound and tests the
    equation on each, then filters well-formedness.  Only the partial sums and
    products are kept incrementally; nothing is skipped.  Refuses inputs where
    bound^(n+1) exceeds the iteration cutoff.
    """
    if n < 1 or bound < 1:
        raise ValueError("need n >= 1 and bound >= 1")
    if bound ** (n + 1) > ORACLE_ITERATION_CUTOFF:
        raise ValueError(
            f"oracle refuses: bound^(n+1) = {bound ** (n + 1)} exceeds "
            f"{ORACLE_ITERATION_CUTOFF} iterations"
        )
    coefficient = (n + 1) ** n
    hits: list[tuple[int, ...]] = []
    prefix = [0] * (n + 1)

    def walk(level: int, lowest: int, partial_sum: int, partial_prod: int):
        if level == n:
            for x in range(lowest, bound + 1):
                if coefficient * partial_prod * x == (partial_sum + x) ** n:
                    hits.append(tuple(prefix[:n]) + (x,))
            return
        for x in range(lowest, bound + 1):
            prefix[level] = x
            walk(level + 1, x, partial_sum + x, partial_prod * x)

    walk(0, 1, 0, 1)
    return [WeightTuple(t) for t in hits if is_well_formed(WeightTuple(t))]
