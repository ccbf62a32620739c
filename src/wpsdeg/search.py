"""Exhaustive search for solutions of (n+1)^n * prod(a_i) = (sum(a_i))^n.

Well-formed solution tuples are the weighted projective spaces that can
degenerate from P^n.  The search is exact and complete up to a max-weight
bound, and ships with an independent unpruned oracle for cross-checking.
Both return the bare weight tuples; analysing them is left to the caller.

The fast enumeration leans on the structure of the equation.  Write
s = sum(a_i).  Then (n+1)^n divides s^n, which forces (n+1) | s prime by
prime, so s = (n+1) * m for an integer m, and the equation collapses to

    prod(a_i) = m^n,    sum(a_i) = (n+1) * m.

Every a_i therefore divides m^n.  One smallest-prime-factor sieve over
1..bound factors every m, and each divisor list of m^n is built up prime by
prime and cut at the bound.  For each m up to the bound we walk that list
from the largest weight down.  Every pick has one window: with k weights
left, of sum S, it lies between the mean ceil(S / k) and the last pick or
S - (k - 1), whichever is smaller, as the other k - 1 weights are each at
least 1; the product left caps how far it may fall.  The two smallest
weights are never searched: once the third smallest is picked, the
remaining sum S and product P make them the roots x <= y of t^2 - S*t + P,
so one integer square root of S^2 - 4P, taken in the same loop, decides the
pick (`_raw_solutions` gives the range checks).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import comb, isqrt

# classify_solution and isolated_rigid_points are read here only by bench/spans.py PROBES.
from .mutation import classify_solution
from .singular import isolated_rigid_points
from .weights import CostLimitError, WeightTuple, is_well_formed

# The unpruned oracle walks every ascending tuple; refuse anything that would
# take more than about bound^(n+1) ~ 1e9 loop steps.
ORACLE_ITERATION_CUTOFF = 10 ** 9

# Largest dimension either search accepts: both recurse once per weight, and
# 500 levels leave half of CPython's default recursion limit to the caller.
MAX_SEARCH_DIMENSION = 500

# Largest bound the search accepts: it sieves to the bound and walks every m
# up to it.  Dimension 3 takes about 1.5 s at this bound and dimension 2
# about 0.5 s; dimension 1 has a closed form (shared 2-core VM, CPython
# 3.11.7).
MAX_SEARCH_BOUND = 4 * 10**4

# Largest walk the search accepts, sized as comb(bound + n - 2, n - 1), the
# non-increasing (n-1)-tuples of weights <= bound that one m's walk would
# visit without its breaks.  At this size the walk takes about 1 s at
# (n, bound) = (4, 4931), 0.3 s at (5, 830) and 0.1 s at (8, 97) and at
# (500, 5) (same machine); (4, 1000) and (5, 200) are over 100 times smaller.
MAX_SEARCH_TUPLES = 2 * 10**10


def _check_dimension(n: int) -> None:
    if n > MAX_SEARCH_DIMENSION:
        raise CostLimitError(f"dimension {n} is past the search limit of "
                             f"{MAX_SEARCH_DIMENSION} (one recursion level per weight)")


def _smallest_prime_factors(bound: int) -> list[int]:
    """spf[m] is the smallest prime factor of m, for 2 <= m <= bound.  One
    sieve serves every m of a search: m factors as spf[m] times m // spf[m]."""
    spf = list(range(bound + 1))
    for p in range(2, isqrt(bound) + 1):
        if spf[p] == p:
            for q in range(p * p, bound + 1, p):
                if spf[q] == q:
                    spf[q] = p
    return spf


def _divisors_bounded(m: int, n: int, spf: list[int], bound: int) -> list[int]:
    """The divisors of m^n that are at most bound, ascending; spf is a sieve
    reaching m.  Each prime power p^e of m multiplies the list so far by p,
    p^2, ..., p^(e*n) and stops at the bound; the list is kept ascending, so
    the first d with d*p past the bound ends the prime."""
    divs = [1]
    while m > 1:
        p = spf[m]
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        powers = []
        for d in divs:
            if d * p > bound:
                break
            for _ in range(e * n):
                d *= p
                if d > bound:
                    break
                powers.append(d)
        divs += powers
        divs.sort()
    return divs


def _raw_solutions(n: int, bound: int) -> list[tuple[int, ...]]:
    """All ascending (n+1)-tuples with entries <= bound satisfying the equation,
    well-formed or not.

    For n = 1 the only one is (1, 1): 2xy = x + y <= 2y gives x = 1, and
    then 2y = 1 + y gives y = 1.

    For n >= 2 one smallest-prime-factor sieve over 1..bound gives every m
    its divisor list.  The weights are picked from the largest down, each
    one a divisor of m^n.  With k weights left, of sum S and product P, the
    pick a lies in one window, ceil(S / k) <= a <= min(last pick, S - k + 1):
    the other k - 1 weights are each at least 1, and the bound stands for
    the last pick of the first.  a^k >= P breaks the walk as a falls.  Once
    the third smallest a is picked, the two smallest x <= y are the roots
    of t^2 - s*t + p with s = S - a >= 2 and p = P / a >= 1, solved in the
    same loop; no parity check is needed, as the root of s^2 - 4p has the
    parity of s, and x >= 1 holds by the window, as root^2 < s^2.  They are
    kept when y <= a.  Each m has its own sum and the descending walk visits
    a tuple once: no duplicates."""
    if n == 1:
        return [(1, 1)]
    out: list[tuple[int, ...]] = []
    spf = _smallest_prime_factors(bound)
    for m in range(1, bound + 1):
        divs = _divisors_bounded(m, n, spf, bound)

        def extend(top: int, slots: int, sum_left: int, prod_left: int, acc: list[int]):
            start = min(top, bisect_right(divs, sum_left - slots + 1) - 1)
            for idx in range(start, bisect_left(divs, -(-sum_left // slots)) - 1, -1):
                a = divs[idx]
                if a ** slots < prod_left:
                    break
                if prod_left % a:
                    continue
                if slots > 3:
                    acc.append(a)
                    extend(idx, slots - 1, sum_left - a, prod_left // a, acc)
                    acc.pop()
                    continue
                s = sum_left - a
                disc = s * s - 4 * (prod_left // a)
                if disc < 0:
                    continue
                root = isqrt(disc)
                if root * root == disc and s + root <= 2 * a:
                    out.append(((s - root) // 2, (s + root) // 2, a, *reversed(acc)))

        extend(len(divs) - 1, n + 1, (n + 1) * m, m ** n, [])
    return sorted(out)


def enumerate_solutions(n: int, bound: int) -> list[WeightTuple]:
    """All well-formed solutions of dimension n with max weight <= bound.

    Returns their WeightTuples in ascending order, as brute_force_oracle does.
    Raw solutions that are not well-formed are discarded, not normalized:
    normalization changes sum and product, so the normalized tuple would not
    satisfy the equation.  A dimension past MAX_SEARCH_DIMENSION, a bound
    past MAX_SEARCH_BOUND or a walk past MAX_SEARCH_TUPLES raises
    CostLimitError before any sieve or divisor list is built.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    _check_dimension(n)
    if bound > MAX_SEARCH_BOUND:
        raise CostLimitError(f"bound {bound} is past the search limit of {MAX_SEARCH_BOUND} "
                             "(every m up to the bound is sieved and walked)")
    if comb(bound + n - 2, n - 1) > MAX_SEARCH_TUPLES:
        raise CostLimitError(f"dimension {n} with bound {bound} is past the search limit: "
                             f"comb({bound + n - 2}, {n - 1}) weight tuples to walk, "
                             f"over {MAX_SEARCH_TUPLES}")
    return [w for w in map(WeightTuple, _raw_solutions(n, bound)) if is_well_formed(w)]


def brute_force_oracle(n: int, bound: int) -> list[WeightTuple]:
    """Independent check: same tuples by plain nested iteration, no pruning.

    Visits every ascending (n+1)-tuple with entries in 1..bound and tests the
    equation on each, then filters well-formedness.  Only the partial sums and
    products are kept incrementally; nothing is skipped.  Refuses inputs where
    bound^(n+1) exceeds the iteration cutoff or n exceeds MAX_SEARCH_DIMENSION.
    """
    if n < 1 or bound < 1:
        raise ValueError("need n >= 1 and bound >= 1")
    _check_dimension(n)
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
