"""Exhaustive search for solutions of (n+1)^n * prod(a_i) = (sum(a_i))^n.

Well-formed solution tuples are the weighted projective spaces that can
degenerate from P^n.  The search is exact and complete up to a max-weight
bound, and ships with an independent unpruned oracle for cross-checking.
Both return the bare weight tuples; analysing them is left to the caller.

The fast enumeration leans on the structure of the equation.  Write
s = sum(a_i).  Then (n+1)^n divides s^n, which forces (n+1) | s prime by
prime, so s = (n+1) * m for an integer m, and the equation collapses to

    prod(a_i) = m^n,    sum(a_i) = (n+1) * m.

Every a_i therefore divides m^n.  One radical sieve over 1..bound builds
the divisor lists of every m^n at once, cut at the bound and ascending
(`_divisor_lists`).  Each m up to the bound is one call of
`_solutions_with_sum`, which walks its list from the largest weight down.
Every pick has one window: with k weights left, of sum S, it lies between
the mean ceil(S / k) and the last pick or S - (k - 1), whichever is
smaller, as the other k - 1 weights are each at least 1; the product left
caps how far it may fall.  The two smallest weights are never searched:
once the third smallest is picked, the remaining sum S and product P make
them the roots x <= y of t^2 - S*t + P, so one integer square root of
S^2 - 4P, taken in the same loop, decides the pick (`_raw_solutions` gives
the range checks).
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

# Largest bound the search accepts: it holds the divisor lists of every m up
# to the bound at once and walks each.  At this bound dimension 3 takes
# 1.0-1.6 s and peaks at 36 MB RSS (1.56 million list entries), dimension 2
# 0.2-0.4 s and 32 MB; dimension 1 has a closed form (fresh process, shared
# 2-core VM, CPython 3.11.7).  tests/test_search.py checks the lists against
# trial division for 26 m at this bound in dimensions 2 and 3.  Its per-sum
# reference checks every m up to 2000 in dimension 3, and at this bound the
# 19 sums m <= 12,610 that the family trees name.
MAX_SEARCH_BOUND = 4 * 10**4

# Largest walk the search accepts, sized as comb(bound + n - 2, n - 1), the
# non-increasing (n-1)-tuples of weights <= bound that one m's walk would
# visit without its breaks.  At this size the walk takes about 1 s at
# (n, bound) = (4, 4931), 0.3 s at (5, 830) and 0.1 s at (8, 97) and at
# (500, 5) (same machine); (4, 1000) and (5, 200) are over 100 times smaller.
# The per-sum reference checks every m up to (4, 500), (5, 200) and (6, 60),
# the tree sums m at (5, 830) and, as a slow test, at (4, 4931), and at
# (8, 97) every m up to 48, which carry 1,783 of the 1,821 raw solutions.
MAX_SEARCH_TUPLES = 2 * 10**10


def _check_dimension(n: int) -> None:
    if n > MAX_SEARCH_DIMENSION:
        raise CostLimitError(f"dimension {n} is past the search limit of "
                             f"{MAX_SEARCH_DIMENSION} (one recursion level per weight)")


def _divisor_lists(n: int, bound: int) -> list[list[int]]:
    """lists[m] holds the divisors of m^n that are at most bound, ascending,
    for 1 <= m <= bound.

    The rule: d | m^n iff r(d) | m, where r(d) is the product of
    p^ceil(e/n) over the prime powers p^e of d.  Proof: d | m^n iff
    e <= n * v_p(m) for each p^e, that is v_p(m) >= ceil(e/n), which is
    r(d) | m.  Taking m = r, the r with d | r^n are the multiples of r(d),
    so r(d) is the least of them.  As 1 <= ceil(e/n) <= e, r(d) is a
    multiple of rad(d), the product of the primes of d, and r(d) <= d.  So
    stepping r up through the multiples of rad(d) until d | r^n stops at
    r(d), and d goes on the list of every multiple of r(d).  One radical
    sieve gives rad; d runs upwards, so each list comes out ascending, with
    no factoring and no sort."""
    rad = [1] * (bound + 1)
    for p in range(2, bound + 1):
        if rad[p] == 1:
            for k in range(p, bound + 1, p):
                rad[k] *= p
    lists: list[list[int]] = [[] for _ in range(bound + 1)]
    for d in range(1, bound + 1):
        r = rad[d]
        while pow(r, n, d):
            r += rad[d]
        for m in range(r, bound + 1, r):
            lists[m].append(d)
    return lists


def _walk(divs: list[int], top: int, slots: int, sum_left: int, prod_left: int,
          acc: tuple[int, ...], out: list[tuple[int, ...]]) -> None:
    """Append to out every solution whose largest weights are acc, ascending,
    and whose other slots weights, of sum sum_left and product prod_left,
    are drawn from divs[:top + 1].  The state travels in the arguments, so
    one function object serves every m (see _raw_solutions for the window
    and the leaf)."""
    start = min(top, bisect_right(divs, sum_left - slots + 1) - 1)
    for idx in range(start, bisect_left(divs, -(-sum_left // slots)) - 1, -1):
        a = divs[idx]
        if a ** slots < prod_left:
            break
        if prod_left % a:
            continue
        if slots > 3:
            _walk(divs, idx, slots - 1, sum_left - a, prod_left // a, (a,) + acc, out)
            continue
        s = sum_left - a
        disc = s * s - 4 * (prod_left // a)
        if disc < 0:
            continue
        root = isqrt(disc)
        if root * root == disc and s + root <= 2 * a:
            out.append(((s - root) // 2, (s + root) // 2, a) + acc)


def _solutions_with_sum(m: int, n: int, divs: list[int]) -> list[tuple[int, ...]]:
    """The ascending (n+1)-tuples with sum (n+1)*m and product m^n whose
    entries are drawn from divs, for n >= 2; divs is _divisor_lists(n,
    bound)[m], so the entries are at most bound.  Each is found once, in the
    walk's order, not sorted."""
    out: list[tuple[int, ...]] = []
    _walk(divs, len(divs) - 1, n + 1, (n + 1) * m, m ** n, (), out)
    return out


def _raw_solutions(n: int, bound: int) -> list[tuple[int, ...]]:
    """All ascending (n+1)-tuples with entries <= bound satisfying the equation,
    well-formed or not.

    For n = 1 the only one is (1, 1): 2xy = x + y <= 2y gives x = 1, and
    then 2y = 1 + y gives y = 1.

    For n >= 2 `_divisor_lists` builds every divisor list with one radical
    sieve, each m is one `_solutions_with_sum` call, and the results are
    sorted together.  Each call walks the divisor list of m^n with `_walk`,
    picking the weights from the largest down.  With k weights left, of sum
    S and product P, the pick a lies in one window, ceil(S / k) <= a <=
    min(last pick, S - k + 1): the other k - 1 weights are each at least 1,
    and the bound stands for the last pick of the first.  a^k >= P breaks
    the walk as a falls.  Once the third smallest a is picked, the two
    smallest x <= y are the roots of t^2 - s*t + p with s = S - a >= 2 and
    p = P / a >= 1, solved in the same loop; no parity check is needed, as
    the root of s^2 - 4p has the parity of s, and x >= 1 holds by the
    window, as root^2 < s^2.  They are kept when y <= a.  Each m has its
    own sum and the descending walk visits a tuple once: no duplicates."""
    if n == 1:
        return [(1, 1)]
    lists = _divisor_lists(n, bound)
    return sorted(w for m in range(1, bound + 1) for w in _solutions_with_sum(m, n, lists[m]))


def enumerate_solutions(n: int, bound: int) -> list[WeightTuple]:
    """All well-formed solutions of dimension n with max weight <= bound.

    Returns their WeightTuples in ascending order, as brute_force_oracle does.
    Raw solutions that are not well-formed are discarded, not normalized:
    normalization changes sum and product, so the normalized tuple would not
    satisfy the equation.  A dimension past MAX_SEARCH_DIMENSION, a bound
    past MAX_SEARCH_BOUND or a walk past MAX_SEARCH_TUPLES raises
    CostLimitError before the divisor lists are built.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    _check_dimension(n)
    if bound > MAX_SEARCH_BOUND:
        raise CostLimitError(f"bound {bound} is past the search limit of {MAX_SEARCH_BOUND} "
                             "(every m up to the bound gets a divisor list and a walk)")
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
