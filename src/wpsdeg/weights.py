"""Weight tuples of weighted projective spaces and their numerical invariants.

A weighted projective space P(a_0, ..., a_n) is determined by its tuple of
positive integer weights, considered up to permutation.  This module holds the
tuple type plus the arithmetic that everything else builds on: well-formedness,
reduction to the well-formed model, anticanonical volume, graded monomial
counts, and the dimension counts for automorphism groups and moduli of
hypersurface pairs.

All arithmetic is exact: arbitrary-precision integers and fractions.Fraction.
No floats anywhere; the quantities involved ((sum of weights)^n against
products of weights) overflow 64-bit integers at modest bounds and sit exactly
on equality boundaries.
"""

from itertools import accumulate
from math import gcd, lcm, prod
from operator import add


class WeightTuple(tuple):
    """Sorted tuple of positive integer weights, length at least 2.

    Stored ascending: tuples are compared, hashed and deduplicated in this
    canonical form throughout the package.  A WeightTuple passed in is
    returned as it is, since it is already sorted, checked and immutable.
    """

    def __new__(cls, weights):
        if type(weights) is cls:
            return weights
        ws = tuple(sorted(weights))
        if len(ws) < 2:
            raise ValueError("need at least two weights")
        for a in ws:
            if not isinstance(a, int) or isinstance(a, bool) or a < 1:
                raise ValueError(f"weights must be positive integers, got {a!r}")
        return super().__new__(cls, ws)

    @property
    def dim(self) -> int:
        """Dimension n of P(a_0, ..., a_n)."""
        return len(self) - 1

    @property
    def total(self) -> int:
        return sum(self)

    @property
    def product(self) -> int:
        return prod(self)

    def __repr__(self):
        return f"WeightTuple({tuple(self)})"


def _cofactor_gcds(weights) -> list[int]:
    """d_i = gcd(a_j : j != i) for each position i, in O(n) gcds.

    d_i = gcd(gcd(a_0..a_{i-1}), gcd(a_{i+1}..a_n)), from the running gcds
    taken from the left and from the right (gcd(0, a) = a starts both).
    """
    before = [0, *accumulate(weights, gcd)]
    after = [*accumulate(reversed(weights), gcd)][::-1] + [0]
    return list(map(gcd, before, after[1:]))


def is_well_formed(weights: WeightTuple) -> bool:
    """True iff every n of the n+1 weights are coprime, i.e. every d_i = 1."""
    return all(d == 1 for d in _cofactor_gcds(WeightTuple(weights)))


def normalize(weights) -> WeightTuple:
    """Reduce a weight tuple to the well-formed model of the same space.

    Closed form (Dolgachev, *Weighted projective varieties*; Iano-Fletcher,
    *Working with weighted complete intersections*): divide every weight by
    the gcd of all of them, then with d_i = gcd(a_j : j != i) replace a_i by
    a_i / prod(d_j : j != i).  The division is exact because the d_i are
    pairwise coprime and d_j divides a_i for j != i; the result is
    well-formed because any n of the new weights have a gcd dividing
    gcd(a_j / d_i : j != i) = 1.  The function is idempotent.
    """
    w = WeightTuple(weights)
    g = gcd(*w)
    ws = [a // g for a in w]
    d = _cofactor_gcds(ws)
    whole = prod(d)
    return WeightTuple(a // (whole // d_i) for a, d_i in zip(ws, d))


def satisfies_degeneration_equation(weights) -> bool:
    """Exact check of (n+1)^n * prod(a_i) == (sum(a_i))^n.

    This is the numerical condition a weighted projective space must satisfy
    to admit a Q-Gorenstein smoothing to P^n; equivalently, its anticanonical
    volume equals that of P^n (see anticanonical_volume).
    """
    w = WeightTuple(weights)
    n = w.dim
    return (n + 1) ** n * w.product == w.total ** n


def anticanonical_volume(weights) -> "Fraction":
    """K^n of P(a_0, ..., a_n) as an exact rational: (-sum a_i)^n / prod a_i.

    The formula is the standard one for the well-formed model; callers who
    hold a non-well-formed tuple should normalize first if they want the
    intrinsic volume.
    """
    from fractions import Fraction  # here: the CLI needs it only for a non-solution
    w = WeightTuple(weights)
    return Fraction((-w.total) ** w.dim, w.product)


# Largest coin-counting table denumerants fills, in entries.  At the limit,
# denumerant(9_999_000, (1, 1, 1, 1, 2, 9_999_991)) sums out its 2 and takes
# 1.5-1.7 s.  (1, 1, 2, 3, 1409, 1423) keeps its table, since its reads
# would cost more, and takes 1.8-2.5 s: its 1409 is the seed, so no fill
# runs at a wide stride.  Each wide filled weight past the seed adds about
# 1 s: (1, 1409, 1423, 1427, 1429, 1433) takes 3.5-3.8 s.  The first two peak
# at about 550 MB RSS, the third at 626 MB, nearly all of it the table's big
# integers (CPython 3.11, shared 2-core VM).
MAX_DENUMERANT_TABLE = 10**7

# Most new table entries one slice step of the fill writes, so what a step
# copies stays some tens of kilobytes however large the table is.
_PIECE = 4096


class CostLimitError(ValueError):
    """Input past a cost limit: denumerant table, Reid-Tai walk, search
    dimension, search bound, search walk size or tree max weight."""


def _sum_out_pays(reads, top, second, largest) -> bool:
    """True when reading the two largest weights costs no more than filling
    the second: sum over the degrees m read of m / largest + m^2 / (2 *
    largest * second), the strided sums and the entries they add, is at most
    top, the additions the fill of `second` would make.  Multiplied through
    by 2 * largest * second, so the comparison is in integers."""
    return sum(m * (m + 2 * second) for m in reads) <= 2 * largest * second * top


def denumerants(degrees, weights) -> list[int]:
    """Number of monomials of each weighted degree in `degrees`, n+1 variables.

    Counts exponent vectors m >= 0 with sum m_i * a_i = d for every d in the
    iterable `degrees`, in its order, from one coin-counting table; a
    negative degree counts zero (empty linear system).  With L = lcm(a) and
    d = rho + x * L, 0 <= rho < L, the count is a polynomial f(x) of degree
    <= n for every d >= 0 (1 / prod(1 - t^a_i) is proper with poles at L-th
    roots of unity; Stanley, *Enumerative Combinatorics I*, 4.4).  So the
    table stops at top = max over the degrees of min(d, rho + n * L); a
    degree with x <= n is read from it directly, and one with x > n as
    f(x) = sum_k C(x, k) * D^k f(0), Newton's forward differences of
    f(0..n) at its own rho, all integers.

    The table holds the weights not summed out (below), filled from the
    largest down.  It starts as the largest one's own table, all ones on
    its multiples, and is kept on the multiples of g, the gcd of the
    weights filled so far, entry i standing for degree i * g: weights that
    g divides sum only to multiples of g, so every other degree counts 0.
    When weight c has h = gcd(g, c) < g, one slice assignment spreads the
    table onto the multiples of h, and h becomes g.  Weight c then turns
    each residue class mod c // g of the table into its prefix sums: down
    stride-(c // g) slices with accumulate when (c // g)^2 <= top // g,
    else row by row, adding the row c // g below.  A step writes at most
    _PIECE new entries; a strided window starts on the last, already
    final, entry of the one before.  So weight c takes at most sqrt(top)
    + top / _PIECE + 1 interpreted steps.  Steps go up the table block by
    block, each block of _PIECE rows finished before the next, so the
    integers a step frees are reused at once and peak memory stays that of
    the plain in-place loop; a spread briefly holds the old table and the
    zeros it replaces beside the new one, about 2 * top // h pointers in
    all.  Cost O(n * top) additions plus the reads; a table past
    MAX_DENUMERANT_TABLE raises CostLimitError before allocating.

    The largest weight a_n is never filled.  An exponent vector of degree
    m splits by its exponent j of a_n, so with T the table of the other
    weights, count(m) = T[m] + T[m - a_n] + ..., one strided sum.  With
    n >= 2 the second-largest weight s = a_{n-1} may be summed out the
    same way: with T the table of a_0..a_{n-2}, splitting also by the
    exponent k of s,

        count(m) = sum over j <= m / a_n, k <= (m - j * a_n) / s
                   of T[m - j * a_n - k * s],

    and for each j the sum over k is one strided sum down from m - j * a_n
    in steps of s, m / a_n + 1 of them in all.  That saves the top
    additions of the fill of s and costs about m / a_n strided sums of
    m^2 / (2 * a_n * s) entries in all, over every degree m read: once for
    a degree read directly, at each rho + k * L, k = 0..n, for an
    interpolated one.  So s is summed out when those reads add up to at
    most top (_sum_out_pays), and filled otherwise.  Every strided sum
    reads its entries _PIECE at a time, so a read copies no more pointers
    at once than a fill step.  A strided sum down from m in steps of c
    reads only its terms on the grid: with h = gcd(g, c) there are none
    unless h divides m, and then they are every (g // h)-th term from
    m - j * c, where j = (m / h) * (c / h)^-1 mod g / h is the first that
    g divides.  So the table is never spread onto every degree.
    """
    degrees = tuple(degrees)
    w = WeightTuple(weights)
    n, period = w.dim, lcm(*w)

    def reads(degree):
        if degree < 0:
            return ()
        x, rho = divmod(degree, period)
        return (degree,) if x <= n else range(rho, rho + n * period + 1, period)

    wanted = [reads(degree) for degree in degrees]
    every = [m for ms in wanted for m in ms]
    top = max(every, default=0)
    if top >= MAX_DENUMERANT_TABLE:
        deepest = next(d for d, ms in zip(degrees, wanted) if top in ms)
        raise CostLimitError(f"denumerant of degree {deepest} on {tuple(w)} needs "
                             f"{top + 1} table entries, over {MAX_DENUMERANT_TABLE}")
    smallest, *middle, largest = w
    pays = n >= 2 and _sum_out_pays(every, top, middle[-1], largest)
    second = middle.pop() if pays else None
    *filled, g = smallest, *middle
    table = [1] * (top // g + 1)
    for c in reversed(filled):
        h = gcd(g, c)
        if h < g:
            grown = [0] * (top // h + 1)
            grown[::g // h] = table
            table, g = grown, h
        c, last = c // g, top // g
        if c * c <= last:
            span = _PIECE * c
            for start in range(0, last + 1 - c, span):
                for i in range(start, start + c):
                    table[i:i + span + 1:c] = accumulate(table[i:i + span + 1:c])
        else:
            step = min(_PIECE, c)
            for i in range(c, last + 1, step):
                table[i:i + step] = map(add, table[i:i + step], table[i - c:i - c + step])

    def column(m, c):
        # the entries of degrees m, m - c, ..., m % c that lie on the grid
        # (docstring), _PIECE entries a slice
        h = gcd(g, c)
        j = m // h * pow(c // h, -1, g // h) % (g // h)
        if m % h or m < j * c:
            return 0
        m, c = (m - j * c) // g, c // h
        span = _PIECE * c
        if m < span:
            return sum(table[m::-c])
        return sum(sum(table[i:min(i + span, m + 1):c]) for i in range(m % c, m + 1, span))

    def value(m):
        if second is None:
            return column(m, largest)
        return sum(column(i, second) for i in range(m, -1, -largest))

    def count(degree, ms):
        diffs = [value(m) for m in ms]
        if len(diffs) < 2:
            return sum(diffs)
        x = degree // period
        total, binomial = 0, 1
        for k in range(n + 1):
            total += binomial * diffs[0]
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            binomial = binomial * (x - k) // (k + 1)
        return total

    return [count(degree, ms) for degree, ms in zip(degrees, wanted)]


def denumerant(degree: int, weights) -> int:
    """Number of monomials of weighted degree `degree`: denumerants((degree,), weights)[0]."""
    return denumerants((degree,), weights)[0]


def _require_well_formed(w: WeightTuple, caller: str) -> None:
    if not is_well_formed(w):
        raise ValueError(f"{caller} requires a well-formed tuple: {tuple(w)} is not well-formed; "
                         "normalize first")


def aut_dimension(weights) -> int:
    """Dimension of the automorphism group of a well-formed P(a_0, ..., a_n).

    Each coordinate x_i may be substituted by any monomial of its own degree,
    and the global scalar acts trivially:

        sum_i denumerant(a_i) - 1,

    all n+1 counts read from one table (denumerants).  For P^n this is
    (n+1)^2 - 1 = dim PGL(n+1).  Only defined here for well-formed tuples;
    the count is wrong on non-well-formed models, so those are rejected
    rather than silently normalized.
    """
    w = WeightTuple(weights)
    _require_well_formed(w, "aut_dimension")
    return sum(denumerants(w, w)) - 1


class NonIntegralDegreeError(ValueError):
    """The requested divisor degree d * sum(a_i) / q is not an integer."""


def moduli_component_dimension(weights, degree: int, divisor_ratio: int) -> int:
    """Dimension of the family of degree-pair hypersurfaces modulo Aut.

    For a pair consisting of P(a_0, ..., a_n) and a divisor D with
    q * D ~ d * (-K), the divisor lives in the linear system of weighted
    degree d * sum(a_i) / q.  The moduli contribution is the projective
    dimension of that system minus the automorphism dimension:

        (denumerant(d * sum(a_i) / q) - 1) - aut_dimension,

    with the linear system and every Aut count read from one table
    (denumerants).  It is h^0 - 1 - dim Aut, so it is negative when Aut acts
    with positive-dimensional stabilizers: -8 for P(1, 4, 25), d = 1, q = 3.

    `divisor_ratio` is the q above; pass n+1 for degenerations of P^n.
    Raises NonIntegralDegreeError when q does not divide d * sum(a_i), i.e.
    no such divisor class pairing exists, and ValueError when d < 1 or q < 1.
    """
    w = WeightTuple(weights)
    if degree < 1:
        raise ValueError(f"degree d must be at least 1, got {degree}")
    if divisor_ratio < 1:
        raise ValueError(f"divisor ratio q must be at least 1, got {divisor_ratio}")
    numerator = degree * w.total
    if numerator % divisor_ratio != 0:
        raise NonIntegralDegreeError(
            f"divisor degree {numerator}/{divisor_ratio} is not integral for {tuple(w)}"
        )
    _require_well_formed(w, "moduli_component_dimension")
    linear_system, *aut = denumerants((numerator // divisor_ratio, *w), w)
    return (linear_system - 1) - (sum(aut) - 1)

