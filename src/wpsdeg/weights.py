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

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, prod


class WeightTuple(tuple):
    """Sorted tuple of positive integer weights, length at least 2.

    Stored ascending: tuples are compared, hashed and deduplicated in this
    canonical form throughout the package.
    """

    def __new__(cls, weights):
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


def is_well_formed(weights: WeightTuple) -> bool:
    """True iff every n of the n+1 weights are coprime."""
    w = WeightTuple(weights)
    for sub in combinations(w, len(w) - 1):
        if gcd(*sub) != 1:
            return False
    return True


def normalize(weights) -> WeightTuple:
    """Reduce a weight tuple to the well-formed model of the same space.

    Two reductions apply, each an isomorphism of the underlying variety:

    * divide every weight by the gcd of all of them (grading rescale);
    * if the weights other than a_i share a common factor q > 1, divide each
      of them by q (valid once the total gcd is 1, which makes q coprime
      to a_i).

    Repeating until neither applies yields the unique well-formed sorted
    tuple; the function is idempotent.
    """
    ws = list(WeightTuple(weights))
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
    return WeightTuple(ws)


def satisfies_degeneration_equation(weights) -> bool:
    """Exact check of (n+1)^n * prod(a_i) == (sum(a_i))^n.

    This is the numerical condition a weighted projective space must satisfy
    to admit a Q-Gorenstein smoothing to P^n; equivalently, its anticanonical
    volume equals that of P^n (see anticanonical_volume).
    """
    w = WeightTuple(weights)
    n = w.dim
    return (n + 1) ** n * w.product == w.total ** n


def anticanonical_volume(weights) -> Fraction:
    """K^n of P(a_0, ..., a_n) as an exact rational: (-sum a_i)^n / prod a_i.

    The formula is the standard one for the well-formed model; callers who
    hold a non-well-formed tuple should normalize first if they want the
    intrinsic volume.
    """
    w = WeightTuple(weights)
    return Fraction((-w.total) ** w.dim, w.product)


def denumerant(degree: int, weights) -> int:
    """Number of monomials of weighted degree `degree` in n+1 variables.

    Counts exponent vectors m >= 0 with sum m_i * a_i = degree, by the usual
    one-dimensional coin-counting table: O((n+1) * degree) exact integer
    additions.  Negative degree counts zero monomials (empty linear system).
    """
    w = WeightTuple(weights)
    if degree < 0:
        return 0
    table = [1] + [0] * degree
    for a in w:
        for j in range(a, degree + 1):
            table[j] += table[j - a]
    return table[degree]


def aut_dimension(weights) -> int:
    """Dimension of the automorphism group of a well-formed P(a_0, ..., a_n).

    Each coordinate x_i may be substituted by any monomial of its own degree,
    and the global scalar acts trivially:

        sum_i denumerant(a_i) - 1.

    For P^n this is (n+1)^2 - 1 = dim PGL(n+1).  Only defined here for
    well-formed tuples; the count is wrong on non-well-formed models, so those
    are rejected rather than silently normalized.
    """
    w = WeightTuple(weights)
    if not is_well_formed(w):
        raise ValueError(f"aut_dimension requires a well-formed tuple, got {tuple(w)}")
    return sum(denumerant(a, w) for a in w) - 1


class NonIntegralDegreeError(ValueError):
    """The requested divisor degree d * sum(a_i) / q is not an integer."""


def moduli_component_dimension(weights, degree: int, divisor_ratio: int) -> int:
    """Dimension of the family of degree-pair hypersurfaces modulo Aut.

    For a pair consisting of P(a_0, ..., a_n) and a divisor D with
    q * D ~ d * (-K), the divisor lives in the linear system of weighted
    degree d * sum(a_i) / q.  The moduli contribution is the projective
    dimension of that system minus the automorphism dimension:

        (denumerant(d * sum(a_i) / q) - 1) - aut_dimension.

    `divisor_ratio` is the q above; pass n+1 for degenerations of P^n.
    Raises NonIntegralDegreeError when q does not divide d * sum(a_i), i.e.
    no such divisor class pairing exists, and ValueError when q < 1.
    """
    w = WeightTuple(weights)
    if divisor_ratio < 1:
        raise ValueError(f"divisor ratio q must be at least 1, got {divisor_ratio}")
    numerator = degree * w.total
    if numerator % divisor_ratio != 0:
        raise NonIntegralDegreeError(
            f"divisor degree {numerator}/{divisor_ratio} is not integral for {tuple(w)}"
        )
    linear_system_degree = numerator // divisor_ratio
    return (denumerant(linear_system_degree, w) - 1) - aut_dimension(w)


def hypersurface_section_count(ambient, hypersurface_degree: int, degree: int) -> int:
    """Monomial count of degree `degree` restricted to a degree-h hypersurface.

    On X = {f = 0} in P(a) with deg f = h, sections of O(d) are ambient
    monomials modulo multiples of f:

        denumerant(d) - denumerant(d - h).
    """
    w = WeightTuple(ambient)
    if hypersurface_degree < 1:
        raise ValueError("hypersurface degree must be positive")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return denumerant(degree, w) - denumerant(degree - hypersurface_degree, w)
