"""Singular strata of weighted projective spaces and quotient-germ analysis.

A point of P(a_0, ..., a_n) with support S (the coordinates that are nonzero
there) is stabilized by mu_m for m = gcd(a_j : j in S), so the singular locus
is stratified by coordinate subspaces with m > 1.  Transverse to a stratum
the germ is the cyclic quotient 1/m(a_k mod m : k outside), which the
Reid-Tai criterion classifies as terminal, canonical or klt by the minimal
age of a group element.  Isolated singular points in ambient dimension >= 3
rigidify the whole space (no nontrivial deformations, hence no smoothing),
which is the one purely combinatorial smoothability obstruction computed
here.

Everything is exact integer arithmetic; ages are compared as integer sums
against the group order, never as floats, because the canonical/klt boundary
sits exactly at age 1.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from math import gcd

from .mutation import Classification, classify_solution
from .weights import (CostLimitError, WeightTuple, _cofactor_gcds, _require_well_formed,
                      satisfies_degeneration_equation)

# Most group elements reid_tai_classify walks in search of an age below 1.
# Terminal and canonical germs have none, so they would walk all r - 1: about
# 1 us per element with three residues (CPython 3.11, Xeon VM), 2 s at this
# limit, a quarter of an hour for r near 10^9.
MAX_REID_TAI_WALK = 2 * 10**6


class Verdict(str, Enum):
    TERMINAL = "Terminal"
    STRICTLY_CANONICAL = "StrictlyCanonical"
    STRICTLY_KLT = "StrictlyKlt"

    def __str__(self):
        return self.value


class CyclicQuotient(namedtuple("CyclicQuotient", "order weights")):
    """Germ 1/r(w_1, ..., w_k): mu_r acting with the given weight residues.

    Residues are stored reduced mod r, sorted, and must all be nonzero (a
    zero residue is a fixed coordinate direction, not transverse data).
    """

    __slots__ = ()

    def __new__(cls, order: int, weights):
        if order < 2:
            raise ValueError("group order must be at least 2")
        residues = tuple(sorted(w % order for w in weights))
        if not residues:
            raise ValueError("need at least one weight")
        if residues[0] == 0:
            raise ValueError(f"zero residue mod {order} in {tuple(weights)}")
        return tuple.__new__(cls, (order, residues))

    # _replace and copy.replace build through _make, so they run the checks too
    _make = classmethod(lambda cls, fields: cls(*fields))

    def notation(self) -> str:
        return f"1/{self.order}({','.join(str(w) for w in self.weights)})"

    @property
    def verdict(self) -> Verdict:
        return reid_tai_classify(self)


def reid_tai_classify(germ: CyclicQuotient) -> Verdict:
    """Classify a cyclic quotient germ by the minimal age of a group element.

    age(k) = sum_i ((k * w_i) mod r) / r for k = 1..r-1.  Comparisons are done
    on the integer numerator sum against r, so age exactly 1 (the canonical /
    klt boundary) is decided exactly.  Terminal: every age > 1.
    StrictlyCanonical: minimal age = 1.  StrictlyKlt: some age < 1.

    Elements acting as the identity (all residues 0) or as a quasi-reflection
    (all residues 0 except one) are rejected: such data does not describe an
    honest quotient singularity germ and cannot come from singular_strata on
    well-formed input.  Admissibility is decided by gcds before any age is
    summed: with g_i = gcd(r, w_j : j != i), element k has at most one nonzero
    residue exactly when r / g_i divides k for some i, so the first offending
    element is k = min(r / g_i) over the i with g_i > 1.
    The age walk then stops at the first age < 1 (StrictlyKlt); terminal and
    canonical germs walk all r - 1 elements.  When r - 1 exceeds
    MAX_REID_TAI_WALK and none of the first MAX_REID_TAI_WALK elements has
    age < 1, CostLimitError is raised instead of walking on.
    """
    r = germ.order
    ws = germ.weights
    offending = [r // g for g in _cofactor_gcds((r, *ws))[1:] if g > 1]
    if offending:
        k = min(offending)
        if all((k * w) % r == 0 for w in ws):
            raise ValueError(f"{germ.notation()}: element {k} acts as the identity")
        raise ValueError(f"{germ.notation()}: element {k} is a quasi-reflection")
    canonical = False
    for k in range(1, min(r, MAX_REID_TAI_WALK + 1)):
        numerator = sum((k * w) % r for w in ws)
        if numerator < r:
            return Verdict.STRICTLY_KLT
        canonical = canonical or numerator == r
    if r - 1 > MAX_REID_TAI_WALK:
        raise CostLimitError(f"{germ.notation()}: no age below 1 among the first "
                             f"{MAX_REID_TAI_WALK} of {r - 1} elements; the rest is "
                             "past the Reid-Tai walk limit")
    return Verdict.STRICTLY_CANONICAL if canonical else Verdict.TERMINAL


class SingularStratum(namedtuple("SingularStratum", "indices order transverse maximal")):
    """Closed singular stratum: the coordinate subspace spanned by `indices`.

    order is the stabilizer order m of a generic point; transverse is the
    quotient germ in the normal directions; maximal means the stratum is not
    contained in the closure of a larger singular stratum.
    """

    __slots__ = ()

    @property
    def dimension(self) -> int:
        return len(self.indices) - 1

    @property
    def is_isolated_point(self) -> bool:
        return self.dimension == 0 and self.maximal


def singular_strata(weights) -> list[SingularStratum]:
    """All singular strata of a well-formed weighted projective space.

    Each distinct gcd m > 1 of a nonempty index subset is one closed stratum:
    the coordinate subspace on J(m) = {j : m divides a_j}, whose gcd is m
    again, with transverse germ 1/m(a_k mod m : k not in J(m)).  These m are
    the closure of the weights under gcd.  J(m) is strictly contained in J(o)
    exactly when o properly divides m, so a stratum is maximal when no other
    order divides its own.  Every order divides a weight, so for n + 1 weights
    there are s <= (n + 1) * max_j d(a_j) strata (d counts divisors), and the
    cost, O(n * s + s^2) integer operations, is polynomial in the number of
    weights.

    Sorted by ascending stabilizer order; orders are distinct.
    """
    w = WeightTuple(weights)
    _require_well_formed(w, "singular_strata")
    orders: set[int] = set()
    for a in w:
        orders |= {a, *(gcd(a, m) for m in orders)}
    orders.discard(1)
    strata = []
    for m in sorted(orders):
        indices = tuple(j for j, a in enumerate(w) if a % m == 0)
        residues = tuple(a % m for a in w if a % m != 0)
        maximal = not any(m % o == 0 for o in orders if o != m)
        strata.append(SingularStratum(indices, m, CyclicQuotient(m, residues), maximal))
    return strata


def isolated_rigid_points(weights) -> list[SingularStratum]:
    """Isolated cyclic quotient points: rigidity obstructions in dim >= 3.

    In ambient dimension >= 3 an isolated cyclic quotient point is rigid
    (Schlessinger, *Rigidity of quotient singularities*, 1971), so the whole
    space is not smoothable.  On a well-formed P(a) these points are exactly
    the weights a_i > 1 coprime to every other weight, read off by one gcd
    each, in the order and form singular_strata gives them (a_i = 1 is a
    smooth point):

    - if a_i is coprime to all a_j (j != i), then J(a_i) = {i} and no other
      order o (a gcd of weights) divides a_i, since o | a_i would make o a
      common divisor of a_i and some a_j; so {i} is a maximal point stratum;
    - if gcd(a_i, a_j) = g > 1 for some j != i, then g is an order dividing
      a_i, and g = a_i would put j in J(a_i); so either the stratum on a_i
      has dimension >= 1 or g is another order dividing a_i, and the point
      is not isolated.

    The dimension hypothesis is mandatory, so lower-dimensional input is an
    error, as is input that is not well-formed.
    """
    w = WeightTuple(weights)
    if w.dim < 3:
        raise ValueError("rigidity of quotient points needs ambient dimension >= 3")
    _require_well_formed(w, "isolated_rigid_points")
    product = w.product
    return [SingularStratum((i,), a, CyclicQuotient(a, w[:i] + w[i + 1:]), True)
            for i, a in enumerate(w) if a > 1 and gcd(a, product // a) == 1]


_FAMILY_VERDICTS = {
    Classification.P2_TYPE: "smoothable (ℙ²-type family)",
    Classification.SUM_TYPE: "smoothable (sum-type family)",
    Classification.BOTH: "smoothable (ℙ²-type and sum-type families)",
}


class SmoothabilityReport(namedtuple("SmoothabilityReport", "weights classification rigid_points")):
    """One well-formed solution with its analysis, computed once.

    classification is None outside dimension 3, where the two mutation
    families do not exist; rigid_points is empty below dimension 3, where
    isolated points do not obstruct smoothing.  Membership in a mutation
    family means smoothable, a rigid point means not smoothable, otherwise
    the verdict is unknown (this tool encodes no further obstructions).
    Family membership and rigidity are mutually exclusive on sound inputs;
    the conflict is checked on construction rather than assumed.
    """

    __slots__ = ()

    def __new__(cls, weights: WeightTuple, classification: Classification | None,
                rigid_points: tuple[SingularStratum, ...]):
        if classification in _FAMILY_VERDICTS and rigid_points:
            raise RuntimeError(
                f"{tuple(weights)} classifies as {classification} yet has rigid "
                f"points {[s.transverse.notation() for s in rigid_points]}; mutation "
                "families are smoothable, so one of the two computations is wrong"
            )
        return tuple.__new__(cls, (weights, classification, rigid_points))

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def verdict_text(self) -> str:
        if self.classification in _FAMILY_VERDICTS:
            return _FAMILY_VERDICTS[self.classification]
        return "not smoothable (rigid point)" if self.rigid_points else "unknown"


def smoothability_report(weights) -> SmoothabilityReport:
    """Validate a solution tuple and analyse it: family and rigid points."""
    w = WeightTuple(weights)
    _require_well_formed(w, "smoothability_report")
    if not satisfies_degeneration_equation(w):
        raise ValueError(f"{tuple(w)} is not a degeneration solution")
    return SmoothabilityReport(
        w,
        classify_solution(w) if w.dim == 3 else None,
        tuple(isolated_rigid_points(w)) if w.dim >= 3 else (),
    )
