"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every check runs at its stated tolerance (exact unless noted).  Criterion 1
checks the enumeration at dimension 3, max weight 125 against what
`enumerate_solutions` promises, all well-formed solutions: the classical
ten-entry table plus exactly three surplus solutions, (1, 18, 96, 125),
(1, 27, 27, 125) and (5, 6, 9, 100).  The test checks those three on its own,
with plain integer arithmetic and no call into wpsdeg: the degeneration
equation, coprimality of every three weights, and the bound.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

from conftest import FOUND_AT_125, TABLE_TEN, brute_denumerant
from wpsdeg import (
    Classification,
    MarkovTriple,
    SumQuadruple,
    WeightTuple,
    anticanonical_volume,
    aut_dimension,
    brute_force_oracle,
    denumerant,
    enumerate_solutions,
    isolated_rigid_points,
    lift,
    markov_mutate,
    moduli_component_dimension,
    satisfies_degeneration_equation,
    singular_strata,
    smoothability_report,
    sum_mutate,
)


def _criterion(number: int, description: str, ok: bool, detail: str = ""):
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {description}"
    print(line)
    assert ok, f"{line}\n{detail}"


def _is_dim3_solution(w: tuple, bound: int) -> bool:
    """Stdlib check, independent of wpsdeg, that w is a well-formed dim-3 solution.

    64 * prod(w) == sum(w)**3, every three weights coprime, max weight <= bound.
    """
    return (64 * prod(w) == sum(w) ** 3
            and all(gcd(*three) == 1 for three in combinations(w, 3))
            and max(w) <= bound)


def test_criterion_01_table_reproduction():
    start = time.perf_counter()
    found = [tuple(s) for s in enumerate_solutions(3, 125)]
    elapsed = time.perf_counter() - start
    extras = sorted(set(found) - set(TABLE_TEN))
    missing = sorted(set(TABLE_TEN) - set(found))
    not_solutions = [w for w in extras if not _is_dim3_solution(w, 125)]
    ok = (not missing and found == FOUND_AT_125 and not not_solutions
          and elapsed < 1.0)
    _criterion(
        1, "dim-3 bound-125 enumeration returns the ten table tuples plus "
           f"exactly the surplus {extras}, each checked by integer arithmetic, in < 1 s",
        ok,
        f"elapsed {elapsed:.3f}s; missing {missing}; "
        f"expected surplus {sorted(set(FOUND_AT_125) - set(TABLE_TEN))}; "
        f"surplus failing the arithmetic check {not_solutions}",
    )


def test_criterion_02_classification_split():
    by_weights = {tuple(s): smoothability_report(s).classification
                  for s in enumerate_solutions(3, 125)
                  if tuple(s) in set(TABLE_TEN)}
    p2 = {w for w, c in by_weights.items()
          if c in (Classification.P2_TYPE, Classification.BOTH)}
    sums = {w for w, c in by_weights.items()
            if c in (Classification.SUM_TYPE, Classification.BOTH)}
    both = {w for w, c in by_weights.items() if c is Classification.BOTH}
    expected_p2 = {(1, 1, 1, 1), (1, 1, 2, 4), (1, 4, 10, 25)}
    expected_sum = {(1, 1, 2, 4), (1, 2, 9, 12), (1, 9, 50, 60)}
    ok = (p2 == expected_p2 and sums == expected_sum and both == {(1, 1, 2, 4)})
    _criterion(2, "family split over the ten table tuples is exact", ok,
               f"p2={sorted(p2)} sum={sorted(sums)} both={sorted(both)}")


def test_criterion_03_rigidity_flags():
    rigid = {w for w in TABLE_TEN if isolated_rigid_points(WeightTuple(w))}
    ok = rigid == {(1, 4, 16, 27), (1, 7, 27, 49)}
    _criterion(3, "rigid points among the ten exactly at (1,4,16,27) and (1,7,27,49)",
               ok, f"rigid set: {sorted(rigid)}")


def test_criterion_04_singularity_picture():
    strata = singular_strata(WeightTuple((1, 4, 10, 25)))
    picture = {(s.transverse.notation(), s.dimension) for s in strata}
    expected = {
        ("1/25(1,4,10)", 0),
        ("1/10(1,4,5)", 0),
        ("1/4(1,1,2)", 0),
        ("1/2(1,1)", 1),
        ("1/5(1,4)", 1),
    }
    klt = {s.transverse.notation() for s in strata
           if str(s.transverse.verdict) == "StrictlyKlt"}
    ok = len(strata) == 5 and picture == expected and klt == {"1/25(1,4,10)"}
    _criterion(4, "the five strata of (1,4,10,25) with only 1/25(1,4,10) strictly klt",
               ok, f"got {sorted(picture)}, klt {sorted(klt)}")


def test_criterion_05_dimension_counts():
    moduli = [
        moduli_component_dimension(WeightTuple((1, 1, 1, 1)), 5, 4),
        moduli_component_dimension(WeightTuple((1, 1, 2, 4)), 5, 4),
        moduli_component_dimension(WeightTuple((1, 2, 9, 12)), 5, 4),
    ]
    auts = [aut_dimension(WeightTuple((1, 1, 1, 1))),
            aut_dimension(WeightTuple((1, 1, 2, 4)))]
    ok = moduli == [40, 38, 37] and auts == [15, 17]
    _criterion(5, "moduli dimensions 40/38/37 at d=5, q=4 and aut dimensions 15/17",
               ok, f"moduli={moduli} aut={auts}")


def test_criterion_06_volume_conservation():
    failures = []
    for n in range(2, 6):
        expected = Fraction((-1) ** n * (n + 1) ** n)
        for sol in enumerate_solutions(n, 200):
            if anticanonical_volume(sol) != expected:
                failures.append((n, tuple(sol)))
    ok = not failures
    _criterion(6, "anticanonical volume is (-1)^n (n+1)^n on all solutions, "
                  "dims 2-5, bound 200", ok, f"violations: {failures}")


def test_criterion_07_oracle_equivalence():
    mismatches = []
    for n, bounds in ((2, (37, 141, 300)), (3, (17, 60, 125))):
        for bound in bounds:
            fast = [tuple(s) for s in enumerate_solutions(n, bound)]
            slow = [tuple(w) for w in brute_force_oracle(n, bound)]
            if fast != slow:
                mismatches.append((n, bound, fast, slow))
    ok = not mismatches
    _criterion(7, "pruned search equals the unpruned oracle for n=2, B<=300 "
                  "and n=3, B<=125", ok, f"mismatches: {mismatches}")


def test_criterion_08_mutation_soundness():
    rng = random.Random(20250819)
    applications = 0
    failures = []

    node = MarkovTriple(1, 1, 1)
    for step in range(5000):
        if step % 6 == 0:
            node = MarkovTriple(1, 1, 1)
        slot = rng.randrange(3)
        mutated = markov_mutate(node, slot)  # constructor checks the relation
        if markov_mutate(mutated, slot) != node:
            failures.append(("markov involution", tuple(node), slot))
        applications += 1
        node = mutated

    quad = SumQuadruple(1, 1, 2, 4)
    for step in range(5000):
        if step % 6 == 0:
            quad = SumQuadruple(1, 1, 2, 4)
        i, j = rng.sample(range(3), 2)
        mutated = sum_mutate(quad, (i, j))  # constructor checks both relations
        if sum_mutate(mutated, (i, j)) != quad:
            failures.append(("sum involution", tuple(quad), (i, j)))
        entries = tuple(quad)
        a, b = entries[i], entries[j]
        c = entries[({0, 1, 2} - {i, j}).pop()]
        if (a + b) * quad.d != c * mutated.d:
            failures.append(("edge identity", tuple(quad), (i, j)))
        applications += 1
        quad = mutated

    ok = applications == 10000 and not failures
    _criterion(8, "10,000 random mutations preserve the relations, the involution, "
                  "and the (a+b)*d = c*d' edge identity", ok,
               f"applications={applications} failures={failures[:5]}")


def test_criterion_09_lifting():
    failures = []
    solutions = enumerate_solutions(2, 300)
    for sol in solutions:
        if sol.total % 3 != 0:
            failures.append(("sum not divisible by 3", tuple(sol)))
            continue
        lifted = lift(sol)
        if lifted is None or not satisfies_degeneration_equation(lifted):
            failures.append(("lift failed", tuple(sol)))
    ok = bool(solutions) and not failures
    _criterion(9, "every dim-2 solution with max weight <= 300 lifts to a dim-3 "
                  "solution", ok,
               f"{len(solutions)} solutions; failures: {failures}")


def test_criterion_10_denumerant_oracle():
    rng = random.Random(1729)
    failures = []
    for _ in range(1000):
        entries = tuple(rng.randint(1, 20) for _ in range(rng.randint(2, 5)))
        degree = rng.randint(0, 60)
        w = WeightTuple(entries)
        got = denumerant(degree, w)
        want = brute_denumerant(degree, tuple(w))
        if got != want:
            failures.append((degree, entries, got, want))
    ok = not failures
    _criterion(10, "denumerant matches brute-force exponent enumeration on 1,000 "
                   "random instances", ok, f"failures: {failures[:5]}")
