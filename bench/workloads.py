"""Benchmark workloads: CLI argument lists made from a seed, with expectations.

A workload is a list of ops.  Each op is {"argv": [...], "expect": {...}}:
the argv goes to wpsdeg.cli.main unchanged and the expectation stays with
the benchmark, which checks the op's output against it (checks.py).  The
same seed always gives the same list.
"""

from __future__ import annotations

import random
from math import gcd

from checks import markov_nodes, sum_nodes, well_formed

TREE_BOUND = 10 ** 12
DEGREE_SUM_LIMIT = 2 * 10 ** 4
REID_TAI_MAX_ORDER = 2 * 10 ** 4
BIG_SYSTEM_DEGREE = 10 ** 6
CLASSIFY_DEGREE = 4
NODE_SAMPLE = 24
SINGULAR_OPS = 192

# The dimension-3 solutions with max weight <= 125, ten from the classical
# table plus the three the search also finds.
BOUND_125 = [
    (1, 1, 1, 1), (1, 1, 2, 4), (1, 2, 9, 12), (1, 4, 10, 25), (1, 4, 16, 27),
    (1, 6, 9, 32), (1, 7, 27, 49), (1, 9, 50, 60), (1, 18, 96, 125),
    (1, 22, 32, 121), (1, 27, 27, 125), (3, 4, 63, 98), (5, 6, 9, 100),
]


def _csv(weights) -> str:
    return ",".join(str(a) for a in weights)


def _op(argv, **expect):
    return {"argv": [str(a) for a in argv], "expect": expect}


def enum_d3(seed: int) -> list[dict]:
    """The raw divisor search on its own: 63 solutions and no annotations
    beyond classification and rigidity."""
    return [_op(["enumerate", "--dim", 3, "--bound", 2000, "--format", "json"],
                kind="enumerate", format="json", dim=3, bound=2000, count=63)]


def enum_d5_report(seed: int) -> list[dict]:
    """A six-slot search plus a full record (strata, rigid points, moduli
    dimension by denumerants) for each of its 304 solutions."""
    sample = sorted(random.Random(seed).sample(range(304), 5))
    return [_op(["enumerate", "--dim", 5, "--bound", 200, "--degree", 60, "--format", "md"],
                kind="enumerate", format="md", dim=5, bound=200, count=304,
                degree=60, moduli_sample=sample)]


def _grid(count: int, lo: int, hi: int) -> list[int]:
    """The midpoints of count equal slices of [lo, hi]."""
    return [lo + (2 * i + 1) * (hi - lo) // (2 * count) for i in range(count)]


def _well_formed_tuple(rng: random.Random, fixed: list[int], size: int, top: int):
    while True:
        w = fixed + [rng.randint(1, top) for _ in range(size - len(fixed))]
        if well_formed(w):
            rng.shuffle(w)
            return w


def tuple_mix(seed: int) -> list[dict]:
    """About 300 per-tuple ops and no search: mutation trees, classify and
    lift on tree nodes, Reid-Tai verdicts on random tuples, and moduli
    dimensions including one linear system of degree about 10^6."""
    rng = random.Random(seed)
    markov, sums = markov_nodes(TREE_BOUND), sum_nodes(TREE_BOUND)
    ops = [
        _op(["tree", "--family", "markov", "--max-weight", TREE_BOUND, "--format", "json"],
            kind="tree", family="markov", nodes=markov),
        _op(["tree", "--family", "sum", "--max-weight", TREE_BOUND, "--format", "json"],
            kind="tree", family="sum", nodes=sums),
        _op(["tree", "--family", "sum", "--max-weight", 10 ** 6, "--format", "json"],
            kind="tree", family="sum", nodes=sum_nodes(10 ** 6)),
    ]

    # Markov triples enter as their dimension-3 tuple (p^2, q^2, r^2, pqr)
    # for classify and as the dimension-2 tuple (p^2, q^2, r^2) for lift.
    # Every node with a small enough sum is classified with --degree; the
    # rest of the classify ops are a sample of the larger nodes.
    nodes = [("markov", t) for t in markov] + [("sum", t) for t in sums]
    dim3 = [(f, [t[0] ** 2, t[1] ** 2, t[2] ** 2, t[0] * t[1] * t[2]] if f == "markov" else list(t))
            for f, t in nodes]
    small = [(f, w) for f, w in dim3 if sum(w) <= DEGREE_SUM_LIMIT]
    large = [(f, w) for f, w in dim3 if sum(w) > DEGREE_SUM_LIMIT]
    for family, w in small:
        ops.append(_op(["classify", _csv(w), "--degree", CLASSIFY_DEGREE, "--format", "json"],
                       kind="classify", family=family, weights=w, degree=CLASSIFY_DEGREE))
    for family, w in rng.sample(large, NODE_SAMPLE - len(small)):
        ops.append(_op(["classify", _csv(w), "--format", "json"],
                       kind="classify", family=family, weights=w, degree=None))
    for family, t in rng.sample(nodes, NODE_SAMPLE):
        w = [x * x for x in t] if family == "markov" else list(t)
        ops.append(_op(["lift", _csv(w), "--format", "csv"], kind="lift", weights=w))

    for w in BOUND_125:
        ops.append(_op(["singular", _csv(w), "--format", "table"],
                       kind="singular", format="table", weights=list(w)))
    # Reid-Tai walks every element of the largest germ, so an op's cost
    # follows its one large weight.  Taking that weight from a fixed grid for
    # each tuple size, with the other weights random, keeps the spread of op
    # costs the same from seed to seed.  These ops are about two thirds of
    # the list, so the median op is one of them.
    singular = []
    for size in (4, 5, 6):
        for big in _grid(SINGULAR_OPS // 3, 2, REID_TAI_MAX_ORDER):
            w = _well_formed_tuple(rng, [big], size, 40)
            singular.append(_op(["singular", _csv(w), "--format", "json"],
                                kind="singular", format="json", weights=w))
    rng.shuffle(singular)
    ops += singular

    moduli = []
    for i in range(39):
        w = _well_formed_tuple(rng, [], 4 + i % 3, 12)
        q = len(w)
        degree = q // gcd(q, sum(w)) * rng.randint(1, 4)
        moduli.append(_op(["moduli-dim", "--weights", _csv(w), "--degree", degree, "--format", "json"],
                          kind="moduli", weights=w, degree=degree))
    # One linear system of degree close to 10^6 (q = 4, degree = 4k gives
    # weighted degree k * sum): its denumerant table sets peak memory.
    w = _well_formed_tuple(rng, [], 4, 6)
    degree = 4 * (BIG_SYSTEM_DEGREE // sum(w))
    moduli.insert(rng.randrange(40), _op(
        ["moduli-dim", "--weights", _csv(w), "--degree", degree, "--format", "json"],
        kind="moduli", weights=w, degree=degree))
    return ops + moduli


WORKLOADS = {
    "enum-d3": enum_d3,
    "enum-d5-report": enum_d5_report,
    "tuple-mix": tuple_mix,
}


def make_ops(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](seed)
