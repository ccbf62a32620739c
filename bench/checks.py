"""Independent integer arithmetic and output validators for the benchmark.

Nothing here imports wpsdeg: every check that a CLI output is right is made
with the small, plain implementations below, so a defect in the program
cannot hide behind the same defect in its checker.

Each validator takes an op's expectation (built by workloads.py), the exit
code and the captured stdout, and returns None when the output is right or a
one-line description of the first problem found.
"""

from __future__ import annotations

import csv
import io
import json
from collections import deque
from itertools import combinations
from math import gcd, prod

VERDICTS = ("Terminal", "StrictlyCanonical", "StrictlyKlt")


def solves(weights) -> bool:
    """(n+1)^n * prod(a) == (sum a)^n for the n+1 weights given."""
    n = len(weights) - 1
    return n >= 1 and (n + 1) ** n * prod(weights) == sum(weights) ** n


def well_formed(weights) -> bool:
    """Every choice of all but one weight has gcd 1."""
    return all(gcd(*sub) == 1 for sub in combinations(weights, len(weights) - 1))


def strata(weights) -> set[tuple[tuple[int, ...], int]]:
    """(saturated index set, stabilizer order) of each singular stratum."""
    w = sorted(weights)
    found = set()
    for size in range(1, len(w)):
        for subset in combinations(range(len(w)), size):
            m = gcd(*(w[j] for j in subset))
            if m > 1:
                found.add((tuple(j for j in range(len(w)) if w[j] % m == 0), m))
    return found


def count_monomials(degree: int, weights) -> int:
    """Exponent vectors e >= 0 with sum e_i * a_i == degree."""
    if degree < 0:
        return 0
    ways = [0] * (degree + 1)
    ways[0] = 1
    for a in weights:
        for j in range(a, degree + 1):
            ways[j] += ways[j - a]
    return ways[degree]


def moduli_dim(weights, degree: int, q: int) -> int | None:
    """(h^0(D) - 1) - dim Aut for D of weighted degree degree*sum/q; None
    when that degree is not an integer.  weights must be well-formed."""
    if degree * sum(weights) % q:
        return None
    aut = sum(count_monomials(a, weights) for a in weights) - 1
    return count_monomials(degree * sum(weights) // q, weights) - 1 - aut


def markov_nodes(max_weight: int) -> list[tuple[int, int, int]]:
    """Sorted triples 3pqr = p^2+q^2+r^2 reachable from (1,1,1), max <= bound."""
    return _closure((1, 1, 1), max_weight, _markov_moves)


def sum_nodes(max_weight: int) -> list[tuple[int, int, int, int]]:
    """Sorted (a,b,c,a+b+c) with 8abc = d^2 reachable from (1,1,2,4)."""
    return _closure((1, 1, 2, 4), max_weight, _sum_moves)


def _markov_moves(node):
    for k in range(3):
        x, y = (node[i] for i in range(3) if i != k)
        yield (x, y, 3 * x * y - node[k])


def _sum_moves(node):
    first = node[:3]
    for k in range(3):
        a, b = (first[i] for i in range(3) if i != k)
        c = 8 * a * b - 2 * a - 2 * b - first[k]
        if c > 0:
            yield (a, b, c, a + b + c)


def _closure(root, max_weight, moves):
    if max(root) > max_weight:
        return []
    seen = {root}
    queue = deque([root])
    while queue:
        for nxt in moves(queue.popleft()):
            node = tuple(sorted(nxt))
            if node[-1] <= max_weight and node not in seen:
                seen.add(node)
                queue.append(node)
    return sorted(seen)


def is_markov(node) -> bool:
    p, q, r = node
    return min(node) > 0 and 3 * p * q * r == p * p + q * q + r * r


def is_sum_quad(node) -> bool:
    a, b, c, d = node
    return min(node) > 0 and d == a + b + c and 8 * a * b * c == d * d


def _ints(strings) -> tuple[int, ...]:
    return tuple(int(s) for s in strings)


def _weights_text(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in text.strip("()").split(","))


def _check_solution_list(tuples, expect) -> str | None:
    if len(tuples) != expect["count"]:
        return f"{len(tuples)} solutions, expected {expect['count']}"
    if tuples != sorted(set(tuples)):
        return "solutions not sorted and distinct"
    for w in tuples:
        if len(w) != expect["dim"] + 1 or list(w) != sorted(w):
            return f"{w} is not an ascending dimension-{expect['dim']} tuple"
        if max(w) > expect["bound"]:
            return f"{w} exceeds the bound {expect['bound']}"
        if not solves(w):
            return f"{w} does not solve the equation"
        if not well_formed(w):
            return f"{w} is not well-formed"
    return None


def check_enumerate(expect, stdout: str) -> str | None:
    if expect["format"] == "json":
        obj = json.loads(stdout)
        tuples = [_ints(s["weights"]) for s in obj["solutions"]]
        if int(obj["count"]) != len(tuples):
            return "count field disagrees with the solution list"
        for s, w in zip(obj["solutions"], tuples):
            if int(s["sum"]) != sum(w) or int(s["product"]) != prod(w):
                return f"{w}: wrong sum or product"
        return _check_solution_list(tuples, expect)

    # Markdown report: one table row per solution, moduli_dim last; quoted
    # literature tables follow under a second-level heading.
    report = stdout.split("\n## ")[0]
    rows = [line[2:-2].split(" | ") for line in report.splitlines() if line.startswith("| (")]
    tuples = [_weights_text(row[0]) for row in rows]
    n = expect["count"]
    if f"{n} solution{'s' if n != 1 else ''}." not in report.splitlines():
        return "solution count line missing or wrong"
    problem = _check_solution_list(tuples, expect)
    if problem:
        return problem
    for i in expect["moduli_sample"]:
        want = moduli_dim(tuples[i], expect["degree"], expect["dim"] + 1)
        if rows[i][-1] != str(want):
            return f"{tuples[i]}: moduli_dim {rows[i][-1]}, expected {want}"
    return None


def check_tree(expect, stdout: str) -> str | None:
    obj = json.loads(stdout)
    nodes = [_ints(n) for n in obj["nodes"]]
    test = is_markov if expect["family"] == "markov" else is_sum_quad
    for node in nodes:
        if not test(node):
            return f"{node} fails the {expect['family']} equation"
    if sorted(nodes) != [tuple(n) for n in expect["nodes"]]:
        return f"{len(nodes)} nodes, expected {len(expect['nodes'])}"
    if int(obj["node_count"]) != len(nodes):
        return "node_count field disagrees with the node list"
    return None


def check_classify(expect, stdout: str) -> str | None:
    obj = json.loads(stdout)
    record = obj["record"]
    w = _ints(record["weights"])
    if obj["solution"] is not True or w != tuple(sorted(expect["weights"])):
        return f"{expect['weights']} not reported as the solution {w}"
    if not (solves(w) and well_formed(w)):
        return f"{w} is not a well-formed solution"
    allowed = {"markov": ("P2Type", "Both"), "sum": ("SumType", "Both")}[expect["family"]]
    if record["classification"] not in allowed:
        return f"{w}: classification {record['classification']}"
    want = None if expect["degree"] is None else moduli_dim(w, expect["degree"], len(w))
    got = record.get("moduli_dim")
    if (None if got is None else int(got)) != want:
        return f"{w}: moduli_dim {got}, expected {want}"
    return None


def check_lift(expect, stdout: str) -> str | None:
    rows = list(csv.reader(io.StringIO(stdout)))
    if rows[0] != ["weights", "lifted"] or len(rows) != 2:
        return "unexpected csv shape"
    w, lifted = _weights_text(rows[1][0]), _weights_text(rows[1][1])
    if w != tuple(sorted(expect["weights"])):
        return f"echoed weights {w}"
    rest = list(lifted)
    for a in w:
        if a not in rest:
            return f"{lifted} does not contain {w}"
        rest.remove(a)
    if len(rest) != 1 or not solves(lifted):
        return f"{lifted} is not a solution one dimension up"
    return None


def check_singular(expect, stdout: str) -> str | None:
    w = tuple(sorted(expect["weights"]))
    if expect["format"] == "json":
        obj = json.loads(stdout)
        if _ints(obj["weights"]) != w:
            return f"echoed weights {obj['weights']}"
        found = [(_ints(s["indices"]), int(s["order"]), s["verdict"]) for s in obj["strata"]]
    else:
        lines = stdout.splitlines()
        if not lines[1:]:
            found = []
            if lines != ["note: smooth"]:
                return "smooth space not reported as smooth"
        else:
            found = [(_ints(cols[0].split(",")), int(cols[2]), cols[4])
                     for cols in (line.split() for line in lines[1:])]
    for indices, order, verdict in found:
        if any(w[j] % order for j in indices):
            return f"{w}: order {order} does not divide the weights at {indices}"
        if verdict not in VERDICTS:
            return f"{w}: verdict {verdict}"
    if {(indices, order) for indices, order, _ in found} != strata(w):
        return f"{w}: strata differ from the reference"
    return None


def check_moduli(expect, stdout: str) -> str | None:
    obj = json.loads(stdout)
    w = tuple(sorted(expect["weights"]))
    want = moduli_dim(w, expect["degree"], len(w))
    if obj.get("moduli_dim") != str(want):
        return f"{w} degree {expect['degree']}: moduli_dim {obj.get('moduli_dim')}, expected {want}"
    return None


CHECKS = {
    "enumerate": check_enumerate,
    "tree": check_tree,
    "classify": check_classify,
    "lift": check_lift,
    "singular": check_singular,
    "moduli": check_moduli,
}


def check(expect, code, stdout: str) -> str | None:
    """None if the op exited 0 and its output is right, else the problem."""
    if code != 0:
        return f"exit code {code}"
    try:
        return CHECKS[expect["kind"]](expect, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {exc!r}"
