"""The package's record classes are named tuples with checked constructors.

Each record class subclasses a collections.namedtuple and declares
__slots__ = (): its fields are read-only, it takes no new attributes, equal
values hash equal, and its repr names every field.  It also equals the plain
tuple of its fields, which frozen dataclasses did not.  Every constructor
check keeps its error type and its exact message, whichever way in builds
the record: the constructor, _make, _replace, copy.replace, copy.copy or
pickle.  Importing the CLI pulls in none of __future__, dataclasses,
inspect and fractions (nor decimal and numbers, which fractions loads).
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from wpsdeg import (
    Classification,
    CyclicQuotient,
    Family,
    MarkovTriple,
    MutationEdge,
    MutationGraph,
    SingularStratum,
    SmoothabilityReport,
    SolutionRecord,
    SumQuadruple,
    WeightTuple,
    generate_tree,
    record_for_solution,
    smoothability_report,
)

SRC = Path(__file__).resolve().parents[1] / "src"

GERM = "CyclicQuotient(order=27, weights=(1, 4, 16))"
RECORDS = [
    (MarkovTriple, lambda: MarkovTriple(1, 1, 1), "MarkovTriple(p=1, q=1, r=1)", (1, 1, 1)),
    (SumQuadruple, lambda: SumQuadruple(1, 1, 2, 4), "SumQuadruple(a=1, b=1, c=2, d=4)",
     (1, 1, 2, 4)),
    (MutationEdge, lambda: generate_tree("markov", 2).edges[0],
     "MutationEdge(src=(1, 1, 1), dst=(1, 1, 2), fixed=(1, 1))",
     ((1, 1, 1), (1, 1, 2), (1, 1))),
    (MutationGraph, lambda: generate_tree("markov", 1),
     f"MutationGraph(family={Family.MARKOV!r}, nodes=((1, 1, 1),), edges=())",
     (Family.MARKOV, ((1, 1, 1),), ())),
    (CyclicQuotient, lambda: CyclicQuotient(27, [28, 16, 4]), GERM, (27, (1, 4, 16))),
    (SingularStratum, lambda: SingularStratum((3,), 27, CyclicQuotient(27, (1, 4, 16)), True),
     f"SingularStratum(indices=(3,), order=27, transverse={GERM}, maximal=True)",
     ((3,), 27, (27, (1, 4, 16)), True)),
    (SmoothabilityReport, lambda: smoothability_report((1, 1, 1, 1)),
     f"SmoothabilityReport(weights=WeightTuple((1, 1, 1, 1)), "
     f"classification={Classification.P2_TYPE!r}, rigid_points=())",
     ((1, 1, 1, 1), Classification.P2_TYPE, ())),
    (SolutionRecord, lambda: record_for_solution((1, 4, 16, 27)),
     "SolutionRecord(weights=(1, 4, 16, 27), sum=48, product=1728, volume_num=-64, "
     "volume_den=1, classification='Sporadic', rigid_points=('1/27(1,4,16)',), "
     "verdict_text='not smoothable (rigid point)', moduli_dim=None)",
     ((1, 4, 16, 27), 48, 1728, -64, 1, "Sporadic", ("1/27(1,4,16)",),
      "not smoothable (rigid point)", None)),
]


@pytest.mark.parametrize("cls,make,text,plain", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, make, text, plain):
    record = make()
    assert type(record) is cls
    field = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert make() == record and hash(make()) == hash(record)
    assert repr(record) == text
    # The accepted change from frozen dataclasses: a record is its field tuple.
    assert record == plain and hash(record) == hash(plain)


def _family_with_rigid_point():
    rigid = smoothability_report((1, 4, 16, 27)).rigid_points
    return SmoothabilityReport(WeightTuple((1, 4, 10, 25)), Classification.P2_TYPE, rigid)


@pytest.mark.parametrize("make,error,message", [
    (lambda: MarkovTriple(0, 1, 1), ValueError, "entries must be positive: (0, 1, 1)"),
    (lambda: MarkovTriple(1, 1, 3), ValueError, "(1, 1, 3) fails 3pqr = p^2 + q^2 + r^2"),
    (lambda: SumQuadruple(0, 1, 1, 2), ValueError, "entries must be positive: (0, 1, 1, 2)"),
    (lambda: SumQuadruple(1, 1, 2, 5), ValueError,
     "(1, 1, 2, 5): last entry must be the sum of the others"),
    (lambda: SumQuadruple(1, 1, 4, 6), ValueError, "(1, 1, 4, 6) fails 8abc = d^2"),
    (lambda: CyclicQuotient(1, (1,)), ValueError, "group order must be at least 2"),
    (lambda: CyclicQuotient(5, ()), ValueError, "need at least one weight"),
    (lambda: CyclicQuotient(4, [1, 8]), ValueError, "zero residue mod 4 in (1, 8)"),
    pytest.param(lambda: CyclicQuotient(4, iter((1, 8))), ValueError,
                 "zero residue mod 4 in (1, 8)", id="CyclicQuotient-iterator"),
    (_family_with_rigid_point, RuntimeError,
     "(1, 4, 10, 25) classifies as P2Type yet has rigid points ['1/27(1,4,16)']; mutation "
     "families are smoothable, so one of the two computations is wrong"),
    # _replace builds through _make, so both run the constructor's checks.
    pytest.param(lambda: MarkovTriple._make((1, 1, 3)), ValueError,
                 "(1, 1, 3) fails 3pqr = p^2 + q^2 + r^2", id="MarkovTriple._make"),
    pytest.param(lambda: MarkovTriple(1, 1, 1)._replace(r=3), ValueError,
                 "(1, 1, 3) fails 3pqr = p^2 + q^2 + r^2", id="MarkovTriple._replace"),
    pytest.param(lambda: SumQuadruple(1, 1, 2, 4)._replace(d=5), ValueError,
                 "(1, 1, 2, 5): last entry must be the sum of the others",
                 id="SumQuadruple._replace"),
    pytest.param(lambda: CyclicQuotient(5, (1, 2))._replace(order=2), ValueError,
                 "zero residue mod 2 in (1, 2)", id="CyclicQuotient._replace"),
    pytest.param(lambda: smoothability_report((1, 4, 16, 27))._replace(
                     classification=Classification.P2_TYPE), RuntimeError,
                 "(1, 4, 16, 27) classifies as P2Type yet has rigid points ['1/27(1,4,16)']; "
                 "mutation families are smoothable, so one of the two computations is wrong",
                 id="SmoothabilityReport._replace"),
])
def test_constructor_check_keeps_its_message(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
def test_copy_replace_runs_the_constructor_check():
    with pytest.raises(ValueError) as info:
        copy.replace(MarkovTriple(1, 1, 1), r=3)
    assert str(info.value) == "(1, 1, 3) fails 3pqr = p^2 + q^2 + r^2"


CHECKED = [
    lambda: MarkovTriple(1, 1, 2),
    lambda: SumQuadruple(1, 1, 2, 4),
    lambda: CyclicQuotient(27, [28, 16, 4]),
    lambda: smoothability_report((1, 4, 16, 27)),
]


@pytest.mark.parametrize("make", CHECKED, ids=["MarkovTriple", "SumQuadruple", "CyclicQuotient",
                                               "SmoothabilityReport"])
def test_every_way_in_rebuilds_a_valid_record(make):
    record = make()
    for rebuilt in (type(record)._make(record), record._replace(), copy.copy(record),
                    pickle.loads(pickle.dumps(record))):
        assert type(rebuilt) is type(record) and rebuilt == record


@pytest.mark.parametrize("cls,fields,message", [
    (MarkovTriple, (1, 1, 3), "(1, 1, 3) fails 3pqr = p^2 + q^2 + r^2"),
    (SumQuadruple, (1, 1, 2, 5), "(1, 1, 2, 5): last entry must be the sum of the others"),
    (CyclicQuotient, (4, (1, 8)), "zero residue mod 4 in (1, 8)"),
], ids=["MarkovTriple", "SumQuadruple", "CyclicQuotient"])
def test_copy_and_pickle_go_through_the_constructor(cls, fields, message):
    # tuple.__new__ skips the checks; copying or unpickling the result does not.
    invalid = tuple.__new__(cls, fields)
    for rebuild in (copy.copy, lambda record: pickle.loads(pickle.dumps(record))):
        with pytest.raises(ValueError) as info:
            rebuild(invalid)
        assert str(info.value) == message


# The stdlib modules the package imports at import time.  Importing them first
# makes the check independent of what they pull in on a given Python version.
STDLIB = ("argparse", "bisect", "collections", "csv", "enum", "functools", "io",
          "itertools", "json", "math", "operator", "sys")


def test_cli_import_adds_no_future_dataclasses_inspect_or_fractions():
    script = (f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
              f"for name in {STDLIB!r}: __import__(name)\n"
              "before = set(sys.modules)\n"
              "import wpsdeg.cli\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n")
    added = subprocess.run([sys.executable, "-S", "-c", script], check=True,
                           capture_output=True, text=True).stdout.split()
    assert "wpsdeg.cli" in added
    forbidden = {"__future__", "dataclasses", "inspect", "fractions", "decimal", "numbers"}
    assert not forbidden & set(added), added
