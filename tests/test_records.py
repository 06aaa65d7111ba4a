"""Value semantics of the record classes, pinned.

The nine frozen records compare and hash by the tuple of their fields, print
as ``Name(field=value, ...)``, refuse assignment and deletion, and survive
``copy`` and ``pickle``; derived fields (a measure's integer form, a poset's
masks) take no part in ``==``, hashing or ``repr``.  ``CrystalGraph`` and
``TransitionMatrix`` compare by identity.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from redwords import (
    CKGraph,
    CrystalGraph,
    DecreasingFactorization,
    EGPair,
    NaturalPoset,
    ProbabilityMeasure,
    SymFuncExpansion,
    SymmetricGroup,
    Tableau,
    build_chain,
)
from redwords.markov import SpectrumLine
from redwords.reports import CheckReport


def _records():
    """(class, field names, fields, derived field names, repr) of each
    frozen record; ``cls(*fields)`` builds it."""
    half = ((1, F(1, 2)), (2, F(1, 2)))
    return [
        (DecreasingFactorization, ("factors", "target"), (((1,), (2,)), (2, 3, 1)), (),
         "DecreasingFactorization(factors=((1,), (2,)), target=(2, 3, 1))"),
        (Tableau, ("rows",), (((1, 2), (3,)),), (), "Tableau(rows=((1, 2), (3,)))"),
        (EGPair, ("p", "q"), (Tableau(((1,),)), Tableau(((2,),))), (),
         "EGPair(p=Tableau(rows=((1,),)), q=Tableau(rows=((2,),)))"),
        (CKGraph, ("vertices", "edges"), (((1, 2, 1), (2, 1, 2)), (((1, 2, 1), (2, 1, 2), "braid"),)), (),
         "CKGraph(vertices=((1, 2, 1), (2, 1, 2)), edges=(((1, 2, 1), (2, 1, 2), 'braid'),))"),
        (SymFuncExpansion, ("basis", "terms"), ("schur", (((2, 1), 1), ((3,), -2))), (),
         "SymFuncExpansion(basis='schur', terms=(((2, 1), 1), ((3,), -2)))"),
        (ProbabilityMeasure, ("weights",), (half,), ("denominator", "numerators"),
         "ProbabilityMeasure(weights=((1, Fraction(1, 2)), (2, Fraction(1, 2))))"),
        (SpectrumLine, ("subset", "eigenvalue", "multiplicity"), ((1,), F(1, 2), 3), (),
         "SpectrumLine(subset=(1,), eigenvalue=Fraction(1, 2), multiplicity=3)"),
        (NaturalPoset, ("n", "relations"), (3, frozenset({(1, 2)})), ("below",),
         "NaturalPoset(n=3, relations=frozenset({(1, 2)}))"),
        (CheckReport, ("name", "passed", "detail"), ("S3-walk", True, "2 states"), (),
         "CheckReport(name='S3-walk', passed=True, detail='2 states')"),
    ]


RECORDS = _records()


@pytest.mark.parametrize("cls, names, fields, derived, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_a_frozen_record_is_the_value_of_its_fields(cls, names, fields, derived, text):
    record, twin = cls(*fields), cls(*fields)
    assert repr(record) == text
    assert record == twin and not record != twin and record is not twin
    assert hash(record) == hash(twin) == hash(fields)
    assert len({record, twin}) == 1
    # never equal to the plain tuple of its fields, from either side
    assert record != fields and fields != record
    if len(fields) == 1:
        assert record != fields[0]
    assert record.__eq__(fields) is NotImplemented
    for name in (*names, *derived):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in names] == list(fields)
    for other in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert other == record and hash(other) == hash(record) and repr(other) == text
        assert [getattr(other, name) for name in derived] == [getattr(record, name) for name in derived]


@pytest.mark.parametrize("cls, names, fields, derived, text", [r for r in RECORDS if r[3]],
                         ids=[r[0].__name__ for r in RECORDS if r[3]])
def test_derived_fields_take_no_part_in_equality(cls, names, fields, derived, text):
    record, twin = cls(*fields), cls(*fields)
    for name in derived:
        object.__setattr__(twin, name, "changed")
    assert record == twin and hash(record) == hash(twin) and repr(twin) == text


def test_a_check_report_defaults_to_no_detail():
    assert CheckReport("x", False) == CheckReport("x", False, "")
    assert repr(CheckReport("x", False)) == "CheckReport(name='x', passed=False, detail='')"


def test_records_of_different_classes_differ_on_equal_fields():
    assert SpectrumLine((1,), F(1), 1) != CheckReport((1,), F(1), 1)


def _graph():
    return CrystalGraph(("a", "b"), (1,), [[1, -1]], len)


def _matrix():
    s3 = SymmetricGroup(3)
    return build_chain(s3, ProbabilityMeasure.uniform(s3.index_set))


@pytest.mark.parametrize("build", [_graph, _matrix], ids=["CrystalGraph", "TransitionMatrix"])
def test_graphs_and_matrices_compare_by_identity(build):
    one, two = build(), build()
    assert one == one and one != two and len({one, two}) == 2
    assert hash(one) == object.__hash__(one)


def test_graph_and_matrix_reprs():
    graph = _graph()
    assert repr(graph) == f"CrystalGraph(vertices=('a', 'b'), index_set=(1,), f_rows=[[1, -1]], weight={len!r})"
    matrix = _matrix()
    assert repr(matrix) == f"TransitionMatrix(states=((1, 2, 1), (2, 1, 2)), measure={matrix.measure!r})"
