"""Record semantics of the package's immutable value classes.

Each record compares, hashes and prints over its fields in order, refuses
assignment and deletion, and survives copy, deepcopy and pickle.  The
reprs are pinned to the strings the package has always printed.
"""

import copy
import pickle
from fractions import Fraction

import pytest

import covadjust as ca
from covadjust.cgtext import GraphDocument, Query
from covadjust.criteria import AdjustmentQuery, AdjustmentVerdict
from covadjust.errors import (
    ClassMismatchError,
    EmptyXOrYError,
    MarkNotAllowedError,
    SetsNotDisjointError,
    UnknownNodeError,
)
from covadjust.graphs import Edge, Graph, GraphClass, Mark
from covadjust.mec import EquivalenceClass
from covadjust.sem import EffectReport, LinearSEM

EDGE_AB = "Edge(a='A', b='B', mark_a=<Mark.TAIL: '-'>, mark_b=<Mark.ARROW: '>'>)"
GRAPH_AB = (
    "Graph(graph_class=<GraphClass.DAG: 'dag'>, nodes=('A', 'B'), "
    f"edges=frozenset({{{EDGE_AB}}}))"
)


def _graph():
    return ca.parse_graph("graph dag { A -> B }")


def _records():
    """(record, the same record built again, its pinned repr) per class."""
    g = _graph()
    cpdag = ca.parse_graph("graph cpdag { A -- B }")
    doc = "graph dag { A -> B } query { X = A; Y = B }"
    return [
        (Edge.directed("B", "A"), Edge("A", "B", Mark.ARROW, Mark.TAIL),
         "Edge(a='A', b='B', mark_a=<Mark.ARROW: '>'>, mark_b=<Mark.TAIL: '-'>)"),
        (g, _graph(), GRAPH_AB),
        (Query(x=("X",), z=()), Query(("X",), None, ()), "Query(x=('X',), y=None, z=())"),
        (ca.parse_document(doc), ca.parse_document(doc),
         f"GraphDocument(graph={GRAPH_AB}, query=Query(x=('A',), y=('B',), z=None))"),
        (AdjustmentQuery(g, {"A"}, {"B"}), AdjustmentQuery(_graph(), "A", ["B"], ()),
         f"AdjustmentQuery(graph={GRAPH_AB}, x=frozenset({{'A'}}), y=frozenset({{'B'}}), "
         "z=frozenset())"),
        (AdjustmentVerdict(False, "Cond2", ("X", "V", "Y")),
         AdjustmentVerdict(passed=False, failed_condition="Cond2", witness=("X", "V", "Y")),
         "AdjustmentVerdict(passed=False, failed_condition='Cond2', witness=('X', 'V', 'Y'))"),
        (ca.enumerate_dags(cpdag), ca.enumerate_dags(ca.parse_graph("graph cpdag { A -- B }")),
         "EquivalenceClass(representative=Graph(graph_class=<GraphClass.CPDAG: 'cpdag'>, "
         "nodes=('A', 'B'), edges=frozenset({Edge(a='A', b='B', mark_a=<Mark.CIRCLE: 'o'>, "
         f"mark_b=<Mark.CIRCLE: 'o'>)}})), members=({GRAPH_AB}, Graph(graph_class="
         "<GraphClass.DAG: 'dag'>, nodes=('A', 'B'), edges=frozenset({Edge(a='A', b='B', "
         "mark_a=<Mark.ARROW: '>'>, mark_b=<Mark.TAIL: '-'>)}))))"),
        (EffectReport(frozenset({"A"}), 0, 1, (2,), (Fraction(7, 3),), Fraction(1, 3)),
         EffectReport(frozenset("A"), 0, 1, (2,), (Fraction(14, 6),), Fraction(2, 6)),
         "EffectReport(z_set=frozenset({'A'}), member=0, trial=1, true_effect=(2,), "
         "adjusted_estimate=(Fraction(7, 3),), max_abs_gap=Fraction(1, 3))"),
        (LinearSEM(g, ((0, -2), (0, 0)), (1, 3)), LinearSEM(_graph(), [[0, -2], [0, 0]], [1, 3]),
         f"LinearSEM(graph={GRAPH_AB}, coeffs=((0, -2), (0, 0)), noise_var=(1, 3))"),
    ]


FIELDS = {
    "Edge": ("a", "b", "mark_a", "mark_b"),
    "Graph": ("graph_class", "nodes", "edges"),
    "Query": ("x", "y", "z"),
    "GraphDocument": ("graph", "query"),
    "AdjustmentQuery": ("graph", "x", "y", "z"),
    "AdjustmentVerdict": ("passed", "failed_condition", "witness"),
    "EquivalenceClass": ("representative", "members"),
    "EffectReport": ("z_set", "member", "trial", "true_effect", "adjusted_estimate",
                     "max_abs_gap"),
    "LinearSEM": ("graph", "coeffs", "noise_var"),
}


CASES = _records()
RECORDS = pytest.mark.parametrize(
    "record, again, expected", CASES, ids=[type(r).__name__ for r, _, _ in CASES]
)


@RECORDS
def test_repr_equality_and_hash(record, again, expected):
    assert repr(record) == expected
    assert record == again and not record != again
    assert record is not again
    values = tuple(getattr(record, name) for name in FIELDS[type(record).__name__])
    assert hash(record) == hash(again) == hash(values)
    # never equal to another type, even one holding the same values
    assert record.__eq__(values) is NotImplemented
    assert record != values
    assert record.__eq__(object()) is NotImplemented


def test_different_fields_compare_unequal():
    assert Edge.directed("A", "B") != Edge.directed("B", "A")
    assert Edge.directed("A", "B") != Edge.bidirected("A", "B")
    assert AdjustmentVerdict(True) != AdjustmentVerdict(False)
    assert Query(x=("X",)) != Query(y=("X",))
    assert len({Edge.directed("A", "B"), Edge("B", "A", Mark.ARROW, Mark.TAIL)}) == 1


@RECORDS
def test_fields_cannot_be_assigned_or_deleted(record, again, expected):
    first = FIELDS[type(record).__name__][0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{first}'"):
        setattr(record, first, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{first}'"):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == expected


@RECORDS
def test_copy_deepcopy_and_pickle_round_trip(record, again, expected):
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record)
        assert repr(twin) == expected


def test_graph_keeps_its_cached_tables():
    g = _graph()
    assert g._marks == {"A": {"B": Mark.TAIL}, "B": {"A": Mark.ARROW}}
    assert g._marks is g._marks
    assert "_marks" in vars(g)
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin._marks == g._marks
    assert Graph(graph_class=GraphClass.DAG, nodes=["A", "B"], edges=g.edges) == g


def test_marks_and_classes_hash_by_identity():
    """Members hash by identity; lookups, value lookup and pickling work."""
    for enum in (Mark, GraphClass):
        assert enum.__hash__ is object.__hash__
        members = list(enum)
        table = {m: i for i, m in enumerate(members)}
        for i, m in enumerate(members):
            assert hash(m) == object.__hash__(m)
            assert enum(m.value) is m and table[enum(m.value)] == i
            assert m in set(members) and m in frozenset(table)
            assert pickle.loads(pickle.dumps(m)) is m
            assert copy.deepcopy(m) is m
    assert Mark("-") is Mark.TAIL and {(Mark.TAIL, Mark.ARROW): 1}[(Mark("-"), Mark(">"))] == 1


def test_edge_endpoints_are_normalised():
    e = Edge("B", "A", Mark.TAIL, Mark.ARROW)
    assert (e.a, e.b, e.mark_a, e.mark_b) == ("A", "B", Mark.ARROW, Mark.TAIL)
    assert e == Edge.directed("B", "A") and e.tail_node() == "B"
    assert Edge("A", "B", Mark.CIRCLE, Mark.ARROW) == Edge.partial("A", "B")
    with pytest.raises(MarkNotAllowedError, match="self loop at A"):
        Edge("A", "A", Mark.TAIL, Mark.ARROW)
    match Edge.directed("A", "B"):
        case Edge("A", "B", Mark.TAIL, Mark.ARROW):
            pass
        case _:
            pytest.fail("positional pattern does not follow the fields")


def test_adjustment_query_checks_its_sets():
    g = ca.parse_graph("graph dag { X -> Y Z -> X Z -> Y }")
    q = AdjustmentQuery(g, "X", ["Y"])
    assert (q.x, q.y, q.z) == (frozenset("X"), frozenset("Y"), frozenset())
    assert AdjustmentQuery(g, {"X"}, {"Y"}, ["Z"]).z == frozenset("Z")
    with pytest.raises(EmptyXOrYError):
        AdjustmentQuery(g, (), {"Y"})
    with pytest.raises(SetsNotDisjointError):
        AdjustmentQuery(g, {"X"}, {"Y"}, {"X"})
    with pytest.raises(UnknownNodeError):
        AdjustmentQuery(g, {"X"}, {"W"})


def test_verdict_truth_and_class_length():
    assert bool(AdjustmentVerdict(True)) and not AdjustmentVerdict(False, "Cond1", "Z")
    cls = ca.enumerate_dags(ca.parse_graph("graph cpdag { A -- B B -- C }"))
    assert len(cls) == 3
    assert list(cls) == list(cls.members)
    assert all(m.graph_class is GraphClass.DAG for m in cls)
    assert len(EquivalenceClass(cls.representative, ())) == 0


def test_linear_sem_validates_and_freezes_its_arrays():
    sem = LinearSEM(_graph(), [[0, 2], [0, 0]], (1, 2))
    assert sem.coeffs == ((0, 2), (0, 0)) and sem.noise_var == (1, 2)
    assert all(type(c) is int for row in sem.coeffs for c in row)
    assert sem == sem and sem.index("B") == 1
    # the (child, weight) pairs the path sums read, rebuilt by a copy
    assert sem._weights == copy.copy(sem)._weights == [[(1, 2)], []]
    with pytest.raises(AttributeError, match="cannot assign to field 'coeffs'"):
        sem.coeffs = ((0, 0), (0, 0))
    g = _graph()
    with pytest.raises(ClassMismatchError):
        LinearSEM(ca.parse_graph("graph mag { A -> B }"), [[0, 0], [0, 0]], [1, 1])
    with pytest.raises(ValueError, match="shape"):
        LinearSEM(g, [[0, 0, 0]] * 3, [1, 1])
    with pytest.raises(ValueError, match="shape"):
        LinearSEM(g, [[0, 0], [0]], [1, 1])
    with pytest.raises(ValueError, match="off the DAG edge set"):
        LinearSEM(g, [[0, 0], [1, 0]], [1, 1])
    with pytest.raises(ValueError, match="positive"):
        LinearSEM(g, [[0, 0], [0, 0]], [1, 0])
    for coeffs, noise in (([[0, 0.5], [0, 0]], [1, 1]), ([[0, Fraction(1, 2)], [0, 0]], [1, 1]),
                          ([[0, True], [0, 0]], [1, 1]), ([[0, 1], [0, 0]], [1.0, 1])):
        with pytest.raises(TypeError, match="integers"):
            LinearSEM(g, coeffs, noise)
