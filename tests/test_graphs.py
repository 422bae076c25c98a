import random

import pytest

import covadjust as ca
from covadjust.errors import (
    AlmostDirectedCycleError,
    ClassMismatchError,
    DirectedCycleError,
    DuplicateEdgeError,
    MarkNotAllowedError,
    NotMaximalError,
    UnknownNodeError,
)
from covadjust.graphs import Edge, Graph, GraphClass, Mark

from conftest import run_with_src
from oracles import random_dag


def test_build_single_edge_dag():
    g = ca.build_graph(GraphClass.DAG, ["X", "Y"], [Edge.directed("X", "Y")])
    assert g.adjacent("X", "Y")
    assert g.mark_at("X", "Y") is Mark.TAIL
    assert g.mark_at("Y", "X") is Mark.ARROW


@pytest.mark.parametrize("accessor", ["adjacent", "edge_between", "mark_at"])
@pytest.mark.parametrize("pair", [("Q", "A"), ("A", "Q")])
def test_accessors_name_an_unknown_node(accessor, pair):
    g = ca.parse_graph("graph mag { A -> B }")
    with pytest.raises(UnknownNodeError, match="unknown node: Q"):
        getattr(g, accessor)(*pair)


def test_edge_is_the_same_in_both_directions():
    assert Edge.directed("X", "Y") == Edge("Y", "X", Mark.ARROW, Mark.TAIL)
    assert Edge.bidirected("B", "A") == Edge.bidirected("A", "B")


def test_directed_cycle_rejected_with_witness():
    edges = [Edge.directed("X", "Y"), Edge.directed("Y", "Z"), Edge.directed("Z", "X")]
    with pytest.raises(DirectedCycleError) as exc:
        ca.build_graph(GraphClass.DAG, ["X", "Y", "Z"], edges)
    assert set(exc.value.cycle) == {"X", "Y", "Z"}


def test_almost_directed_cycle_rejected():
    edges = [Edge.directed("X", "Y"), Edge.directed("Y", "Z"), Edge.bidirected("Z", "X")]
    with pytest.raises(AlmostDirectedCycleError):
        ca.build_graph(GraphClass.MAG, ["X", "Y", "Z"], edges)


def test_mark_vocabulary_per_class():
    with pytest.raises(MarkNotAllowedError):
        Graph(GraphClass.DAG, ("X", "Y"), frozenset([Edge.undirected("X", "Y")]))
    with pytest.raises(MarkNotAllowedError):
        Graph(GraphClass.MAG, ("X", "Y"), frozenset([Edge.partial("X", "Y")]))
    with pytest.raises(MarkNotAllowedError):
        Graph(GraphClass.CPDAG, ("X", "Y"), frozenset([Edge.bidirected("X", "Y")]))
    # tail-tail and tail-circle never exist: no selection variables
    with pytest.raises(MarkNotAllowedError):
        Graph(GraphClass.PAG, ("X", "Y"), frozenset([Edge("X", "Y", Mark.TAIL, Mark.TAIL)]))
    with pytest.raises(MarkNotAllowedError):
        Graph(GraphClass.PAG, ("X", "Y"), frozenset([Edge("X", "Y", Mark.TAIL, Mark.CIRCLE)]))


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdgeError):
        Graph(
            GraphClass.PAG,
            ("X", "Y"),
            frozenset([Edge.directed("X", "Y"), Edge.bidirected("X", "Y")]),
        )


def test_unknown_endpoint_rejected():
    with pytest.raises(UnknownNodeError):
        Graph(GraphClass.DAG, ("X",), frozenset([Edge.directed("X", "Y")]))


def test_figure4a_pag_builds(corpus):
    g = corpus("fig4a").graph
    assert g.graph_class is GraphClass.PAG
    assert len(g.edges) == 8
    ca.validate_graph(g)


def test_non_maximal_mag_rejected():
    # A <-> B <-> C <-> D is an inducing path: B and C are colliders on it
    # and ancestors of the endpoints, so (A, D) cannot be separated.
    edges = [
        Edge.bidirected("A", "B"),
        Edge.bidirected("B", "C"),
        Edge.bidirected("C", "D"),
        Edge.directed("B", "E"),
        Edge.directed("E", "D"),
        Edge.directed("C", "F"),
        Edge.directed("F", "A"),
    ]
    with pytest.raises(NotMaximalError) as exc:
        ca.build_graph(GraphClass.MAG, ["A", "B", "C", "D", "E", "F"], edges)
    assert exc.value.pair == ("A", "D")


def test_parents_on_figure4a(corpus):
    g = corpus("fig4a").graph
    assert ca.parents(g, {"V4"}) == {"V3", "X"}
    assert ca.parents(g, set()) == frozenset()


def test_parents_chain():
    g = ca.build_graph(
        GraphClass.DAG, ["X", "Y", "Z"], [Edge.directed("X", "Y"), Edge.directed("Y", "Z")]
    )
    assert ca.parents(g, {"Z"}) == {"Y"}
    # circle marks are not parents
    p = ca.parse_graph("graph pag { A o-> B }")
    assert ca.parents(p, {"B"}) == frozenset()


def test_possible_descendants_figure1a(corpus):
    g = corpus("fig1a").graph
    assert ca.possible_descendants(g, {"X"}) == {"X", "Y"}


def test_possible_descendants_reflexive_on_edgeless_graph():
    g = ca.build_graph(GraphClass.DAG, ["X", "Y"], [])
    assert ca.possible_descendants(g, {"X"}) == {"X"}


def test_possible_descendants_through_circles():
    g = ca.parse_graph("graph pag { A o-o B B o-> C }")
    assert ca.possible_descendants(g, {"A"}) == {"A", "B", "C"}
    assert ca.possible_descendants(g, {"C"}) == {"C"}


def test_descendants_chain_and_bidirected():
    chain = ca.build_graph(
        GraphClass.DAG, ["X", "Y", "Z"], [Edge.directed("X", "Y"), Edge.directed("Y", "Z")]
    )
    assert ca.descendants(chain, {"X"}) == {"X", "Y", "Z"}
    bi = ca.build_graph(GraphClass.MAG, ["X", "Y"], [Edge.bidirected("X", "Y")])
    assert ca.descendants(bi, {"X"}) == {"X"}
    mag_chain = ca.build_graph(
        GraphClass.MAG,
        ["X1", "V1", "V2", "X2"],
        [Edge.directed("X1", "V1"), Edge.directed("V1", "V2"), Edge.directed("V2", "X2")],
    )
    assert ca.descendants(mag_chain, {"X1"}) == {"X1", "V1", "V2", "X2"}


def test_descendants_requires_dag_or_mag(corpus):
    with pytest.raises(ClassMismatchError):
        ca.descendants(corpus("fig1a").graph, {"X"})


def test_unknown_node_in_relations(corpus):
    with pytest.raises(UnknownNodeError):
        ca.parents(corpus("fig1a").graph, {"nope"})


def test_first_unknown_node_in_argument_order():
    d = ca.parse_graph("graph dag { A -> B B -> C }")
    for names, first in ((["Q", "R", "S"], "Q"), (("S", "A", "R"), "S"), ("RS", "RS"),
                         (iter(["R", "Q"]), "R"), ({"S": 0, "Q": 1}, "S"),
                         ({"S", "R", "Q"}, "Q"), (frozenset({"S", "R"}), "R")):
        with pytest.raises(UnknownNodeError, match=f"^unknown node: {first}$"):
            ca.m_connected(d, names, ["A"])
    with pytest.raises(UnknownNodeError, match="^unknown node: R$"):
        ca.latent_project(d, ["A", "R", "Q"])


def test_unknown_node_message_ignores_the_hash_seed():
    code = (
        "import covadjust as ca\n"
        "d = ca.parse_graph('graph dag { A -> B B -> C }')\n"
        "for args in ((['Q', 'R', 'S'], ['A']), ({'Q', 'R', 'S'}, ['A'])):\n"
        "    try:\n"
        "        ca.m_connected(d, *args)\n"
        "    except ca.errors.UnknownNodeError as exc:\n"
        "        print(exc)\n"
    )
    outs = {run_with_src("-c", code, PYTHONHASHSEED=str(h)) for h in range(1, 7)}
    assert outs == {"unknown node: Q\nunknown node: Q\n"}


def test_possible_descendants_collapse_and_monotone():
    rng = random.Random(5)
    for _ in range(40):
        g = random_dag(rng, rng.randint(2, 7), 0.4)
        nodes = list(g.nodes)
        s = frozenset(rng.sample(nodes, rng.randint(1, len(nodes))))
        t = s | frozenset(rng.sample(nodes, 1))
        # no circles: the possible relation collapses to the plain one
        assert ca.possible_descendants(g, s) == ca.descendants(g, s)
        assert ca.possible_descendants(g, s) <= ca.possible_descendants(g, t)
        closed = ca.possible_descendants(g, s)
        assert ca.possible_descendants(g, closed) == closed


def test_ancestors_inverse_of_descendants():
    rng = random.Random(6)
    for _ in range(20):
        g = random_dag(rng, 6, 0.4)
        for v in g.nodes:
            for w in g.nodes:
                assert (w in ca.descendants(g, {v})) == (v in ca.ancestors(g, {w}))


def test_node_order_is_declaration_order(corpus):
    g = corpus("fig1a").graph
    assert g.nodes == ("A", "B", "I", "Z", "X", "Y")
    assert g.sort_nodes({"Y", "A", "Z"}) == ("A", "Z", "Y")


def test_graphs_are_hashable_value_objects():
    a = ca.build_graph(GraphClass.DAG, ["X", "Y"], [Edge.directed("X", "Y")])
    b = ca.build_graph(GraphClass.DAG, ["X", "Y"], [Edge("Y", "X", Mark.ARROW, Mark.TAIL)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # class tag and node order both matter for identity
    c = ca.build_graph(GraphClass.MAG, ["X", "Y"], [Edge.directed("X", "Y")])
    d = ca.build_graph(GraphClass.DAG, ["Y", "X"], [Edge.directed("X", "Y")])
    assert a != c and a != d
