import itertools
import random

import pytest

import covadjust as ca
from covadjust.errors import EmptyXOrYError, SetsNotDisjointError
from covadjust.graphs import Edge, Graph, GraphClass

from oracles import (
    classify_path,
    cpdag_of,
    directed_pairs,
    enumerate_paths,
    is_subsequence,
    m_connected_enumeration,
    mag_class_of,
    moral_d_separated,
    pag_of,
    path_open,
    random_dag,
    small_queries,
)


def _definite_and_open(g, p, z):
    return classify_path(g, p).definite_status, path_open(g, p, z)


def test_status_collider():
    g = ca.parse_graph("graph dag { X -> V Y -> V }")
    assert _definite_and_open(g, ("X", "V", "Y"), set()) == (True, False)
    assert _definite_and_open(g, ("X", "V", "Y"), {"V"}) == (True, True)


def test_status_unshielded_circles_is_definite_non_collider():
    g = ca.parse_graph("graph pag { X o-o V V o-o Y }")
    assert _definite_and_open(g, ("X", "V", "Y"), set()) == (True, True)
    assert _definite_and_open(g, ("X", "V", "Y"), {"V"}) == (True, False)


def test_status_shielded_circles_is_not_definite():
    g = ca.parse_graph("graph pag { X o-o V V o-o Y X o-o Y }")
    assert _definite_and_open(g, ("X", "V", "Y"), set()) == (False, False)
    assert _definite_and_open(g, ("X", "V", "Y"), {"V"}) == (False, False)
    # every path from X to Y passes that triple at V or an arrowhead
    # against a circle at W, so none is open
    g = ca.parse_graph("graph pag { X o-o V V o-o W X o-> W W o-o Y }")
    assert not path_open(g, ("X", "V", "W", "Y"), set())
    assert not ca.m_connected(g, {"X"}, {"Y"})


def test_status_tail_is_definite_non_collider():
    g = ca.parse_graph("graph dag { V -> X V -> Y }")
    assert _definite_and_open(g, ("X", "V", "Y"), set()) == (True, True)
    assert _definite_and_open(g, ("X", "V", "Y"), {"V"}) == (True, False)


def test_status_endpoint_raises():
    # an endpoint is in no triple, so a one-edge path is of definite
    # status and open; Z may not hold an endpoint
    g = ca.parse_graph("graph dag { X -> Y }")
    assert _definite_and_open(g, ("X", "Y"), set()) == (True, True)
    for end in ("X", "Y"):
        with pytest.raises(ValueError):
            path_open(g, ("X", "Y"), {end})


def test_classify_figure4a_non_causal(corpus):
    g = corpus("fig4a").graph
    kind = classify_path(g, ("X", "V4", "V3", "Y"), {"X"})
    assert not kind.possibly_causal
    assert not kind.causal
    assert kind.proper_wrt_x
    assert kind.definite_status


def test_classify_single_edge_causal():
    g = ca.parse_graph("graph dag { X -> Y }")
    kind = classify_path(g, ("X", "Y"), {"X"})
    assert kind.causal and kind.possibly_causal and kind.definite_status


def test_classify_figure1a_backdoor_path(corpus):
    g = corpus("fig1a").graph
    kind = classify_path(g, ("X", "Z", "Y"), {"X"})
    assert not kind.possibly_causal
    assert kind.definite_status


def test_classify_causal_implies_possibly_causal():
    rng = random.Random(3)
    for _ in range(10):
        g = random_dag(rng, 5, 0.5)
        for p in enumerate_paths(g, {g.nodes[0]}, {g.nodes[-1]}):
            kind = classify_path(g, p, {g.nodes[0]})
            assert not kind.causal or kind.possibly_causal


def test_enumerate_paths_figure1a_subsequences(corpus):
    g = corpus("fig1a").graph
    found = enumerate_paths(g, {"X"}, {"Y"}, proper=True, definite_status=True,
                            possibly_causal=False)
    assert found
    for p in found:
        assert is_subsequence(("X", "Z", "Y"), p) or is_subsequence(("X", "A", "B", "Y"), p)


def test_enumerate_paths_two_node_graph_has_no_non_causal():
    g = ca.parse_graph("graph dag { X -> Y }")
    assert enumerate_paths(g, {"X"}, {"Y"}, possibly_causal=False) == []


def test_enumerate_paths_figure4b_exactly_three(corpus):
    g = corpus("fig4b").graph
    found = enumerate_paths(g, {"X"}, {"Y"}, proper=True, definite_status=True,
                            possibly_causal=False)
    assert found == [
        ("X", "V3", "V4", "Y"),
        ("X", "V3", "Y"),
        ("X", "V4", "V3", "Y"),
    ]


def test_m_connected_validates_sets():
    g = ca.parse_graph("graph dag { Z -> X Z -> Y X -> Y }")
    for search in (ca.m_connected, ca.find_open_definite_path):
        with pytest.raises(SetsNotDisjointError):
            search(g, {"X"}, {"X"}, set())
        with pytest.raises(SetsNotDisjointError):
            search(g, {"X"}, {"Y"}, {"X"})
        with pytest.raises(EmptyXOrYError):
            search(g, set(), {"Y"}, set())


def test_blocks_conditioned_non_collider():
    g = ca.parse_graph("graph dag { Z -> X Z -> Y }")
    assert not path_open(g, ("X", "Z", "Y"), {"Z"})
    assert path_open(g, ("X", "Z", "Y"), set())


def test_blocks_unconditioned_collider():
    g = ca.parse_graph("graph dag { X -> C Y -> C }")
    assert not path_open(g, ("X", "C", "Y"), set())
    assert path_open(g, ("X", "C", "Y"), {"C"})


def test_blocks_figure4a_any_set_containing_v3(corpus):
    g = corpus("fig4a").graph
    p = ("X", "V4", "V3", "Y")
    assert not path_open(g, p, {"V3"})
    assert not path_open(g, p, {"V1", "V3"})


def test_blocks_collider_open_via_descendant():
    g = ca.parse_graph("graph dag { X -> C Y -> C C -> D }")
    assert path_open(g, ("X", "C", "Y"), {"D"})


def test_blocks_errors():
    # a path not of definite status is never open; Z may not hold an endpoint
    shielded = ca.parse_graph("graph pag { X o-o V V o-o Y X o-o Y }")
    assert not classify_path(shielded, ("X", "V", "Y")).definite_status
    assert not path_open(shielded, ("X", "V", "Y"), set())
    g = ca.parse_graph("graph dag { Z -> X Z -> Y }")
    with pytest.raises(ValueError):
        path_open(g, ("X", "Z", "Y"), {"X"})


def test_m_connected_trivial_cases():
    g = ca.parse_graph("graph dag { X -> Y }")
    assert ca.m_connected(g, {"X"}, {"Y"})
    collider = ca.parse_graph("graph dag { X -> C Y -> C }")
    assert not ca.m_connected(collider, {"X"}, {"Y"})
    assert ca.m_connected(collider, {"X"}, {"Y"}, {"C"})
    with pytest.raises(SetsNotDisjointError):
        ca.m_connected(g, {"X"}, {"Y"}, {"X"})


def test_m_connected_methods_and_oracle_agree_on_random_dags():
    rng = random.Random(9)
    for _ in range(25):
        g = random_dag(rng, rng.randint(3, 6), 0.45)
        for x, y, z in small_queries(g.nodes, max_xy=1):
            reach = ca.m_connected(g, x, y, z)
            enum = m_connected_enumeration(g, x, y, z)
            moral = not moral_d_separated(g, x, y, z)
            assert reach == enum == moral


def test_m_connected_agrees_with_networkx_on_random_dags():
    nx = pytest.importorskip("networkx")
    rng = random.Random(13)
    seen = {True: 0, False: 0}
    for _ in range(60):
        g = random_dag(rng, rng.randint(3, 9), rng.uniform(0.15, 0.5))
        dag = nx.DiGraph(directed_pairs(g))
        dag.add_nodes_from(g.nodes)
        for _ in range(40):
            names = list(g.nodes)
            rng.shuffle(names)
            kx, ky = rng.randint(1, 2), rng.randint(1, 2)
            x, y = set(names[:kx]), set(names[kx:kx + ky])
            rest = names[kx + ky:]
            z = set(rng.sample(rest, rng.randint(0, len(rest))))
            connected = ca.m_connected(g, x, y, z)
            assert connected is not nx.is_d_separator(dag, x, y, z), (ca.serialize_graph(g), x, y, z)
            seen[connected] += 1
    assert min(seen.values()) >= 200, seen


def test_m_connected_methods_agree_exhaustively_on_three_node_classes():
    names = ("A", "B", "C")
    pairs = list(itertools.combinations(names, 2))
    states = (None, "ab", "ba", "bi", "oo", "oa", "ao")
    marks = {
        "ab": Edge.directed, "ba": lambda a, b: Edge.directed(b, a),
        "bi": Edge.bidirected, "oo": Edge.undirected,
        "oa": Edge.partial, "ao": lambda a, b: Edge.partial(b, a),
    }
    checked = 0
    for combo in itertools.product(states, repeat=3):
        edges = [marks[s](a, b) for s, (a, b) in zip(combo, pairs) if s]
        g = Graph(GraphClass.PAG, names, frozenset(edges))
        for x, y, z in small_queries(names, max_xy=1):
            assert ca.m_connected(g, x, y, z) == m_connected_enumeration(g, x, y, z)
            checked += 1
    assert checked > 1000


def test_m_connected_methods_agree_on_random_cpdags_and_pags():
    rng = random.Random(12)
    for _ in range(12):
        c = cpdag_of(random_dag(rng, rng.randint(3, 6), 0.4))
        for x, y, z in small_queries(c.nodes, max_xy=1):
            assert ca.m_connected(c, x, y, z) == m_connected_enumeration(c, x, y, z)
    for _ in range(8):
        d = random_dag(rng, rng.randint(3, 5), 0.5)
        observed = [n for n in d.nodes if rng.random() < 0.8] or list(d.nodes[:2])
        m = ca.latent_project(d, observed)
        p = pag_of(m)
        for x, y, z in small_queries(p.nodes, max_xy=1):
            assert ca.m_connected(p, x, y, z) == m_connected_enumeration(p, x, y, z)


def test_separating_sets_brute_force(corpus):
    def separating_sets(g, a, b):
        rest = [n for n in g.nodes if n not in (a, b)]
        return [frozenset(z) for r in range(len(rest) + 1)
                for z in itertools.combinations(rest, r) if not ca.m_connected(g, {a}, {b}, z)]

    g = corpus("fig3c").graph  # V1 -> X -> V2 -> Y, X -> Y
    seps = separating_sets(g, "V1", "Y")
    assert frozenset({"X"}) in seps
    assert frozenset() not in seps
    full = ca.parse_graph("graph dag { A -> B }")
    assert separating_sets(full, "A", "B") == []


def test_possible_ancestors_mirrors_possible_descendants(corpus):
    g = corpus("fig4a").graph
    for v in g.nodes:
        for w in g.nodes:
            assert (w in ca.possible_descendants(g, {v})) == (
                v in ca.possible_ancestors(g, {w})
            )


def test_figure3c_has_no_proper_definite_non_causal_paths(corpus):
    g = corpus("fig3c").graph
    found = enumerate_paths(g, {"X"}, {"Y"}, proper=True, definite_status=True,
                            possibly_causal=False)
    assert found == []


def test_unshielded_paths_are_definite_status():
    rng = random.Random(21)
    for _ in range(10):
        d = random_dag(rng, 5, 0.5)
        observed = list(d.nodes[:4])
        m = ca.latent_project(d, observed)
        for members in [mag_class_of(m)[:3]]:
            for g in members:
                for p in enumerate_paths(g, {g.nodes[0]}, {g.nodes[-1]}):
                    shielded = any(
                        g.adjacent(p[i - 1], p[i + 1]) for i in range(1, len(p) - 1)
                    )
                    if not shielded:
                        assert classify_path(g, p).definite_status


def test_blocking_monotone_for_collider_free_paths(corpus):
    g = corpus("fig1a").graph
    p = ("X", "Z", "Y")  # no colliders on it
    rest = [n for n in g.nodes if n not in p]
    for r in range(len(rest) + 1):
        for z in itertools.combinations(rest, r):
            if not path_open(g, p, set(z) | {"Z"}):
                assert not path_open(g, p, set(z) | {"Z"} | {rest[0]})


def test_classify_definite_status_invariant_under_reversal(corpus):
    for name in ("fig1a", "fig4a", "fig4b"):
        g = corpus(name).graph
        for p in enumerate_paths(g, {"X"}, {"Y"}):
            assert classify_path(g, p).definite_status == classify_path(g, p[::-1]).definite_status


def test_classify_path_checks_its_nodes():
    g = ca.parse_graph("graph dag { A -> B B -> C A -> C C -> D }")
    assert classify_path(g, ["A", "B", "C", "D"]) == (True, True, False, True)
    bad = {
        (): "two distinct",
        ("A",): "two distinct",
        ("A", "B", "A"): "two distinct",
        ("A", "B", "C", "A"): "two distinct",
        ("A", "D"): "not adjacent",
        ("A", "B", "D"): "not adjacent",
        ("Q", "A"): "not adjacent",
        ("A", "Q"): "not adjacent",
    }
    for nodes, message in bad.items():
        with pytest.raises(ValueError, match=message):
            classify_path(g, nodes)
