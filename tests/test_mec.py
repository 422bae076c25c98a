import random
from collections import Counter

import pytest

import covadjust as ca
from covadjust import mec
from covadjust.errors import (
    ClassMismatchError,
    InvalidCpdagError,
    InvalidPagError,
    NodeSetMismatchError,
    NotEquivalentError,
    SizeCapExceededError,
    SkeletonMismatchError,
    UnknownNodeError,
)
from covadjust.graphs import Edge, Graph, GraphClass

from oracles import (
    all_pairs_fingerprint,
    class_graphs,
    cpdag_of,
    dag_classes_on_skeleton,
    directed_cycle,
    mag_class_of,
    moral_d_separated,
    pag_of,
    random_dag,
    small_queries,
)


def edge_set(g):
    return frozenset(g.edges)


# ------------------------------------------------------------ enumerate_dags

def test_figure1a_class_has_eight_members(corpus):
    klass = ca.enumerate_dags(corpus("fig1a").graph)
    assert len(klass.members) == 8
    for d in klass.members:
        assert d.graph_class is GraphClass.DAG


def test_union_of_figure1a_members_is_input(corpus):
    g = corpus("fig1a").graph
    klass = ca.enumerate_dags(g)
    assert ca.union_representative(klass.members) == g


def test_members_share_skeleton_and_colliders(corpus):
    g = corpus("fig1a").graph
    members = ca.enumerate_dags(g).members
    skel = {frozenset((e.a, e.b) for e in m.edges) for m in members}
    assert len(skel) == 1
    colliders = {ca.unshielded_colliders(m) for m in members}
    assert len(colliders) == 1


def test_cpdag_that_is_a_dag_has_class_of_one():
    # every edge of a collider is compelled (a chain X -> Y -> Z is not a CPDAG)
    c = ca.parse_graph("graph cpdag { X -> Y Z -> Y }")
    klass = ca.enumerate_dags(c)
    assert len(klass.members) == 1
    assert edge_set(klass.members[0]) == edge_set(c)


def test_single_undirected_edge_has_two_orientations():
    c = ca.parse_graph("graph cpdag { A -- B }")
    klass = ca.enumerate_dags(c)
    assert {edge_set(m) for m in klass.members} == {
        frozenset({Edge.directed("A", "B")}),
        frozenset({Edge.directed("B", "A")}),
    }


def test_invalid_cpdag_rejected():
    # A -> B -- C would orient to B -> C in any valid CPDAG
    with pytest.raises(InvalidCpdagError):
        ca.enumerate_dags(ca.parse_graph("graph cpdag { A -> B B -- C }"))
    # a chordless undirected 4-cycle has no collider-free acyclic orientation
    with pytest.raises(InvalidCpdagError):
        ca.enumerate_dags(ca.parse_graph("graph cpdag { A -- B B -- C C -- D D -- A }"))


def test_reversible_directed_edge_rejected():
    # each directed edge here is covered in the one member, so it is not compelled
    for text in ("graph cpdag { A -> B }", "graph cpdag { X -> Y Y -> Z }",
                 "graph cpdag { A -> B B -- C A -- C }"):
        with pytest.raises(InvalidCpdagError, match="reversible"):
            ca.enumerate_dags(ca.parse_graph(text))


def _edge_changes(c):
    """`c` with one edge replaced by each other CPDAG edge on its pair."""
    for e in c.edges:
        for other in (Edge.directed(e.a, e.b), Edge.directed(e.b, e.a), Edge.undirected(e.a, e.b)):
            if other != e:
                yield Graph(GraphClass.CPDAG, c.nodes, (c.edges - {e}) | {other})


def test_enumerate_dags_accepts_exactly_the_cpdags():
    """On seeded skeletons, each CPDAG and each single-edge change of one is
    accepted iff it is the CPDAG of some DAG, with that DAG's class."""
    rng = random.Random(67)
    seen = Counter()
    for _ in range(40):
        d = random_dag(rng, rng.randint(3, 6), rng.uniform(0.3, 0.6))
        pairs = sorted((e.a, e.b) for e in d.edges)
        if not 2 <= len(pairs) <= 8:
            continue
        classes = dag_classes_on_skeleton(d.nodes, pairs)
        inputs = set(classes).union(*(_edge_changes(c) for c in classes))
        for c in sorted(inputs, key=ca.serialize_graph):
            try:
                members = ca.enumerate_dags(c).members
            except InvalidCpdagError as exc:
                assert c not in classes, ca.serialize_graph(c)
                seen["reversible" if "reversible" in str(exc) else "rejected"] += 1
                continue
            assert c in classes, ca.serialize_graph(c)
            assert cpdag_of(members[0]) == c
            assert len(members) == len(classes[c])
            assert {m.edges for m in members} == classes[c]
            seen["accepted"] += 1
    assert seen["accepted"] >= 200 and seen["rejected"] >= 1000 and seen["reversible"] >= 500, seen


def test_enumerate_dags_round_trip_on_random_cpdags():
    rng = random.Random(51)
    for _ in range(15):
        c = cpdag_of(random_dag(rng, rng.randint(3, 6), 0.45))
        klass = ca.enumerate_dags(c)
        assert ca.union_representative(klass.members) == c


# ------------------------------------------------------------ enumerate_mags

def test_figure3a_class_contains_both_mags(corpus):
    klass = ca.enumerate_mags(corpus("fig3a").graph)
    members = {edge_set(m) for m in klass.members}
    assert edge_set(corpus("fig3b").graph) in members
    assert edge_set(corpus("fig3c").graph) in members


def test_pag_without_circles_is_its_own_class():
    p = ca.parse_graph("graph pag { X -> Y X <-> Z }")
    klass = ca.enumerate_mags(p)
    assert len(klass.members) == 1
    assert edge_set(klass.members[0]) == edge_set(p)


def test_single_nondirected_edge_has_three_members():
    klass = ca.enumerate_mags(ca.parse_graph("graph pag { X o-o Y }"))
    assert {edge_set(m) for m in klass.members} == {
        frozenset({Edge.directed("X", "Y")}),
        frozenset({Edge.directed("Y", "X")}),
        frozenset({Edge.bidirected("X", "Y")}),
    }


def test_invalid_pag_rejected():
    # no Markov equivalence class of MAGs unions to these marks
    bad = Graph(
        GraphClass.PAG,
        ("X", "V", "C", "D", "Y"),
        frozenset(
            [
                Edge.undirected("X", "V"),
                Edge.directed("V", "C"),
                Edge.directed("C", "D"),
                Edge.directed("V", "D"),
                Edge.partial("Y", "V"),
            ]
        ),
    )
    with pytest.raises(InvalidPagError):
        ca.enumerate_mags(bad)


def test_enumerate_mags_matches_exhaustive_class_sweep():
    rng = random.Random(53)
    checked = 0
    while checked < 10:
        d = random_dag(rng, rng.randint(3, 5), 0.5)
        observed = [n for n in d.nodes if rng.random() < 0.8] or list(d.nodes[:2])
        m = ca.latent_project(d, observed)
        if len(m.nodes) < 2 or len(m.edges) > 7:
            continue
        checked += 1
        p = pag_of(m)
        lib = {edge_set(g) for g in ca.enumerate_mags(p).members}
        brute = {edge_set(g) for g in mag_class_of(m)}
        assert lib == brute


# ------------------------------------------------------- union_representative

def test_union_of_two_orientations_is_undirected():
    a_to_b = ca.build_graph(GraphClass.DAG, ["A", "B"], [Edge.directed("A", "B")])
    b_to_a = ca.build_graph(GraphClass.DAG, ["A", "B"], [Edge.directed("B", "A")])
    rep = ca.union_representative([a_to_b, b_to_a])
    assert rep.graph_class is GraphClass.CPDAG
    assert edge_set(rep) == frozenset({Edge.undirected("A", "B")})


def test_union_of_single_member_keeps_structure():
    d = ca.build_graph(GraphClass.DAG, ["A", "B"], [Edge.directed("A", "B")])
    rep = ca.union_representative([d])
    assert rep.graph_class is GraphClass.CPDAG
    assert edge_set(rep) == edge_set(d)


def test_union_rejects_mismatches():
    d1 = ca.build_graph(GraphClass.DAG, ["A", "B", "C"], [Edge.directed("A", "B")])
    d2 = ca.build_graph(GraphClass.DAG, ["A", "B", "C"], [Edge.directed("B", "C")])
    with pytest.raises(SkeletonMismatchError):
        ca.union_representative([d1, d2])
    chain = ca.build_graph(
        GraphClass.DAG, ["A", "B", "C"], [Edge.directed("A", "B"), Edge.directed("B", "C")]
    )
    collider = ca.build_graph(
        GraphClass.DAG, ["A", "B", "C"], [Edge.directed("A", "B"), Edge.directed("C", "B")]
    )
    with pytest.raises(NotEquivalentError):
        ca.union_representative([chain, collider])
    dag = ca.build_graph(GraphClass.DAG, ["A", "B"], [Edge.directed("A", "B")])
    mag = ca.build_graph(GraphClass.MAG, ["A", "B"], [Edge.directed("A", "B")])
    with pytest.raises(ClassMismatchError):
        ca.union_representative([dag, mag])


# ---------------------------------------------------------- markov_equivalent

def test_reversible_edge_is_equivalent():
    a = ca.build_graph(GraphClass.DAG, ["X", "Y"], [Edge.directed("X", "Y")])
    b = ca.build_graph(GraphClass.DAG, ["X", "Y"], [Edge.directed("Y", "X")])
    assert ca.markov_equivalent(a, b)


def test_v_structure_is_not_equivalent_to_chain():
    collider = ca.build_graph(
        GraphClass.DAG, ["X", "C", "Y"], [Edge.directed("X", "C"), Edge.directed("Y", "C")]
    )
    chain = ca.build_graph(
        GraphClass.DAG, ["X", "C", "Y"], [Edge.directed("X", "C"), Edge.directed("C", "Y")]
    )
    assert not ca.markov_equivalent(collider, chain)


def test_figure3_mags_equivalent(corpus):
    assert ca.markov_equivalent(corpus("fig3b").graph, corpus("fig3c").graph)


def test_markov_equivalent_validates_inputs():
    a = ca.build_graph(GraphClass.DAG, ["X", "Y"], [Edge.directed("X", "Y")])
    c = ca.build_graph(GraphClass.DAG, ["X", "Z"], [Edge.directed("X", "Z")])
    with pytest.raises(NodeSetMismatchError):
        ca.markov_equivalent(a, c)
    big = Graph(GraphClass.DAG, tuple(f"N{i}" for i in range(13)), frozenset())
    with pytest.raises(SizeCapExceededError):
        ca.separation_fingerprint(big)


@pytest.mark.parametrize("cls", ["dag", "cpdag", "mag", "pag"])
def test_fingerprint_agrees_with_all_pairs_reference(cls):
    for g in class_graphs(cls, 3, 20):
        assert ca.separation_fingerprint(g) == all_pairs_fingerprint(g), ca.serialize_graph(g)


def _partners(d, rng):
    """DAGs over the nodes of `d`: each acyclic single-edge reversal of it,
    and one independent random DAG."""
    for e in sorted(d.edges, key=lambda e: (e.a, e.b)):
        t = e.tail_node()
        flipped = Graph(GraphClass.DAG, d.nodes, (d.edges - {e}) | {Edge.directed(e.other(t), t)})
        if directed_cycle(flipped) is None:
            yield flipped
    yield random_dag(rng, len(d.nodes), rng.uniform(0.3, 0.6))


def test_dag_equivalence_key_agrees_with_fingerprints():
    rng = random.Random(71)
    seen = Counter()
    for _ in range(150):
        d = random_dag(rng, rng.randint(3, 7), rng.uniform(0.3, 0.6))
        for other in _partners(d, rng):
            same = ca.separation_fingerprint(d) == ca.separation_fingerprint(other)
            assert (mec._equivalence_key(d) == mec._equivalence_key(other)) is same
            assert ca.markov_equivalent(d, other) is same
            seen[same] += 1
    assert seen[True] >= 200 and seen[False] >= 200, seen


def test_dag_equivalence_has_no_node_cap():
    names = tuple(f"N{i}" for i in range(40))
    chain = frozenset(Edge.directed(a, b) for a, b in zip(names, names[1:]))
    flipped = (chain - {Edge.directed("N0", "N1")}) | {Edge.directed("N1", "N0")}
    a = Graph(GraphClass.DAG, names, chain)
    assert ca.markov_equivalent(a, Graph(GraphClass.DAG, names, flipped))
    collider = (chain - {Edge.directed("N1", "N2")}) | {Edge.directed("N2", "N1")}
    assert not ca.markov_equivalent(a, Graph(GraphClass.DAG, names, collider))


# ------------------------------------------------------------- latent_project

def test_projection_onto_all_nodes_is_identity():
    d = ca.build_graph(GraphClass.DAG, ["X", "Y"], [Edge.directed("X", "Y")])
    m = ca.latent_project(d, {"X", "Y"})
    assert m.graph_class is GraphClass.MAG
    assert edge_set(m) == frozenset({Edge.directed("X", "Y")})


def test_latent_confounder_projects_to_bidirected():
    d = ca.build_graph(
        GraphClass.DAG, ["X", "Y", "L"], [Edge.directed("L", "X"), Edge.directed("L", "Y")]
    )
    m = ca.latent_project(d, {"X", "Y"})
    assert edge_set(m) == frozenset({Edge.bidirected("X", "Y")})


def test_confounded_direct_edge_projects_to_invisible_directed_edge():
    d = ca.build_graph(
        GraphClass.DAG,
        ["X", "Y", "L"],
        [Edge.directed("X", "Y"), Edge.directed("L", "X"), Edge.directed("L", "Y")],
    )
    m = ca.latent_project(d, {"X", "Y"})
    assert edge_set(m) == frozenset({Edge.directed("X", "Y")})
    assert not ca.is_visible(m, "X", "Y")


def test_projection_preserves_observed_separations():
    rng = random.Random(59)
    for _ in range(10):
        d = random_dag(rng, rng.randint(4, 6), 0.45)
        observed = [n for n in d.nodes if rng.random() < 0.7] or list(d.nodes[:2])
        m = ca.latent_project(d, observed)
        for x, y, z in small_queries(m.nodes, max_xy=1):
            assert moral_d_separated(d, x, y, z) == (not ca.m_connected(m, x, y, z))


def test_latent_project_requires_dag(corpus):
    with pytest.raises(ClassMismatchError):
        ca.latent_project(corpus("fig1a").graph, {"X"})


def test_latent_project_reads_a_string_as_one_node():
    d = ca.parse_graph("graph dag { A -> B B -> C }")
    with pytest.raises(UnknownNodeError):
        ca.latent_project(d, "AB")
    assert ca.latent_project(d, "B").nodes == ("B",)


# -------------------------------------------------------------- canonical_dag

def test_canonical_dag_round_trip(corpus):
    for name in ("fig3b", "fig3c"):
        m = corpus(name).graph
        dag = ca.canonical_dag(m)
        assert ca.latent_project(dag, m.nodes) == m


def test_canonical_dag_adds_one_latent_per_bidirected_edge():
    m = ca.build_graph(
        GraphClass.MAG,
        ["A", "B", "C"],
        [Edge.bidirected("A", "B"), Edge.directed("B", "C")],
    )
    dag = ca.canonical_dag(m)
    latents = [n for n in dag.nodes if n not in m.nodes]
    assert len(latents) == 1
    assert ca.latent_project(dag, m.nodes) == m


def test_canonical_dag_round_trip_on_random_mags():
    rng = random.Random(61)
    for _ in range(10):
        d = random_dag(rng, rng.randint(4, 6), 0.45)
        observed = [n for n in d.nodes if rng.random() < 0.7] or list(d.nodes[:2])
        m = ca.latent_project(d, observed)
        assert ca.latent_project(ca.canonical_dag(m), m.nodes) == m
