"""The polynomial searches against the brute force they replaced.

Cond2 and the back-door test run one breadth-first search over
(previous, current) edge states, and `is_visible` a closure over
bidirected chains on the graph's masks, run once per node for all its
out-edges and kept in the graph's visibility table.  Here they are
compared with the simple-path search and the collider-path DFS kept in
`oracles`, on seeded random DAGs, CPDAGs, MAGs and PAGs, and every
witness is classified and tested for being open by `oracles` from the
raw edge objects.
"""

import itertools
import random

import pytest

import covadjust as ca
from covadjust import criteria, graphs, kernel
from covadjust.errors import NoPathWitnessError
from covadjust.graphs import Edge, Graph, GraphClass, Mark

import oracles
from oracles import (
    class_graphs,
    directed_pairs,
    is_visible_dfs,
    moral_d_separated,
    random_dag,
    simple_path_search,
    small_queries,
)


GRAPHS = {cls: class_graphs(cls, 1, n) for cls, n in (("dag", 30), ("cpdag", 20), ("mag", 25),
                                                       ("pag", 12))}


def _queries(g, rng, per_graph=8):
    """Random (X, Y, Z): one or two X nodes, one Y node, Z of any size."""
    names = list(g.nodes)
    for _ in range(per_graph):
        rng.shuffle(names)
        k = 2 if len(names) > 3 and rng.random() < 0.3 else 1
        x, y = frozenset(names[:k]), frozenset(names[k:k + 1])
        z = frozenset(v for v in names[k + 1:] if rng.random() < 0.5)
        yield x, y, z


def _oracle_gac(g, x, y, z, forbidden):
    """Cond0 and Cond1 as the library decides them; Cond2 by the
    simple-path search over proper definite status non-causal paths."""
    violation = ca.find_amenability_violation(g, x, y)
    if violation is not None:
        return False, "Cond0"
    if z & forbidden:
        return False, "Cond1"
    path = simple_path_search(g, x, y, z, proper=True, require_non_causal=True)
    return (True, None) if path is None else (False, "Cond2")


def _check_witness(g, witness, x, z, *, gac):
    kind = oracles.classify_path(g, witness, x)  # raises unless distinct, adjacent nodes
    assert kind.definite_status
    assert oracles.path_open(g, witness, z)
    if gac:
        assert kind.proper_wrt_x and not kind.possibly_causal


def _visible_first_edge(g):
    def exempt(start, first):
        return (g.mark_at(start, first) is Mark.TAIL and g.mark_at(first, start) is Mark.ARROW
                and is_visible_dfs(g, Edge.directed(start, first)))
    return exempt


@pytest.mark.parametrize("cls", sorted(GRAPHS))
def test_gac_agrees_with_simple_path_search(cls):
    rng = random.Random(f"gac-{cls}")
    cond2 = 0
    for g in GRAPHS[cls]:
        for x, y, z in _queries(g, rng):
            forb = ca.forbidden_set(g, x, y)
            # half the sets avoid the forbidden nodes, so Cond2 is reached often
            if rng.random() < 0.5:
                z = z - forb
            v = ca.satisfies_gac(ca.AdjustmentQuery(g, x, y, z))
            assert (v.passed, v.failed_condition) == _oracle_gac(g, x, y, z, forb)
            if v.failed_condition == "Cond2":
                cond2 += 1
                _check_witness(g, v.witness, x, z, gac=True)
    assert cond2 >= 10


@pytest.mark.parametrize("cls", ["dag", "mag"])
def test_ac_agrees_with_simple_path_search(cls):
    """The library's Cond0 and Cond1 against the AC from edge-object closures."""
    rng = random.Random(f"ac-{cls}")
    for g in GRAPHS[cls]:
        for x, y, z in _queries(g, rng):
            forb = ca.forbidden_set(g, x, y)  # in DAGs and MAGs, the AC's forbidden set
            if rng.random() < 0.5:
                z = z - forb
            v = oracles.satisfies_ac(g, x, y, z)
            assert (v.passed, v.failed_condition) == _oracle_gac(g, x, y, z, forb)
            if v.failed_condition == "Cond2":
                _check_witness(g, v.witness, x, z, gac=True)


@pytest.mark.parametrize("cls", sorted(GRAPHS))
def test_backdoor_agrees_with_simple_path_search(cls):
    rng = random.Random(f"backdoor-{cls}")
    cond2 = 0
    for g in GRAPHS[cls]:
        exempt = _visible_first_edge(g)
        for x, y, z in _queries(g, rng):
            z = z - ca.possible_descendants(g, x)
            v = ca.satisfies_generalized_backdoor(g, x, y, z)
            want = None
            for x_node in g.sort_nodes(x):
                cond = z | (x - {x_node})
                want = simple_path_search(g, frozenset([x_node]), y, cond, skip_first=exempt)
                if want is not None:
                    break
            assert v.passed == (want is None)
            if want is not None:
                cond2 += 1
                assert v.failed_condition == "Cond2" and v.witness == want
                start = v.witness[0]
                _check_witness(g, v.witness, {start}, z | (x - {start}), gac=False)
    assert cond2 >= 10


@pytest.mark.parametrize("cls", sorted(GRAPHS))
def test_list_agrees_with_simple_path_search(cls):
    rng = random.Random(f"list-{cls}")
    for g in GRAPHS[cls][:10]:
        for x, y, _ in _queries(g, rng, per_graph=3):
            got = ca.list_adjustment_sets(g, x, y)
            if ca.find_amenability_violation(g, x, y) is not None:
                assert got == []
                continue
            forb = ca.forbidden_set(g, x, y)
            cand = [n for n in g.nodes if n not in x | y | forb]
            want = [
                frozenset(c)
                for r in range(len(cand) + 1)
                for c in itertools.combinations(cand, r)
                if simple_path_search(g, x, y, frozenset(c), proper=True,
                                      require_non_causal=True) is None
            ]
            assert got == want


@pytest.mark.parametrize("cls", sorted(GRAPHS))
def test_minimal_list_agrees_with_the_pairwise_filter(cls):
    """`list_adjustment_sets(minimal_only=True)` skips the supersets of the
    sets it keeps; the pairwise filter over the full list must agree."""
    rng = random.Random(f"minimal-{cls}")
    pruned = 0
    for g in GRAPHS[cls]:
        for x, y, _ in _queries(g, rng, per_graph=4):
            for max_size in (None, 1):
                every = ca.list_adjustment_sets(g, x, y, max_size=max_size)
                got = ca.list_adjustment_sets(g, x, y, minimal_only=True, max_size=max_size)
                assert got == oracles.minimal_sets(every), (g, x, y, max_size)
                pruned += len(every) - len(got)
    assert pruned


def test_is_visible_agrees_with_collider_path_dfs():
    seen = []
    for g in GRAPHS["mag"] + GRAPHS["pag"]:
        for tail, head in directed_pairs(g):
            seen.append(criteria.is_visible(g, tail, head))
            assert seen[-1] == is_visible_dfs(g, Edge.directed(tail, head))
    # visibility is a local definition, so any mixed graph will do
    rng = random.Random(7)
    makers = [Edge.directed, lambda a, b: Edge.directed(b, a), Edge.bidirected,
              Edge.undirected, Edge.partial, lambda a, b: Edge.partial(b, a)]
    for _ in range(300):
        names = tuple(f"N{i}" for i in range(6))
        edges = [rng.choice(makers)(a, b) for a, b in itertools.combinations(names, 2)
                 if rng.random() < 0.5]
        g = Graph(GraphClass.PAG, names, frozenset(edges))
        for tail, head in directed_pairs(g):
            seen.append(criteria.is_visible(g, tail, head))
            assert seen[-1] == is_visible_dfs(g, Edge.directed(tail, head))
    assert seen.count(True) >= 100 and seen.count(False) >= 100


def test_is_visible_through_bidirected_chain_of_parents():
    # V -> W1 <-> W2 <-> X: a collider path into X whose interior nodes
    # are parents of Y, from a V not adjacent to Y
    g = ca.parse_graph(
        "graph mag { V -> W1 W1 <-> W2 W2 <-> X W1 -> Y W2 -> Y X -> Y }"
    )
    e = Edge.directed("X", "Y")
    assert criteria.is_visible(g, "X", "Y") and is_visible_dfs(g, e)
    # W2 <-> Y instead of W2 -> Y breaks the chain
    cut = ca.parse_graph("graph mag { V -> W1 W1 <-> W2 W2 <-> X W1 -> Y W2 <-> Y X -> Y }")
    assert not criteria.is_visible(cut, "X", "Y") and not is_visible_dfs(cut, e)


@pytest.mark.parametrize("cls", sorted(GRAPHS))
def test_shortest_path_agrees_with_the_old_searches(cls):
    """The paths read off the closure's rounds (`kernel._reach_bits` with
    `layers`, then `kernel._descend`) against the directed and the
    possibly directed searches they replaced: every directed pair, the
    Cond0 witness of every query with one or two X nodes, and the almost
    directed cycles that one added bidirected edge closes."""
    found = {"cycle": 0, "cond0": 0}
    for g in GRAPHS[cls]:
        index = g.node_index
        for src, dst in itertools.permutations(g.nodes, 2):
            want = oracles.shortest_directed_path(g, src, dst)
            layers = []
            reach = kernel._reach_bits(g, 1 << index[dst], directed=True, reverse=True,
                                       layers=layers)
            if reach >> index[src] & 1:
                assert kernel._descend(g, index[src], layers, directed=True) == want
            else:
                assert want is None
            if want is not None and not g.adjacent(src, dst):
                # src <-> dst along the directed path src -> ... -> dst
                h = Graph(GraphClass.PAG, g.nodes, g.edges | {Edge.bidirected(src, dst)})
                assert graphs._find_almost_directed_cycle(h) == oracles.almost_directed_cycle(h)
                found["cycle"] += 1
        for x, y, _ in small_queries(g.nodes, max_xy=2, max_z=0):
            want = oracles.amenability_violation(g, x, y)
            assert ca.find_amenability_violation(g, x, y) == want
            found["cond0"] += want is not None
    # PAGs have few directed edges, and DAGs are always amenable
    assert found["cycle"] or cls == "pag"
    assert found["cond0"] or cls == "dag"


def _proper_backdoor_dag(dag, x, y):
    """The DAG without the first edge of each proper directed X -> Y path."""
    arrows = directed_pairs(dag)
    reach = set(y)  # non-X nodes with a directed path into Y avoiding X
    changed = True
    while changed:
        changed = False
        for tail, head in arrows:
            if head in reach and tail not in reach and tail not in x:
                reach.add(tail)
                changed = True
    edges = [e for e in dag.edges
             if not any(e.is_directed() and e.tail_node() == s and e.other(s) in reach
                        for s in x)]
    return Graph(GraphClass.DAG, dag.nodes, frozenset(edges))


def test_dense_dag_with_every_allowed_node():
    g = random_dag(random.Random(28), 28, 0.5)
    verdicts = []
    for x_node, y_node in itertools.permutations(g.nodes, 2):
        x, y = frozenset([x_node]), frozenset([y_node])
        if y_node not in ca.descendants(g, x) or not ca.parents(g, x):
            continue
        forb = ca.forbidden_set(g, x, y)
        allowed = frozenset(n for n in g.nodes if n not in x | y | forb)
        pbd = _proper_backdoor_dag(g, x, y)
        for z in (allowed, allowed - ca.parents(g, x)):
            v = ca.satisfies_gac(ca.AdjustmentQuery(g, x, y, z))
            assert v.passed == moral_d_separated(pbd, x, y, z)
            if not v.passed:
                assert v.failed_condition == "Cond2"
                _check_witness(g, v.witness, x, z, gac=True)
            verdicts.append(v.passed)
        if len(verdicts) == 12:
            break
    assert len(verdicts) == 12 and True in verdicts and False in verdicts


def test_open_walk_that_is_no_path_raises():
    # N4 -> N1 -- N2 with N4, N2 non-adjacent is no CPDAG: the only open
    # walk from N2 to N4 given N0 passes N1 twice
    g = ca.parse_graph(
        "graph cpdag { N0 N1 N2 N3 N4 N1 -> N0 N3 -> N0 N1 -- N2 N3 -> N1 N4 -> N1 }"
    )
    assert simple_path_search(g, {"N2"}, {"N4"}, {"N0"}) is None
    with pytest.raises(NoPathWitnessError) as info:
        ca.find_open_definite_path(g, {"N2"}, {"N4"}, {"N0"})
    assert info.value.walk == ("N2", "N1", "N0", "N3", "N1", "N4")
