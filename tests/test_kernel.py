"""The mark table and the closure kernel against the edge objects.

Every search reads marks from `Graph._marks` and every closure runs on
`kernel._reach`, a fixpoint over the one-step masks of `Graph._steps`.
Here the table is compared with the edge objects, each closure with the
edge-object loop it replaced (kept in `oracles`), the
ancestral-separator forms of `require_maximal` and `latent_project` with
their subset searches, the visibility table with the collider-path
search, and a counting guard checks that the decisions never go back
through the edge objects, build each step table once and fill each
node's visibility entry once.
"""

import collections
import functools
import itertools
import json
import pickle
import random
import sys
import threading

import pytest

import covadjust as ca
from covadjust import criteria, graphs, mec
from covadjust.cli import run_command
from covadjust.errors import (
    AlmostDirectedCycleError,
    DirectedCycleError,
    NoPathWitnessError,
    NotDirectedEdgeError,
    NotMaximalError,
    SizeCapExceededError,
    UnknownNodeError,
)
from covadjust.graphs import _ALLOWED_MARKS, Edge, Graph, GraphClass, Mark
from covadjust.kernel import _as_set, _bits, _nodes, _reach, _reach_bits
from covadjust.paths import _open_path, require_maximal

import oracles
from oracles import class_graphs, random_dag

CLASSES = ("dag", "cpdag", "mag", "pag")
GRAPHS = {cls: class_graphs(cls, 1, n) for cls, n in (("dag", 30), ("cpdag", 20), ("mag", 25),
                                                      ("pag", 12))}


def _node_sets(g, rng, count=6):
    """Singletons of every node, then random subsets of one to three nodes."""
    names = list(g.nodes)
    for v in names:
        yield frozenset([v])
    for _ in range(count):
        yield frozenset(rng.sample(names, rng.randint(1, min(3, len(names)))))


@pytest.mark.parametrize("cls", CLASSES)
def test_mark_table_matches_edge_objects(cls):
    for g in GRAPHS[cls]:
        assert set(g._marks) == set(g.nodes)
        for e in g.edges:
            for v, w in ((e.a, e.b), (e.b, e.a)):
                assert g._marks[v][w] is e.mark_at(v)
                assert g.mark_at(v, w) is e.mark_at(v)
                assert g.edge_between(v, w) == e
        assert sum(len(row) for row in g._marks.values()) == 2 * len(g.edges)
        for v, w in itertools.combinations(g.nodes, 2):
            assert (g.edge_between(v, w) is None) == (w not in oracles.edge_table(g)[v])


def test_non_edges_and_unknown_nodes_still_raise():
    g = ca.parse_graph("graph dag { X -> Y Y -> Z }")
    with pytest.raises(UnknownNodeError):
        g.mark_at("X", "Z")
    with pytest.raises(UnknownNodeError):
        _as_set(g, {"X", "Q"})
    with pytest.raises(UnknownNodeError):
        _as_set(g, "Q")
    assert _as_set(g, "X") == frozenset({"X"})
    with pytest.raises(UnknownNodeError):
        ca.parents(g, ["Q"])


@pytest.mark.parametrize("cls", CLASSES)
def test_closures_agree_with_edge_object_loops(cls):
    rng = random.Random(f"closures-{cls}")
    for g in GRAPHS[cls]:
        for s in _node_sets(g, rng):
            assert ca.parents(g, s) == oracles.parents_loop(g, s)
            assert ca.children(g, s) == oracles.children_loop(g, s)
            assert _reach(g, s, directed=True) == oracles.directed_closure(g, s)
            assert _reach(g, s, directed=True, reverse=True) == oracles.directed_closure(
                g, s, reverse=True)
            if cls in ("dag", "mag"):
                assert ca.descendants(g, s) == oracles.directed_closure(g, s)
                assert ca.ancestors(g, s) == oracles.directed_closure(g, s, reverse=True)
            assert ca.possible_descendants(g, s) == oracles.possible_descendants_loop(g, s)
            assert ca.possible_ancestors(g, s) == oracles.possible_ancestors_loop(g, s)
            # the forms the criteria use: proper closures from X, closures to Y avoiding X
            assert _reach(g, s, directed=False, avoid=s) == (
                oracles.possibly_directed_reach_from(g, s))
            assert _reach(g, s, directed=True, avoid=s) == oracles.directed_reach_from(g, s)
            y = frozenset(rng.sample(list(g.nodes), 1))
            assert _nodes(g, criteria._possibly_directed_reach_to(g, y, avoid=s)) == (
                oracles.possibly_directed_reach_to(g, y, s))
            assert _reach(g, y - s, directed=True, reverse=True, avoid=s) == (
                oracles.directed_reach_to(g, y, s))


def _wide_graph(cls, n, rng):
    """A seeded graph of `n` nodes with about three edges per node, each
    drawn from the mark pairs of class `cls` and oriented along a random
    order (tail or circle at the earlier node, arrowhead at the later)."""
    names = tuple(f"N{i}" for i in range(n))
    order = list(names)
    rng.shuffle(order)
    pairs = sorted(_ALLOWED_MARKS[getattr(GraphClass, cls.upper())], key=str)
    pairs = [(ma, mb) for ma, mb in pairs if ma is not Mark.ARROW or mb is Mark.ARROW]
    edges = [Edge(order[i], order[j], *rng.choice(pairs))
             for i in range(n) for j in range(i + 1, n) if rng.random() < 3.0 / n]
    return Graph(getattr(GraphClass, cls.upper()), names, frozenset(edges))


STEP_KINDS = [(directed, reverse) for directed in (True, False) for reverse in (False, True)]


@pytest.mark.parametrize("cls", CLASSES)
def test_step_kernel_agrees_with_edge_object_closures(cls):
    """Each kind of step, with `avoid` overlapping the seeds, on the class
    graphs and on wide graphs whose masks pass 64 bits."""
    rng = random.Random(f"kernel-{cls}")
    wide = [_wide_graph(cls, n, rng) for n in (70, 200)]
    far = 0  # results holding a node past position 63
    for g in [*GRAPHS[cls], *wide]:
        names = list(g.nodes)
        for _ in range(8):
            seeds = frozenset(rng.sample(names, rng.randint(1, 3)))
            avoid = frozenset(rng.sample(names, rng.randint(0, 3)))
            if rng.random() < 0.5:
                avoid |= {next(iter(seeds))}
            for directed, reverse in STEP_KINDS:
                want = oracles.closure_loop(g, seeds, directed=directed, reverse=reverse,
                                            avoid=avoid)
                assert _reach(g, seeds, directed=directed, reverse=reverse, avoid=avoid) == want
                assert _reach_bits(g, _bits(g, seeds), directed=directed, reverse=reverse,
                                   avoid=_bits(g, avoid)) == _bits(g, want)
                far += _bits(g, want) >> 64 != 0
    assert far >= 10
    for g in wide:
        assert _nodes(g, _bits(g, g.nodes)) == frozenset(g.nodes)


def test_shielded_circle_triple_is_not_of_definite_status():
    # with the edge X o-o Y exempt, the only walk is X o-o V o-o Y; V is
    # a definite non-collider only while X and Y are non-adjacent
    def not_first(start, first):
        return first == "Y"

    shielded = ca.parse_graph("graph pag { X o-o V V o-o Y X o-o Y }")
    exempt = {"X": _bits(shielded, {"Y"})}
    assert _open_path(shielded, frozenset({"X"}), frozenset({"Y"}), frozenset(), exempt) is None
    assert _open_path(shielded, frozenset({"X"}), frozenset({"Y"}), frozenset()) == ("X", "Y")
    assert oracles.simple_path_search(shielded, {"X"}, {"Y"}, set(), skip_first=not_first) is None
    unshielded = ca.parse_graph("graph pag { X o-o V V o-o Y }")
    assert ca.find_open_definite_path(unshielded, {"X"}, {"Y"}, set()) == ("X", "V", "Y")
    assert ca.find_open_definite_path(unshielded, {"X"}, {"Y"}, {"V"}) is None


def _random_ancestral(rng, n, directed=0.3, bidirected=0.6):
    """Directed edges along a random order, each with chance `directed`,
    then bidirected edges, each with chance `bidirected`, between
    non-adjacent pairs of which neither is an ancestor of the other.  Half
    the time four nodes get the inducing path A <-> B <-> C <-> D with
    B -> D and C -> A, which leaves non-adjacent A and D inseparable;
    those graphs are kept only if still ancestral."""
    names = tuple(f"N{i}" for i in range(n))
    order = list(names)
    rng.shuffle(order)
    edges = [Edge.directed(order[i], order[j])
             for i in range(n) for j in range(i + 1, n) if rng.random() < directed]
    dag = Graph(GraphClass.DAG, names, frozenset(edges))
    for a, b in itertools.combinations(names, 2):
        if (dag.adjacent(a, b) or a in ca.ancestors(dag, {b}) or b in ca.ancestors(dag, {a})
                or rng.random() > bidirected):
            continue
        edges.append(Edge.bidirected(a, b))
    if n >= 4 and rng.random() < 0.5:
        a, b, c, d = rng.sample(names, 4)
        gadget = {a, b, c, d}
        edges = [e for e in edges if not {e.a, e.b} <= gadget]
        edges += [Edge.bidirected(a, b), Edge.bidirected(b, c), Edge.bidirected(c, d),
                  Edge.directed(b, d), Edge.directed(c, a)]
    g = Graph(GraphClass.MAG, names, frozenset(edges))
    try:
        graphs.validate_ancestral(g)
    except (DirectedCycleError, AlmostDirectedCycleError):
        return None
    return g


def _random_digraph(rng):
    """A MAG-tagged graph of 2 to 30 nodes, built without its class check:
    directed edges along a random order, some of them reversed (so more
    than a quarter of the graphs are cyclic), and bidirected edges on a
    few non-adjacent pairs."""
    n = rng.randint(2, 30)
    names = tuple(f"N{i}" for i in range(n))
    order = rng.sample(names, n)
    p, flip = rng.uniform(0.05, 0.3), rng.choice((0.0, 0.15, 0.4))
    edges = [Edge.directed(*((b, a) if rng.random() < flip else (a, b)))
             for i, a in enumerate(order) for b in order[i + 1:] if rng.random() < p]
    pairs = {frozenset((e.a, e.b)) for e in edges}
    edges += [Edge.bidirected(a, b) for a, b in itertools.combinations(names, 2)
              if frozenset((a, b)) not in pairs and rng.random() < 0.02]
    return Graph(GraphClass.MAG, names, frozenset(edges))


def test_cycles_and_sinks_first_order_agree_with_the_depth_first_search():
    """`_find_directed_cycle` gives the cycle of the depth-first search it
    replaced (`oracles.directed_cycle`), `Graph._sinks_first` orders every child
    before its parents and holds every node iff there is no cycle, and on
    the acyclic graphs `_find_almost_directed_cycle` gives the oracle's."""
    rng = random.Random("digraphs")
    seen = collections.Counter()
    for _ in range(1200):
        g = _random_digraph(rng)
        cycle = graphs._find_directed_cycle(g)
        assert cycle == oracles.directed_cycle(g), ca.serialize_graph(g)
        order = g._sinks_first
        place = {g.nodes[i]: k for k, i in enumerate(order)}
        assert (len(order) == len(g.nodes)) == (cycle is None)
        for tail, head in oracles.directed_pairs(g):
            if tail in place:
                assert head in place and place[head] < place[tail]
        seen["cyclic" if cycle else "acyclic"] += 1
        if cycle is None:
            almost = graphs._find_almost_directed_cycle(g)
            assert almost == oracles.almost_directed_cycle(g), ca.serialize_graph(g)
            seen["almost"] += almost is not None
    assert seen["cyclic"] >= 300 and seen["acyclic"] >= 300 and seen["almost"] >= 100, seen


def _maximality(check, g):
    try:
        check(g)
    except NotMaximalError as exc:
        return exc.pair
    return None


def test_require_maximal_agrees_with_subset_search():
    rng = random.Random(11)
    outcomes = []
    for _ in range(400):
        g = _random_ancestral(rng, rng.randint(3, 7))
        if g is None:
            continue
        got = _maximality(require_maximal, g)
        assert got == _maximality(oracles.require_maximal_subsets, g)
        outcomes.append(got is None)
    assert outcomes.count(True) >= 100 and outcomes.count(False) >= 100


def test_pruned_maximality_search_agrees_with_every_pair_search():
    """`require_maximal` searches only the pairs a collider walk joins; on
    sparse ancestral graphs of 8 to 60 nodes it raises the pair the search
    of every non-adjacent pair (`oracles.require_maximal_every_pair`)
    raises, or passes where that passes."""
    rng = random.Random("pruned-maximality")
    outcomes = collections.Counter()
    for _ in range(320):
        n = rng.randint(8, 60)
        g = _random_ancestral(rng, n, rng.uniform(1, 3) / n, rng.uniform(0.5, 4) / n)
        if g is None:
            continue
        got = _maximality(require_maximal, g)
        assert got == _maximality(oracles.require_maximal_every_pair, g), ca.serialize_graph(g)
        outcomes["maximal" if got is None else "non-maximal"] += 1
    assert outcomes["non-maximal"] >= 100 and outcomes["maximal"] >= 100, outcomes


def test_latent_project_agrees_with_subset_search():
    rng = random.Random(12)
    bidirected = 0
    for _ in range(200):
        d = random_dag(rng, rng.randint(4, 8), 0.4)
        observed = [v for v in d.nodes if rng.random() < 0.7]
        if len(observed) < 2:
            continue
        mag = ca.latent_project(d, observed)
        assert mag == oracles.latent_project_subsets(d, observed)
        bidirected += sum(e.is_bidirected() for e in mag.edges)
    assert bidirected >= 10


def _chain(graph_class, make, n, *extra):
    """Nodes N0..N(n-1) joined in a chain by `make(a, b)` edges, plus `extra`."""
    names = tuple(f"N{i}" for i in range(n))
    edges = [make(a, b) for a, b in zip(names, names[1:])]
    return Graph(graph_class, names, frozenset([*edges, *extra]))


# One over each fixed cap: 13 nodes, 21 undirected edges, and 8 o-o edges
# closed into a cycle by one o-> edge (17 circle marks).
CAP_CASES = [
    ("fingerprint_nodes", 12, 13,
     lambda: ca.separation_fingerprint(Graph(GraphClass.DAG, tuple(f"N{i}" for i in range(13)),
                                             frozenset()))),
    ("undirected_edges", 20, 21,
     lambda: ca.enumerate_dags(_chain(GraphClass.CPDAG, Edge.undirected, 22))),
    ("circle_marks", 16, 17,
     lambda: ca.enumerate_mags(_chain(GraphClass.PAG, Edge.undirected, 9,
                                      Edge.partial("N0", "N8")))),
]


@pytest.mark.parametrize("cap,limit,required,call", CAP_CASES, ids=[c[0] for c in CAP_CASES])
def test_cap_errors_carry_the_cap(cap, limit, required, call, monkeypatch):
    def enumerating(*args):
        raise AssertionError("enumeration started before the cap was checked")

    # every candidate member is a `mec.Graph`, every fingerprint entry an `_open_walk`
    monkeypatch.setattr(mec, "Graph", enumerating)
    monkeypatch.setattr(mec, "_open_walk", enumerating)
    with pytest.raises(SizeCapExceededError) as info:
        call()
    assert (info.value.cap, info.value.limit, info.value.required) == (cap, limit, required)


def test_latent_project_has_no_node_cap(tmp_path, capsys):
    chain = [f"N{i}" for i in range(41)]
    d = Graph(GraphClass.DAG, tuple(chain),
              frozenset(Edge.directed(a, b) for a, b in zip(chain, chain[1:])))
    observed = chain[::2]
    pairs = list(zip(observed, observed[1:]))
    assert ca.latent_project(d, observed).edges == {Edge.directed(a, b) for a, b in pairs}
    f = tmp_path / "chain.cg"
    f.write_text(ca.serialize_graph(d))
    assert run_command(["project", "--graph", str(f), "--observed", ",".join(observed)]) == 0
    edges = json.loads(capsys.readouterr().out)["result"]["edges"]
    assert edges == [f"{a} -> {b}" for a, b in pairs]


def _visibility_graphs(cls):
    """Seeded graphs of class `cls`: small class graphs, a MAG projected
    from an 80-node DAG, and wide graphs of 70, 120 and 200 nodes (visibility
    is a local definition, so the wide graphs need not be in their class)."""
    rng = random.Random(f"visibility-{cls}")
    out = [*class_graphs(cls, 3, 20), *(_wide_graph(cls, n, rng) for n in (70, 120, 200))]
    if cls == "mag":
        d = random_dag(rng, 80, 0.03)
        out.append(ca.latent_project(d, [v for v in d.nodes if rng.random() < 0.85]))
    return out


def _fresh(g):
    """The same graph with no cache built."""
    return Graph(g.graph_class, g.nodes, g.edges)


def _visible_masks(g):
    """Per node position, the mask of the heads of the node's visible
    out-edges by the brute-force search, and every directed edge's answer."""
    index = g.node_index
    want = {(t, h): oracles.is_visible_dfs(g, Edge.directed(t, h))
            for t, h in sorted(oracles.directed_pairs(g))}
    masks = [0] * len(g.nodes)
    for (t, h), visible in want.items():
        masks[index[t]] |= visible << index[h]
    return masks, want


@pytest.mark.parametrize("cls", CLASSES)
def test_visibility_memo_agrees_with_collider_path_dfs(cls):
    """`is_visible` on every directed edge against the brute-force search,
    and the visibility table `Graph._visible_tails` behind it.  In a MAG
    or PAG an entry is None until its node is first asked about, and from
    then on the mask of all the node's visible out-edges, cold and warm;
    on a fresh copy of the graph, decisions fill entries with the same
    masks.  A DAG or CPDAG keeps no table.  The node and edge checks
    still raise on a graph whose table is filled."""
    rng = random.Random(f"memo-{cls}")
    table_class = cls in ("mag", "pag")
    sizes, answers, filled = [], [], 0
    for g in _visibility_graphs(cls):
        sizes.append(len(g.nodes))
        index = g.node_index
        masks, want = _visible_masks(g)
        edges = list(want)
        cold = _fresh(g)
        asked = set()
        for t, h in edges:  # cold: each node's first ask fills its entry
            if table_class:
                table = cold._visible_tails
                assert all(table[i] is None for i in range(len(g.nodes)) if i not in asked)
            assert ca.is_visible(cold, t, h) == want[t, h]
            asked.add(index[t])
            if table_class:
                assert cold._visible_tails[index[t]] == masks[index[t]]
        assert {(t, h): ca.is_visible(cold, t, h) for t, h in edges} == want  # warm
        answers += want.values()
        filled_g = _fresh(g)
        tails = sorted({t for t, _ in edges}, key=index.__getitem__)
        for x in rng.sample(tails, min(20, len(tails))):
            below = sorted(ca.possible_descendants(g, {x}) - {x}, key=index.__getitem__)
            y = rng.choice(below)
            ca.find_amenability_violation(filled_g, {x}, {y})
            try:
                ca.satisfies_generalized_backdoor(filled_g, {x}, {y}, set())
            except NoPathWitnessError:
                pass  # a walk that is no path: the wide graphs are outside their class
        table = filled_g.__dict__.get("_visible_tails")
        if table_class:
            table = table or [None] * len(g.nodes)  # no directed edge, nothing asked
            assert all(entry in (None, mask) for entry, mask in zip(table, masks))
            filled += sum(entry is not None for entry in table)
        else:
            assert table is None and "_visible_tails" not in cold.__dict__
        assert {(t, h): ca.is_visible(filled_g, t, h) for t, h in edges} == want
        # a cache: equality, hashing and pickling ignore it
        assert filled_g == _fresh(g) and hash(filled_g) == hash(_fresh(g))
        assert "_visible_tails" not in pickle.loads(pickle.dumps(filled_g)).__dict__
        with pytest.raises(UnknownNodeError):
            ca.is_visible(filled_g, g.nodes[0], "no such node")
        for t, h in edges[:3]:
            with pytest.raises(NotDirectedEdgeError):
                ca.is_visible(filled_g, h, t)
            far = next((v for v in g.nodes if v != t and v not in g._marks[t]), None)
            if far is not None:
                with pytest.raises(NotDirectedEdgeError):
                    ca.is_visible(filled_g, t, far)
    assert max(sizes) >= 70
    if table_class:
        assert answers.count(True) >= 50 and answers.count(False) >= 50
        assert filled >= 50
    else:
        assert all(answers)


def test_visibility_memo_under_concurrent_readers():
    """Threads asking every edge of one fresh graph at once, switching
    often: a lost or doubled store may repeat a fill, never change an
    answer or an entry."""
    rng = random.Random("memo-threads")
    g = _wide_graph("mag", 120, rng)
    masks, want = _visible_masks(g)
    edges = list(want)
    orders = [rng.sample(edges, len(edges)) for _ in range(8)]
    got = [None] * len(orders)

    def ask(i):
        got[i] = {(t, h): ca.is_visible(g, t, h) for t, h in orders[i]}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=ask, args=(i,)) for i in range(len(orders))]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert got == [want] * len(orders)
    tails = {g.node_index[t] for t, _ in edges}
    assert g._visible_tails == [m if i in tails else None for i, m in enumerate(masks)]


# ------------------------------------------------------------ hot-path guard


def _guard_graph(cls):
    """A 25-node graph of class `cls`, the disjoint union of seeded class
    graphs (again a graph of the class), and the node lists of its pieces."""
    pieces, edges = [], []
    for i, piece in enumerate(class_graphs(cls, 2, 6)):
        rename = {v: f"P{i}{v}" for v in piece.nodes}
        pieces.append([rename[v] for v in piece.nodes])
        edges += [Edge(rename[e.a], rename[e.b], e.mark_a, e.mark_b) for e in piece.edges]
        if sum(map(len, pieces)) >= 25:
            break
    nodes = tuple(v for piece in pieces for v in piece)
    return Graph(getattr(GraphClass, cls.upper()), nodes, frozenset(edges)), pieces


def test_decisions_read_the_mark_table_only(monkeypatch):
    cases = [(cls, *_guard_graph(cls)) for cls in CLASSES]
    counts = {"mark_at": 0, "neighbors": 0, "sort_nodes": 0, "edge_between": 0, "Edge": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(graphs.Edge, "mark_at", counted("mark_at", graphs.Edge.mark_at))
    monkeypatch.setattr(graphs.Graph, "neighbors", counted("neighbors", graphs.Graph.neighbors))
    monkeypatch.setattr(graphs.Graph, "sort_nodes", counted("sort_nodes", graphs.Graph.sort_nodes))
    monkeypatch.setattr(graphs.Graph, "edge_between",
                        counted("edge_between", graphs.Graph.edge_between))
    monkeypatch.setattr(graphs.Edge, "__init__", counted("Edge", graphs.Edge.__init__))
    built = []  # the graphs whose step table was built
    build = graphs.Graph.__dict__["_steps"].func
    steps = functools.cached_property(lambda g: built.append(g) or build(g))
    steps.__set_name__(graphs.Graph, "_steps")
    monkeypatch.setattr(graphs.Graph, "_steps", steps)
    searched = collections.Counter()  # (graph, position) -> fills of its visibility entry
    fill = criteria._visible_heads
    monkeypatch.setattr(criteria, "_visible_heads",
                        lambda g, i: searched.update([(id(g), i)]) or fill(g, i))
    rng = random.Random(25)
    decisions = 0
    failed = set()
    for cls, g, pieces in cases:
        assert len(g.nodes) >= 25
        for _ in range(20):
            # X and Y in one piece, so that paths join them
            piece = list(rng.choice(pieces))
            rng.shuffle(piece)
            k = 2 if len(piece) > 4 and rng.random() < 0.3 else 1
            x, y = frozenset(piece[:k]), frozenset(piece[k:k + 1])
            z = frozenset(v for v in g.nodes if v not in x | y and rng.random() < 0.3)
            ca.find_amenability_violation(g, x, y)
            forb = ca.forbidden_set(g, x, y)
            verdict = ca.satisfies_gac(ca.AdjustmentQuery(g, x, y, z - forb))
            failed.add((cls, verdict.failed_condition))
            ca.satisfies_generalized_backdoor(g, x, y, z - ca.possible_descendants(g, x))
            decisions += 4
            for closure in (ca.parents, ca.children, ca.possible_ancestors):
                closure(g, y)
    assert counts["mark_at"] == 0
    assert counts["neighbors"] == 0
    assert counts["edge_between"] == 0
    assert counts["Edge"] == 0
    assert counts["sort_nodes"] <= 2 * decisions
    assert built == [g for _, g, _ in cases]  # once per graph, not once per decision
    assert searched and max(searched.values()) == 1  # once per node, not once per ask
    assert all((cls, "Cond2") in failed for cls in CLASSES)
