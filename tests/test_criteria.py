import itertools
import random

import pytest

import covadjust as ca
from covadjust.errors import (
    EmptyXOrYError,
    NotDirectedEdgeError,
    SetsNotDisjointError,
    UnknownNodeError,
)
from covadjust.graphs import Edge, Graph, Mark

import oracles
from oracles import (
    class_graphs,
    classify_path,
    cpdag_of,
    directed_pairs,
    enumerate_paths,
    pag_of,
    path_open,
    random_dag,
    small_queries,
)


def gac(g, x, y, z=()):
    return ca.satisfies_gac(ca.AdjustmentQuery(g, frozenset(x), frozenset(y), frozenset(z)))


def forbidden_reference(g, x, y):
    """The forbidden set by raw path enumeration, as a cross-check."""
    on = set()
    for p in enumerate_paths(g, x, y, proper=True, possibly_causal=True):
        on.update(p[1:])
    return ca.possible_descendants(g, on) if on else frozenset()


def amenable_reference(g, x, y):
    for p in enumerate_paths(g, x, y, proper=True, possibly_causal=True):
        tail, head = p[:2]
        if g.mark_at(tail, head) is not Mark.TAIL or not ca.is_visible(g, tail, head):
            return False
    return True


# ---------------------------------------------------------------- visibility

def test_visible_direct_configuration(corpus):
    g = corpus("fig2-left").graph
    assert ca.is_visible(g, "X", "Y")


def test_visible_collider_path_configuration(corpus):
    g = corpus("fig2-right").graph
    assert ca.is_visible(g, "X", "Y")


def test_invisible_edge_in_mag(corpus):
    g = corpus("fig3b").graph
    assert not ca.is_visible(g, "X", "Y")


def test_visible_edges_in_amenable_mag(corpus):
    g = corpus("fig3c").graph
    assert ca.is_visible(g, "X", "Y")
    assert ca.is_visible(g, "X", "V2")


def test_dag_and_cpdag_edges_visible_by_fiat(corpus):
    g = corpus("fig1a").graph
    assert ca.is_visible(g, "X", "Y")


def test_is_visible_requires_directed_edge():
    g = ca.parse_graph("graph mag { X <-> Y  Y -> Z }")
    for x, y in (("X", "Y"), ("Y", "X"), ("Z", "Y"), ("X", "Z")):
        with pytest.raises(NotDirectedEdgeError):
            ca.is_visible(g, x, y)
    for cls in ("dag", "cpdag"):  # no shortcut past the edge check
        with pytest.raises(NotDirectedEdgeError):
            ca.is_visible(ca.parse_graph(f"graph {cls} {{ X -> Y }}"), "Y", "X")
    for x, y in (("X", "Q"), ("Q", "Y")):
        with pytest.raises(UnknownNodeError):
            ca.is_visible(g, x, y)


def test_visible_edges_stay_visible_in_every_member(corpus):
    for name in ("fig2-left", "fig2-right", "fig4a", "fig4b"):
        p = corpus(name).graph
        visible = [(t, h) for t, h in directed_pairs(p) if ca.is_visible(p, t, h)]
        assert visible
        for member in ca.enumerate_mags(p).members:
            for tail, head in visible:
                assert member.mark_at(tail, head) is Mark.TAIL
                assert ca.is_visible(member, tail, head)


# --------------------------------------------------------------- amenability

def test_every_dag_is_amenable():
    rng = random.Random(17)
    for _ in range(20):
        g = random_dag(rng, rng.randint(2, 7), 0.5)
        nodes = list(g.nodes)
        x, y = nodes[0], nodes[-1]
        assert ca.is_amenable(g, {x}, {y})


def test_figure3_amenability(corpus):
    assert not ca.is_amenable(corpus("fig3a").graph, {"X"}, {"Y"})
    assert ca.find_amenability_violation(corpus("fig3a").graph, {"X"}, {"Y"}) == ("X", "Y")
    assert not ca.is_amenable(corpus("fig3b").graph, {"X"}, {"Y"})
    assert ca.find_amenability_violation(corpus("fig3b").graph, {"X"}, {"Y"}) == ("X", "Y")
    assert ca.is_amenable(corpus("fig3c").graph, {"X"}, {"Y"})


def test_figure4_amenability(corpus):
    assert ca.is_amenable(corpus("fig4a").graph, {"X"}, {"Y"})
    assert ca.is_amenable(corpus("fig4b").graph, {"X"}, {"Y"})


def test_amenability_matches_path_enumeration_reference():
    rng = random.Random(23)
    for _ in range(15):
        d = random_dag(rng, rng.randint(3, 5), 0.5)
        observed = [n for n in d.nodes if rng.random() < 0.8] or list(d.nodes[:2])
        m = ca.latent_project(d, observed)
        p = pag_of(m)
        nodes = list(p.nodes)
        if len(nodes) < 2:
            continue
        for x, y, _ in small_queries(nodes, max_xy=2, max_z=0):
            assert ca.is_amenable(p, x, y) == amenable_reference(p, x, y)


# -------------------------------------------------------------- forbidden set

def test_forbidden_figure1a(corpus):
    assert ca.forbidden_set(corpus("fig1a").graph, {"X"}, {"Y"}) == {"Y"}


def test_forbidden_figure4(corpus):
    assert ca.forbidden_set(corpus("fig4a").graph, {"X"}, {"Y"}) == {"V4", "Y"}
    assert ca.forbidden_set(corpus("fig4b").graph, {"X"}, {"Y"}) == {"V4", "Y"}


def test_forbidden_contains_reachable_y_nodes(corpus):
    g = corpus("fig5b").graph
    forb = ca.forbidden_set(g, {"X1", "X2"}, {"Y"})
    assert "Y" in forb


def test_forbidden_matches_path_enumeration_reference():
    rng = random.Random(29)
    for _ in range(20):
        c = cpdag_of(random_dag(rng, rng.randint(3, 6), 0.4))
        for x, y, _ in small_queries(c.nodes, max_xy=2, max_z=0):
            assert ca.forbidden_set(c, x, y) == forbidden_reference(c, x, y)


def test_forbidden_of_member_subset_of_representative(corpus):
    for name in ("fig1a", "fig5a"):
        c = corpus(name).graph
        x = frozenset({"X"} if "X" in c.nodes else {"X1", "X2"})
        for member in ca.enumerate_dags(c).members:
            assert ca.forbidden_set(member, x, {"Y"}) <= ca.forbidden_set(c, x, {"Y"})
    for name in ("fig4a", "fig4b", "fig5b"):
        p = corpus(name).graph
        x = frozenset({"X"} if "X" in p.nodes else {"X1", "X2"})
        for member in ca.enumerate_mags(p).members:
            assert ca.forbidden_set(member, x, {"Y"}) <= ca.forbidden_set(p, x, {"Y"})


# ------------------------------------------------------------------ the GAC

def test_gac_figure1a_passes(corpus):
    verdict = gac(corpus("fig1a").graph, {"X"}, {"Y"}, {"Z", "A"})
    assert verdict.passed and verdict.failed_condition is None and bool(verdict)


def test_gac_figure4b_never_passes(corpus):
    g = corpus("fig4b").graph
    rest = [n for n in g.nodes if n not in ("X", "Y")]
    for r in range(len(rest) + 1):
        for z in itertools.combinations(rest, r):
            verdict = gac(g, {"X"}, {"Y"}, z)
            assert not verdict.passed
            assert verdict.failed_condition in ("Cond1", "Cond2")


def test_gac_figure3c_empty_set(corpus):
    assert gac(corpus("fig3c").graph, {"X"}, {"Y"}, set()).passed


def test_gac_first_failure_is_cond0(corpus):
    verdict = gac(corpus("fig3a").graph, {"X"}, {"Y"}, {"V1"})
    assert verdict.failed_condition == "Cond0"
    assert verdict.witness == ("X", "Y")


def test_gac_cond1_witness_is_forbidden_node(corpus):
    g = corpus("fig4a").graph
    verdict = gac(g, {"X"}, {"Y"}, {"V3", "V4"})
    assert verdict.failed_condition == "Cond1"
    assert verdict.witness == "V4"


def test_gac_cond2_witness_is_open_path(corpus):
    g = corpus("fig4a").graph
    verdict = gac(g, {"X"}, {"Y"}, set())
    assert verdict.failed_condition == "Cond2"
    kind = classify_path(g, verdict.witness, {"X"})
    assert kind.proper_wrt_x and kind.definite_status and not kind.possibly_causal
    assert path_open(g, verdict.witness, set())


def test_gac_cond1_iff_z_meets_forbidden():
    rng = random.Random(31)
    for _ in range(15):
        c = cpdag_of(random_dag(rng, rng.randint(3, 5), 0.5))
        for x, y, z in small_queries(c.nodes, max_xy=1):
            verdict = gac(c, x, y, z)
            forb = ca.forbidden_set(c, x, y)
            if not ca.is_amenable(c, x, y):
                continue
            assert (verdict.failed_condition == "Cond1") == bool(
                z & forb and verdict.failed_condition != "Cond0"
            )


def test_query_validation():
    g = ca.parse_graph("graph dag { X -> Y }")
    with pytest.raises(SetsNotDisjointError):
        ca.AdjustmentQuery(g, frozenset({"X"}), frozenset({"Y"}), frozenset({"X"}))
    with pytest.raises(EmptyXOrYError):
        ca.AdjustmentQuery(g, frozenset(), frozenset({"Y"}))


# ------------------------------------------------- the DAG/MAG criterion (AC)
# In a DAG or MAG the GAC is the AC; `oracles.satisfies_ac` decides the
# AC from the edge-object closures and the simple-path search.

def test_ac_classic_backdoor():
    g = ca.parse_graph("graph dag { C -> X C -> Y X -> Y }")
    assert gac(g, {"X"}, {"Y"}, {"C"}).passed
    assert oracles.satisfies_ac(g, {"X"}, {"Y"}, {"C"}).passed
    verdict = gac(g, {"X"}, {"Y"}, set())
    assert verdict.failed_condition == "Cond2"
    assert verdict.witness == ("X", "C", "Y")
    assert oracles.satisfies_ac(g, {"X"}, {"Y"}, set()) == verdict


def test_ac_figure3b_not_amenable(corpus):
    g = corpus("fig3b").graph
    for z in [set(), {"V1"}, {"V2"}, {"V1", "V2"}]:
        assert gac(g, {"X"}, {"Y"}, z).failed_condition == "Cond0"
        assert oracles.satisfies_ac(g, {"X"}, {"Y"}, z).failed_condition == "Cond0"


def test_gac_equals_ac_on_dags_and_mags():
    rng = random.Random(37)
    for _ in range(15):
        d = random_dag(rng, rng.randint(3, 6), 0.45)
        for x, y, z in small_queries(d.nodes, max_xy=2, max_z=2):
            assert gac(d, x, y, z).passed == oracles.satisfies_ac(d, x, y, z).passed
    for _ in range(10):
        d = random_dag(rng, rng.randint(3, 6), 0.5)
        observed = [n for n in d.nodes if rng.random() < 0.75] or list(d.nodes[:2])
        m = ca.latent_project(d, observed)
        if len(m.nodes) < 2:
            continue
        for x, y, z in small_queries(m.nodes, max_xy=2, max_z=2):
            assert gac(m, x, y, z).passed == oracles.satisfies_ac(m, x, y, z).passed


# ------------------------------------------------- generalized back-door

def test_backdoor_classic_dag():
    g = ca.parse_graph("graph dag { C -> X C -> Y X -> Y }")
    assert ca.satisfies_generalized_backdoor(g, {"X"}, {"Y"}, {"C"}).passed
    assert not ca.satisfies_generalized_backdoor(g, {"X"}, {"Y"}, set()).passed


def test_backdoor_fails_everywhere_on_figure5(corpus):
    for name in ("fig5a", "fig5b"):
        g = corpus(name).graph
        rest = [n for n in g.nodes if n not in ("X1", "X2", "Y")]
        for r in range(len(rest) + 1):
            for z in itertools.combinations(rest, r):
                assert not ca.satisfies_generalized_backdoor(
                    g, {"X1", "X2"}, {"Y"}, frozenset(z)
                ).passed


def test_gac_passes_where_backdoor_cannot(corpus):
    assert gac(corpus("fig5a").graph, {"X1", "X2"}, {"Y"}, {"V1", "V2"}).passed
    assert gac(corpus("fig5b").graph, {"X1", "X2"}, {"Y"}, {"V1", "V2"}).passed


def test_backdoor_implies_gac():
    rng = random.Random(41)
    for _ in range(15):
        c = cpdag_of(random_dag(rng, rng.randint(3, 6), 0.4))
        for x, y, z in small_queries(c.nodes, max_xy=1, max_z=2):
            if ca.satisfies_generalized_backdoor(c, x, y, z).passed:
                assert gac(c, x, y, z).passed


# ------------------------------------------------------------- enumeration

def test_list_figure1a(corpus):
    sets = ca.list_adjustment_sets(corpus("fig1a").graph, {"X"}, {"Y"})
    assert {frozenset(s) for s in sets} == {
        frozenset({"Z", "A"}),
        frozenset({"Z", "B"}),
        frozenset({"Z", "A", "I"}),
        frozenset({"Z", "B", "I"}),
        frozenset({"Z", "A", "B"}),
        frozenset({"Z", "A", "B", "I"}),
    }


def test_list_minimal_and_max_size(corpus):
    g = corpus("fig1a").graph
    minimal = ca.list_adjustment_sets(g, {"X"}, {"Y"}, minimal_only=True)
    assert {frozenset(s) for s in minimal} == {frozenset({"Z", "A"}), frozenset({"Z", "B"})}
    capped = ca.list_adjustment_sets(g, {"X"}, {"Y"}, max_size=2)
    assert {frozenset(s) for s in capped} == {frozenset({"Z", "A"}), frozenset({"Z", "B"})}
    assert ca.list_adjustment_sets(g, {"X"}, {"Y"}, max_size=0) == []


@pytest.mark.parametrize("max_size", [-1, -5])
def test_list_rejects_negative_max_size(corpus, max_size):
    # a negative size bound would list nothing: a silent empty answer
    g = corpus("fig1a").graph
    with pytest.raises(ValueError, match="max_size"):
        ca.list_adjustment_sets(g, {"X"}, {"Y"}, max_size=max_size)


def test_list_figure4(corpus):
    sets_a = ca.list_adjustment_sets(corpus("fig4a").graph, {"X"}, {"Y"})
    assert {frozenset(s) for s in sets_a} == {
        frozenset({"V3"}),
        frozenset({"V1", "V3"}),
        frozenset({"V2", "V3"}),
        frozenset({"V1", "V2", "V3"}),
    }
    assert ca.list_adjustment_sets(corpus("fig4b").graph, {"X"}, {"Y"}) == []


def test_list_figure5b(corpus):
    sets = ca.list_adjustment_sets(corpus("fig5b").graph, {"X1", "X2"}, {"Y"})
    assert {frozenset(s) for s in sets} == {
        frozenset({"V1", "V2"}),
        frozenset({"V1", "V2", "V3"}),
        frozenset({"V1", "V2", "V4"}),
        frozenset({"V1", "V2", "V3", "V4"}),
    }


def test_list_empty_when_not_amenable(corpus):
    assert ca.list_adjustment_sets(corpus("fig3a").graph, {"X"}, {"Y"}) == []


def test_list_results_ordered_by_size_then_node_order(corpus):
    sets = ca.list_adjustment_sets(corpus("fig1a").graph, {"X"}, {"Y"})
    sizes = [len(s) for s in sets]
    assert sizes == sorted(sizes)


def test_list_agrees_with_per_set_checks():
    rng = random.Random(43)
    for _ in range(10):
        c = cpdag_of(random_dag(rng, rng.randint(3, 5), 0.45))
        nodes = list(c.nodes)
        x, y = frozenset({nodes[0]}), frozenset({nodes[-1]})
        listed = {frozenset(s) for s in ca.list_adjustment_sets(c, x, y)}
        rest = [n for n in nodes if n not in x | y]
        brute = set()
        for r in range(len(rest) + 1):
            for z in itertools.combinations(rest, r):
                if gac(c, x, y, frozenset(z)).passed:
                    brute.add(frozenset(z))
        assert listed == brute


def test_possibly_directed_closure_computed_once_per_decision(corpus, monkeypatch):
    from covadjust import criteria

    calls = []
    closure = criteria._possibly_directed_reach_to

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return closure(*args, **kwargs)

    monkeypatch.setattr(criteria, "_possibly_directed_reach_to", counted)
    cases = [
        ("fig3a", {"X"}, {"Y"}, set(), "Cond0"),
        ("fig4a", {"X"}, {"Y"}, {"V4"}, "Cond1"),
        ("fig4a", {"X"}, {"Y"}, {"V1"}, "Cond2"),
        ("fig4a", {"X"}, {"Y"}, {"V3"}, None),
        ("fig5a", {"X1", "X2"}, {"Y"}, {"V1", "V2"}, None),
    ]
    for name, x, y, z, failed in cases:
        g = corpus(name).graph
        calls.clear()
        verdict = gac(g, x, y, z)
        assert verdict.failed_condition == failed, name
        assert len(calls) == 1, name
        calls.clear()
        ca.list_adjustment_sets(g, x, y)
        assert len(calls) == 1, name


# ------------------------------------------------------ names and node order


@pytest.mark.parametrize("cls,count", [("dag", 30), ("cpdag", 20), ("mag", 25), ("pag", 12)])
def test_decisions_ignore_names_and_declaration_order(cls, count):
    """Renaming the nodes and permuting their declaration order changes no
    verdict, amenability, forbidden set or set of listed adjustment sets."""
    rng = random.Random(f"rename-{cls}")
    pool = [f"{a}{b}" for a in "PQRSTUVW_" for b in ("", "0", "x", "_9")]
    outcomes = set()
    for g in class_graphs(cls, 1, count):
        rename = dict(zip(g.nodes, rng.sample(pool, len(g.nodes))))
        order = list(g.nodes)
        rng.shuffle(order)
        h = Graph(g.graph_class, tuple(rename[v] for v in order),
                  frozenset(Edge(rename[e.a], rename[e.b], e.mark_a, e.mark_b) for e in g.edges))

        def moved(nodes):
            return frozenset(rename[v] for v in nodes)

        for _ in range(6):
            names = list(g.nodes)
            rng.shuffle(names)
            k = 2 if len(names) > 3 and rng.random() < 0.3 else 1
            x, y = frozenset(names[:k]), frozenset(names[k:k + 1])
            z = frozenset(v for v in names[k + 1:] if rng.random() < 0.4)
            v = gac(g, x, y, z)
            w = gac(h, moved(x), moved(y), moved(z))
            assert (v.passed, v.failed_condition) == (w.passed, w.failed_condition)
            outcomes.add(v.failed_condition)
            assert ca.is_amenable(g, x, y) == ca.is_amenable(h, moved(x), moved(y))
            assert moved(ca.forbidden_set(g, x, y)) == ca.forbidden_set(h, moved(x), moved(y))
            assert ({moved(s) for s in ca.list_adjustment_sets(g, x, y)}
                    == set(ca.list_adjustment_sets(h, moved(x), moved(y))))
    assert len(outcomes) >= 3
