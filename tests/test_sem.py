import random

import numpy as np
import pytest

import covadjust as ca
from covadjust.errors import (
    ClassMismatchError,
    NotAmenableError,
    SetsNotDisjointError,
    SingularDesignError,
)
from covadjust.graphs import Edge, GraphClass
from covadjust.sem import COMPLETENESS_GAP, SOUNDNESS_TOL

from oracles import path_sum_total_effect, random_dag


def dag(*edge_pairs, nodes=None):
    edges = [Edge.directed(a, b) for a, b in edge_pairs]
    if nodes is None:
        nodes = []
        for a, b in edge_pairs:
            for n in (a, b):
                if n not in nodes:
                    nodes.append(n)
    return ca.build_graph(GraphClass.DAG, nodes, edges)


def test_random_sem_is_seed_deterministic():
    g = dag(("X", "Y"), ("Y", "Z"), ("X", "Z"))
    a = ca.random_sem(g, 123)
    b = ca.random_sem(g, 123)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert np.array_equal(a.noise_var, b.noise_var)
    c = ca.random_sem(g, 124)
    assert not np.array_equal(a.coeffs, c.coeffs)


def test_random_sem_ranges():
    g = dag(("X", "Y"))
    for seed in range(30):
        sem = ca.random_sem(g, seed)
        b = sem.coeffs[g.node_index["X"], g.node_index["Y"]]
        assert 0.1 <= abs(b) <= 1.5
        assert np.all(sem.noise_var >= 0.5) and np.all(sem.noise_var <= 1.5)


def test_random_sem_on_edgeless_dag_is_all_zero():
    g = ca.build_graph(GraphClass.DAG, ["A", "B"], [])
    sem = ca.random_sem(g, 0)
    assert not sem.coeffs.any()


def test_sem_rejects_off_edge_coefficients():
    g = dag(("X", "Y"))
    bad = np.zeros((2, 2))
    bad[g.node_index["Y"], g.node_index["X"]] = 0.5  # against the edge
    with pytest.raises(ValueError):
        ca.LinearSEM(g, bad, np.ones(2))
    with pytest.raises(ClassMismatchError):
        ca.LinearSEM(ca.parse_graph("graph mag { X <-> Y }"), np.zeros((2, 2)), np.ones(2))


def test_covariance_closed_forms():
    iso = ca.build_graph(GraphClass.DAG, ["A", "B"], [])
    assert np.allclose(ca.covariance(ca.LinearSEM(iso, np.zeros((2, 2)), np.ones(2))), np.eye(2))

    g = dag(("X", "Y"))
    b = 0.7
    coeffs = np.zeros((2, 2))
    coeffs[g.node_index["X"], g.node_index["Y"]] = b
    sigma = ca.covariance(ca.LinearSEM(g, coeffs, np.ones(2)))
    ix, iy = g.node_index["X"], g.node_index["Y"]
    assert sigma[iy, iy] == pytest.approx(1 + b * b)
    assert sigma[ix, iy] == pytest.approx(b)

    chain = dag(("X", "M"), ("M", "Y"))
    coeffs = np.zeros((3, 3))
    coeffs[chain.node_index["X"], chain.node_index["M"]] = 0.6
    coeffs[chain.node_index["M"], chain.node_index["Y"]] = -0.9
    sigma = ca.covariance(ca.LinearSEM(chain, coeffs, np.ones(3)))
    assert sigma[chain.node_index["X"], chain.node_index["Y"]] == pytest.approx(0.6 * -0.9)


def test_covariance_symmetric_positive_definite():
    rng = random.Random(71)
    for _ in range(20):
        g = random_dag(rng, rng.randint(2, 8), 0.5)
        sigma = ca.covariance(ca.random_sem(g, rng.randint(0, 10**6)))
        assert np.max(np.abs(sigma - sigma.T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(sigma)) > 0


def test_total_effect_single_edge_and_two_routes():
    g = dag(("X", "Y"))
    coeffs = np.zeros((2, 2))
    coeffs[g.node_index["X"], g.node_index["Y"]] = 0.4
    sem = ca.LinearSEM(g, coeffs, np.ones(2))
    assert ca.total_effect(sem, {"X"}, "Y") == pytest.approx([0.4])

    g2 = dag(("X", "M"), ("M", "Y"), ("X", "Y"))
    c = np.zeros((3, 3))
    c[g2.node_index["X"], g2.node_index["M"]] = 0.5
    c[g2.node_index["M"], g2.node_index["Y"]] = 0.7
    c[g2.node_index["X"], g2.node_index["Y"]] = -0.2
    sem2 = ca.LinearSEM(g2, c, np.ones(3))
    assert ca.total_effect(sem2, {"X"}, "Y") == pytest.approx([0.5 * 0.7 - 0.2])


def test_total_effect_matches_path_sum_on_random_dags():
    rng = random.Random(73)
    for _ in range(25):
        g = random_dag(rng, rng.randint(3, 8), 0.5)
        sem = ca.random_sem(g, rng.randint(0, 10**6))
        nodes = list(g.nodes)
        y = nodes[-1]
        x = set(rng.sample(nodes[:-1], rng.randint(1, min(2, len(nodes) - 1))))
        lib = ca.total_effect(sem, x, y)
        ref = path_sum_total_effect(sem, x, y)
        assert np.max(np.abs(np.asarray(lib) - np.asarray(ref))) <= 1e-12


def test_total_effect_severs_edges_into_every_intervened_node(corpus):
    # two intervention nodes, one downstream of the other
    members = ca.enumerate_dags(corpus("fig5a").graph).members
    for member in members:
        sem = ca.random_sem(member, 11)
        lib = ca.total_effect(sem, {"X1", "X2"}, "Y")
        ref = path_sum_total_effect(sem, {"X1", "X2"}, "Y")
        assert np.allclose(lib, ref, atol=1e-12)


def test_adjusted_estimate_closed_forms():
    g = dag(("C", "X"), ("C", "Y"), ("X", "Y"))
    idx = g.node_index
    coeffs = np.zeros((3, 3))
    coeffs[idx["C"], idx["X"]] = 0.8
    coeffs[idx["C"], idx["Y"]] = 0.5
    coeffs[idx["X"], idx["Y"]] = 0.3
    sem = ca.LinearSEM(g, coeffs, np.ones(3))
    sigma = ca.covariance(sem)
    biased = ca.adjusted_estimate(sigma, [idx["X"]], idx["Y"])
    assert biased == pytest.approx([0.3 + 0.8 * 0.5 / (1 + 0.8**2)])
    adjusted = ca.adjusted_estimate(sigma, [idx["X"]], idx["Y"], [idx["C"]])
    assert adjusted == pytest.approx([0.3])


def test_adjusted_estimate_zero_sem():
    g = dag(("X", "Y"))
    sem = ca.LinearSEM(g, np.zeros((2, 2)), np.ones(2))
    est = ca.adjusted_estimate(ca.covariance(sem), [g.node_index["X"]], g.node_index["Y"])
    assert est == pytest.approx([0.0])


def test_adjusted_estimate_errors():
    with pytest.raises(SetsNotDisjointError):
        ca.adjusted_estimate(np.eye(3), [0], 0)
    singular = np.array([[1.0, 1.0, 0.3], [1.0, 1.0, 0.3], [0.3, 0.3, 1.0]])
    with pytest.raises(SingularDesignError):
        ca.adjusted_estimate(singular, [0, 1], 2)


def test_verify_adjustment_single_edge_gap_is_zero():
    g = dag(("X", "Y"))
    reports = ca.verify_adjustment(g, {"X"}, "Y", set(), trials=4, seed=5)
    assert len(reports) == 4
    assert all(r.max_abs_gap == 0.0 for r in reports)


def test_verify_adjustment_soundness_on_figure1a(corpus):
    g = corpus("fig1a").graph
    reports = ca.verify_adjustment(g, {"X"}, "Y", {"Z", "A"}, trials=5, seed=3)
    assert len(reports) == 8 * 5
    assert max(r.max_abs_gap for r in reports) <= SOUNDNESS_TOL


def test_verify_adjustment_completeness_on_figure1a(corpus):
    g = corpus("fig1a").graph
    reports = ca.verify_adjustment(g, {"X"}, "Y", set(), trials=5, seed=3)
    assert max(r.max_abs_gap for r in reports) >= COMPLETENESS_GAP


def test_verify_adjustment_is_deterministic(corpus):
    g = corpus("fig5a").graph
    a = ca.verify_adjustment(g, {"X1", "X2"}, "Y", {"V1", "V2"}, trials=3, seed=9)
    b = ca.verify_adjustment(g, {"X1", "X2"}, "Y", {"V1", "V2"}, trials=3, seed=9)
    assert a == b


def test_verify_adjustment_runs_on_mag_and_pag_members(corpus):
    m = corpus("fig3c").graph
    reports = ca.verify_adjustment(m, {"X"}, "Y", set(), trials=3, seed=1)
    assert len(reports) == 3
    assert max(r.max_abs_gap for r in reports) <= SOUNDNESS_TOL
    p = corpus("fig4a").graph
    reports = ca.verify_adjustment(p, {"X"}, "Y", {"V3"}, trials=2, seed=1)
    assert len(reports) == 2 * len(ca.enumerate_mags(p).members)
    assert max(r.max_abs_gap for r in reports) <= SOUNDNESS_TOL


def test_verify_adjustment_refuses_non_amenable_graph(corpus):
    # fig3b: the empty set would look sound on every member's canonical DAG,
    # though no set adjusts because X -> Y is invisible
    g = corpus("fig3b").graph
    with pytest.raises(NotAmenableError) as info:
        ca.verify_adjustment(g, {"X"}, "Y", set(), trials=2, seed=1)
    assert info.value.witness == ("X", "Y")
    assert info.value.witness == ca.find_amenability_violation(g, {"X"}, {"Y"})


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_adjustment_rejects_non_positive_trials(corpus, trials):
    # no trial would make an empty list of reports: a vacuous certificate
    g = corpus("fig1a").graph
    with pytest.raises(ValueError, match="trials"):
        ca.verify_adjustment(g, {"X"}, "Y", {"Z", "A"}, trials=trials, seed=3)
