import random
from fractions import Fraction

import pytest

import covadjust as ca
from covadjust import sem as sem_module
from covadjust.errors import (
    ClassMismatchError,
    DirectedCycleError,
    GraphError,
    NotAmenableError,
    SetsNotDisjointError,
    SingularDesignError,
    UnknownNodeError,
)
from covadjust.graphs import Edge, GraphClass
from covadjust.sem import NOISE_VARIANCES, WEIGHTS, trial_seed

from conftest import run_with_src
from oracles import class_graphs, path_sum_total_effect, random_dag


def dag(*edge_pairs, nodes=None):
    edges = [Edge.directed(a, b) for a, b in edge_pairs]
    if nodes is None:
        nodes = []
        for a, b in edge_pairs:
            for n in (a, b):
                if n not in nodes:
                    nodes.append(n)
    return ca.build_graph(GraphClass.DAG, nodes, edges)


def weights(g, pairs):
    """Coefficient rows with the weight `b` on each (tail, head, b)."""
    n = len(g.nodes)
    rows = [[0] * n for _ in range(n)]
    for tail, head, b in pairs:
        rows[g.node_index[tail]][g.node_index[head]] = b
    return rows


def frac_solve(a, b):
    """Gauss-Jordan over `Fraction`s; None for a singular `a`."""
    k = len(a)
    m = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(a, b)]
    for c in range(k):
        p = next((r for r in range(c, k) if m[r][c]), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        for r in range(k):
            if r != c:
                f = m[r][c] / m[c][c]
                m[r] = [u - f * v for u, v in zip(m[r], m[c])]
    return [m[i][k] / m[i][i] for i in range(k)]


def frac_det(a):
    """Determinant by Gaussian elimination over `Fraction`s."""
    m = [[Fraction(v) for v in row] for row in a]
    det = Fraction(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [u - f * v for u, v in zip(m[r], m[c])]
    return det


def test_random_sem_is_seed_deterministic():
    g = dag(("X", "Y"), ("Y", "Z"), ("X", "Z"))
    a = ca.random_sem(g, 123)
    assert a == ca.random_sem(g, 123)
    assert ca.random_sem(g, "0/1/2") == ca.random_sem(g, "0/1/2")
    assert len({ca.random_sem(g, seed) for seed in range(20)}) > 1


def test_random_sem_is_the_same_under_every_hash_seed():
    # the draw follows the seed alone, never `hash()`, so every process agrees
    code = (
        "import covadjust as ca\n"
        "g = ca.parse_graph('graph dag { A -> B B -> C A -> C D -> C }')\n"
        "print([(sem.coeffs, sem.noise_var) for sem in (ca.random_sem(g, 5),"
        " ca.random_sem(g, '0/3/7'))])"
    )
    outs = {run_with_src("-c", code, PYTHONHASHSEED=h) for h in ("1", "2", "3")}
    assert len(outs) == 1


def test_random_sem_ranges():
    g = dag(("X", "Y"))
    seen, noise_seen = set(), set()
    for seed in range(60):
        sem = ca.random_sem(g, seed)
        b = sem.coeffs[g.node_index["X"]][g.node_index["Y"]]
        assert type(b) is int and b in WEIGHTS
        assert sem.coeffs[g.node_index["Y"]][g.node_index["X"]] == 0
        assert all(type(v) is int and v in NOISE_VARIANCES for v in sem.noise_var)
        seen.add(b)
        noise_seen.update(sem.noise_var)
    assert seen == set(WEIGHTS) and noise_seen == set(NOISE_VARIANCES)


def test_random_sem_on_edgeless_dag_is_all_zero():
    g = ca.build_graph(GraphClass.DAG, ["A", "B"], [])
    sem = ca.random_sem(g, 0)
    assert sem.coeffs == ((0, 0), (0, 0))


def test_sem_rejects_off_edge_coefficients():
    g = dag(("X", "Y"))
    bad = [[0, 0], [0, 0]]
    bad[g.node_index["Y"]][g.node_index["X"]] = 1  # against the edge
    with pytest.raises(ValueError):
        ca.LinearSEM(g, bad, [1, 1])
    with pytest.raises(ClassMismatchError):
        ca.LinearSEM(ca.parse_graph("graph mag { X <-> Y }"), [[0, 0], [0, 0]], [1, 1])
    with pytest.raises(ClassMismatchError):
        ca.random_sem(ca.parse_graph("graph mag { X <-> Y }"), 0)


def test_weights_around_a_cycle_are_refused():
    # a "DAG" built without validation; the weights must not be summed as paths
    g = ca.Graph(GraphClass.DAG, ("A", "B", "C"),
                 frozenset(Edge.directed(a, b) for a, b in ("AB", "BC", "CA")))
    sem = ca.random_sem(g, 1)
    with pytest.raises(DirectedCycleError, match="directed cycle"):
        ca.covariance(sem)
    with pytest.raises(DirectedCycleError):
        ca.total_effect(sem, {"A"}, "C")
    # the graph's cycle is refused even when a weight of 0 breaks it
    idx = g.node_index
    coeffs = [list(row) for row in sem.coeffs]
    coeffs[idx["C"]][idx["A"]] = 0
    with pytest.raises(DirectedCycleError, match="directed cycle"):
        ca.covariance(ca.LinearSEM(g, coeffs, sem.noise_var))


def test_covariance_closed_forms():
    iso = ca.build_graph(GraphClass.DAG, ["A", "B"], [])
    assert ca.covariance(ca.LinearSEM(iso, [[0, 0], [0, 0]], [1, 3])) == ((1, 0), (0, 3))

    g = dag(("X", "Y"))
    sigma = ca.covariance(ca.LinearSEM(g, weights(g, [("X", "Y", 2)]), [3, 1]))
    ix, iy = g.node_index["X"], g.node_index["Y"]
    assert sigma[iy][iy] == 1 + 2 * 2 * 3
    assert sigma[ix][iy] == sigma[iy][ix] == 2 * 3
    assert ca.covariance(ca.LinearSEM(g, weights(g, [("X", "Y", 2)]), [3, 1]), ["Y", "X"]) == (
        (13, 6), (6, 3))

    chain = dag(("X", "M"), ("M", "Y"))
    sem = ca.LinearSEM(chain, weights(chain, [("X", "M", 2), ("M", "Y", -3)]), [1, 1, 1])
    sigma = ca.covariance(sem)
    assert sigma[chain.node_index["X"]][chain.node_index["Y"]] == 2 * -3
    assert ca.covariance(sem, ["X", "Y"]) == ((1, -6), (-6, 1 + 9 * (1 + 4)))
    with pytest.raises(UnknownNodeError):
        ca.covariance(sem, ["X", "Q"])


def test_covariance_symmetric_positive_definite():
    # sigma[a][b] = sum_k noise_k * effect(k -> a) * effect(k -> b), the
    # effects read off the path-sum oracle; every leading minor is positive
    rng = random.Random(71)
    for _ in range(20):
        g = random_dag(rng, rng.randint(2, 8), 0.5)
        sem = ca.random_sem(g, rng.randint(0, 10**6))
        nodes = list(g.nodes)

        def effect(k, a):
            return 1 if k == a else path_sum_total_effect(sem, {k}, a)[0]

        want = tuple(tuple(sum(sem.noise_var[i] * effect(k, a) * effect(k, b)
                               for i, k in enumerate(nodes)) for b in nodes) for a in nodes)
        sigma = ca.covariance(sem)
        assert sigma == want
        assert sigma == tuple(zip(*sigma))
        assert all(type(v) is int for row in sigma for v in row)
        sub = rng.sample(nodes, rng.randint(1, len(nodes)))
        assert ca.covariance(sem, sub) == tuple(
            tuple(sigma[g.node_index[a]][g.node_index[b]] for b in sub) for a in sub)
        # Sylvester's criterion
        assert all(frac_det([row[:k] for row in sigma[:k]]) > 0 for k in range(1, len(nodes) + 1))


def test_total_effect_single_edge_and_two_routes():
    g = dag(("X", "Y"))
    sem = ca.LinearSEM(g, weights(g, [("X", "Y", -2)]), [1, 1])
    assert ca.total_effect(sem, {"X"}, "Y") == (-2,)

    g2 = dag(("X", "M"), ("M", "Y"), ("X", "Y"))
    sem2 = ca.LinearSEM(g2, weights(g2, [("X", "M", 2), ("M", "Y", 3), ("X", "Y", -1)]),
                        [1, 1, 1])
    assert ca.total_effect(sem2, {"X"}, "Y") == (2 * 3 - 1,)


def test_total_effect_matches_path_sum_on_random_dags():
    rng = random.Random(73)
    for _ in range(25):
        g = random_dag(rng, rng.randint(3, 8), 0.5)
        sem = ca.random_sem(g, rng.randint(0, 10**6))
        nodes = list(g.nodes)
        y = nodes[-1]
        x = set(rng.sample(nodes[:-1], rng.randint(1, min(2, len(nodes) - 1))))
        lib = ca.total_effect(sem, x, y)
        assert lib == tuple(path_sum_total_effect(sem, x, y))
        assert all(type(v) is int for v in lib)


def test_total_effect_severs_edges_into_every_intervened_node(corpus):
    # two intervention nodes, one downstream of the other
    members = ca.enumerate_dags(corpus("fig5a").graph).members
    for member in members:
        sem = ca.random_sem(member, 11)
        lib = ca.total_effect(sem, {"X1", "X2"}, "Y")
        assert lib == tuple(path_sum_total_effect(sem, {"X1", "X2"}, "Y"))


def test_adjusted_estimate_closed_forms():
    g = dag(("C", "X"), ("C", "Y"), ("X", "Y"))
    idx = g.node_index
    sem = ca.LinearSEM(g, weights(g, [("C", "X", 2), ("C", "Y", 1), ("X", "Y", 3)]), [1, 1, 1])
    sigma = ca.covariance(sem)
    biased = ca.adjusted_estimate(sigma, [idx["X"]], idx["Y"])
    assert biased == (Fraction(3) + Fraction(2 * 1, 1 + 2 * 2),)
    adjusted = ca.adjusted_estimate(sigma, [idx["X"]], idx["Y"], [idx["C"]])
    assert adjusted == (3,) and type(adjusted[0]) is Fraction


def test_adjusted_estimate_zero_sem():
    g = dag(("X", "Y"))
    sem = ca.LinearSEM(g, [[0, 0], [0, 0]], [1, 1])
    est = ca.adjusted_estimate(ca.covariance(sem), [g.node_index["X"]], g.node_index["Y"])
    assert est == (0,)


def test_adjusted_estimate_pivots_past_a_zero():
    # the first pivot is 0, so the elimination swaps rows: beta = (2, 1)
    sigma = [[0, 1, 1], [1, 0, 2], [1, 2, 5]]
    assert ca.adjusted_estimate(sigma, [0, 1], 2) == (2, 1)
    assert ca.adjusted_estimate(sigma, [1], 2, [0]) == (1,)


def test_adjusted_estimate_agrees_with_a_fraction_solve():
    rng = random.Random(79)
    singular = 0
    for _ in range(800):
        k = rng.randint(1, 5)
        sigma = [[rng.choice((0, 0, -3, -1, 1, 2, 7)) for _ in range(k + 1)] for _ in range(k + 1)]
        order = rng.sample(range(k + 1), k + 1)
        y, w = order[0], order[1:]
        n_x = rng.randint(1, k)
        want = frac_solve([[sigma[a][b] for b in w] for a in w], [sigma[a][y] for a in w])
        if want is None:
            singular += 1
            with pytest.raises(SingularDesignError):
                ca.adjusted_estimate(sigma, w[:n_x], y, w[n_x:])
        else:
            assert list(ca.adjusted_estimate(sigma, w[:n_x], y, w[n_x:])) == want[:n_x]
    assert 50 < singular < 750


def test_adjusted_estimate_errors():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(SetsNotDisjointError):
        ca.adjusted_estimate(eye, [0], 0)
    singular = [[1, 1, 3], [1, 1, 3], [3, 3, 10]]
    with pytest.raises(SingularDesignError):
        ca.adjusted_estimate(singular, [0, 1], 2)
    with pytest.raises(TypeError, match="integer"):
        ca.adjusted_estimate([[1.0, 0.5], [0.5, 1.0]], [0], 1)


def test_verify_adjustment_single_edge_gap_is_zero():
    g = dag(("X", "Y"))
    reports = ca.verify_adjustment(g, {"X"}, "Y", set(), trials=4, seed=5)
    assert len(reports) == 4
    assert all(r.max_abs_gap == 0 for r in reports)
    assert all(r.true_effect == r.adjusted_estimate for r in reports)


def test_verify_adjustment_soundness_on_figure1a(corpus):
    g = corpus("fig1a").graph
    reports = ca.verify_adjustment(g, {"X"}, "Y", {"Z", "A"}, trials=5, seed=3)
    assert len(reports) == 8 * 5
    assert all(r.max_abs_gap == 0 for r in reports)


def test_verify_adjustment_completeness_on_figure1a(corpus):
    g = corpus("fig1a").graph
    reports = ca.verify_adjustment(g, {"X"}, "Y", set(), trials=5, seed=3)
    assert any(r.max_abs_gap != 0 for r in reports)


def test_verify_adjustment_reports_are_exact(corpus):
    # each report is the trial's SEM: integer effects, Fraction estimates
    g = corpus("fig1a").graph
    reports = ca.verify_adjustment(g, {"X"}, "Y", {"I"}, trials=3, seed=8)
    substrates = sem_module._member_substrates(g)
    for r in reports:
        sem = ca.random_sem(substrates[r.member], trial_seed(8, r.member, r.trial))
        assert r.true_effect == ca.total_effect(sem, {"X"}, "Y")
        assert all(type(v) is int for v in r.true_effect)
        assert all(type(v) is Fraction for v in r.adjusted_estimate)
        assert r.max_abs_gap == abs(r.true_effect[0] - r.adjusted_estimate[0])
    assert any(r.max_abs_gap != 0 for r in reports)


def test_verify_adjustment_is_deterministic(corpus):
    g = corpus("fig5a").graph
    a = ca.verify_adjustment(g, {"X1", "X2"}, "Y", {"V1", "V2"}, trials=3, seed=9)
    b = ca.verify_adjustment(g, {"X1", "X2"}, "Y", {"V1", "V2"}, trials=3, seed=9)
    assert a == b
    g = corpus("fig1a").graph
    a = ca.verify_adjustment(g, {"X"}, "Y", {"Z", "A"}, trials=3, seed=9)
    assert a == ca.verify_adjustment(g, {"X"}, "Y", {"Z", "A"}, trials=3, seed=9)
    assert a != ca.verify_adjustment(g, {"X"}, "Y", {"Z", "A"}, trials=3, seed=10)


def test_verify_adjustment_runs_on_mag_and_pag_members(corpus):
    m = corpus("fig3c").graph
    reports = ca.verify_adjustment(m, {"X"}, "Y", set(), trials=3, seed=1)
    assert len(reports) == 3
    assert all(r.max_abs_gap == 0 for r in reports)
    p = corpus("fig4a").graph
    reports = ca.verify_adjustment(p, {"X"}, "Y", {"V3"}, trials=2, seed=1)
    assert len(reports) == 2 * len(ca.enumerate_mags(p).members)
    assert all(r.max_abs_gap == 0 for r in reports)


def test_verify_adjustment_refuses_non_amenable_graph(corpus):
    # fig3b: the empty set would look sound on every member's canonical DAG,
    # though no set adjusts because X -> Y is invisible
    g = corpus("fig3b").graph
    with pytest.raises(NotAmenableError) as info:
        ca.verify_adjustment(g, {"X"}, "Y", set(), trials=2, seed=1)
    assert info.value.witness == ("X", "Y")
    assert info.value.witness == ca.find_amenability_violation(g, {"X"}, {"Y"})


def test_y_is_one_node_or_a_collection_of_one(corpus):
    g = corpus("fig1a").graph
    one = ca.verify_adjustment(g, {"X"}, "Y", {"Z", "A"}, trials=2, seed=3)
    for y in ({"Y"}, ["Y"], frozenset(["Y"]), iter(["Y"])):
        assert ca.verify_adjustment(g, {"X"}, y, {"Z", "A"}, trials=2, seed=3) == one
    sem = ca.random_sem(ca.parse_graph("graph dag { X -> A A -> Y X -> Y }"), 1)
    assert ca.total_effect(sem, {"X"}, {"Y"}) == ca.total_effect(sem, {"X"}, "Y")
    for y in ({"A", "Y"}, ["Y", "Y"]):
        with pytest.raises(GraphError, match="^verify needs a single Y node$"):
            ca.verify_adjustment(g, {"X"}, y, (), trials=2)
        with pytest.raises(GraphError, match="^verify needs a single Y node$"):
            ca.total_effect(sem, {"X"}, y)
    # one check serves both, before any other: trials and unknown nodes come after
    with pytest.raises(GraphError, match="single Y"):
        ca.verify_adjustment(g, {"Q"}, {"A", "R"}, (), trials=0)


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_adjustment_rejects_non_positive_trials(corpus, trials):
    # no trial would make an empty list of reports: a vacuous certificate
    g = corpus("fig1a").graph
    with pytest.raises(ValueError, match="trials"):
        ca.verify_adjustment(g, {"X"}, "Y", {"Z", "A"}, trials=trials, seed=3)


# (graphs, queries drawn per graph): the graphs of test_differential, so
# `class_graphs` builds them once; PAGs have up to 34 members each
EXACT_SLICE = {"dag": (30, 5), "cpdag": (20, 5), "mag": (25, 5), "pag": (12, 4)}


@pytest.mark.parametrize("cls", list(EXACT_SLICE))
def test_exact_certificate_agrees_with_gac(cls):
    """On seeded amenable queries, every gap is exactly 0 iff Z passes the
    GAC, and every true effect is the path sum of its trial's SEM.

    A valid set gives gap 0 on every SEM, so three trials test soundness.
    An invalid set gets the default 20 trials, and none may show all-zero
    gaps, which small integer weights could in principle produce by
    cancellation."""
    count, per_graph = EXACT_SLICE[cls]
    rng = random.Random(f"exact-{cls}")
    counts = {True: 0, False: 0}
    for g in class_graphs(cls, 1, count):
        nodes = list(g.nodes)
        substrates = sem_module._member_substrates(g)
        for _ in range(per_graph):
            x, y = rng.sample(nodes, 2)
            if not ca.is_amenable(g, {x}, {y}):
                continue
            z = {v for v in nodes if v not in (x, y) and rng.random() < 0.4}
            passed = ca.satisfies_gac(ca.AdjustmentQuery(g, {x}, {y}, z)).passed
            seed = rng.randrange(1 << 20)
            trials = 3 if passed else 20
            reports = ca.verify_adjustment(g, {x}, y, z, trials=trials, seed=seed)
            assert len(reports) == trials * len(substrates)
            assert all(r.max_abs_gap == 0 for r in reports) == passed, (g, x, y, z)
            for r in reports:
                sem = ca.random_sem(substrates[r.member], trial_seed(seed, r.member, r.trial))
                assert list(r.true_effect) == path_sum_total_effect(sem, {x}, y)
            counts[passed] += 1
    assert min(counts.values()) >= 5, counts
