"""Acceptance suite: every shipped claim, checked at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager

import covadjust as ca
from covadjust.cli import run_command

from conftest import CORPUS_DIR
from oracles import (
    cpdag_of,
    m_connected_enumeration,
    moral_d_separated,
    pag_of,
    random_dag,
    satisfies_ac,
    small_queries,
)


@contextmanager
def criterion(number, description):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.2f}s)")


def corpus_path(name):
    return str(CORPUS_DIR / f"{name}.cg")


def load(name):
    return ca.parse_document((CORPUS_DIR / f"{name}.cg").read_text()).graph


def cli_json(capsys, *argv):
    code = run_command(list(argv))
    payload = json.loads(capsys.readouterr().out)
    return code, payload


def gac(g, x, y, z):
    return ca.satisfies_gac(ca.AdjustmentQuery(g, frozenset(x), frozenset(y), frozenset(z)))


def all_z_subsets(g, x, y):
    rest = [n for n in g.nodes if n not in x and n not in y]
    for r in range(len(rest) + 1):
        for z in itertools.combinations(rest, r):
            yield frozenset(z)


FIG1A_SETS = {
    frozenset({"Z", "A"}),
    frozenset({"Z", "B"}),
    frozenset({"Z", "A", "I"}),
    frozenset({"Z", "B", "I"}),
    frozenset({"Z", "A", "B"}),
    frozenset({"Z", "A", "B", "I"}),
}
FIG4A_SETS = {
    frozenset({"V3"}),
    frozenset({"V1", "V3"}),
    frozenset({"V2", "V3"}),
    frozenset({"V1", "V2", "V3"}),
}
FIG5B_SETS = {
    frozenset({"V1", "V2"}),
    frozenset({"V1", "V2", "V3"}),
    frozenset({"V1", "V2", "V4"}),
    frozenset({"V1", "V2", "V3", "V4"}),
}


def test_criterion_1_golden_enumeration_intro_cpdag(capsys):
    with criterion(1, "intro CPDAG lists exactly its six adjustment sets"):
        started = time.perf_counter()
        code, payload = cli_json(
            capsys, "list", "--graph", corpus_path("fig1a"), "-X", "X", "-Y", "Y"
        )
        elapsed = time.perf_counter() - started
        assert code == 0
        assert {frozenset(s) for s in payload["result"]} == FIG1A_SETS
        assert elapsed < 1.0


def test_criterion_2_golden_enumeration_pags(capsys):
    with criterion(2, "the two amenable PAGs enumerate their exact set lists"):
        started = time.perf_counter()
        code, payload = cli_json(capsys, "list", "--graph", corpus_path("fig4a"))
        assert code == 0
        assert {frozenset(s) for s in payload["result"]} == FIG4A_SETS
        assert ca.forbidden_set(load("fig4a"), {"X"}, {"Y"}) == {"V4", "Y"}
        assert time.perf_counter() - started < 1.0

        started = time.perf_counter()
        code, payload = cli_json(capsys, "list", "--graph", corpus_path("fig4b"))
        assert code == 0
        assert payload["result"] == []
        assert ca.forbidden_set(load("fig4b"), {"X"}, {"Y"}) == {"V4", "Y"}
        assert time.perf_counter() - started < 1.0


def test_criterion_3_backdoor_comparison(capsys):
    with criterion(3, "back-door fails everywhere on both comparison graphs, the criterion does not"):
        started = time.perf_counter()
        x, y = frozenset({"X1", "X2"}), frozenset({"Y"})
        for name in ("fig5a", "fig5b"):
            g = load(name)
            assert all(
                not ca.satisfies_generalized_backdoor(g, x, y, z).passed
                for z in all_z_subsets(g, x, y)
            )
            code, _ = cli_json(
                capsys, "check", "--graph", corpus_path(name), "-Z", "V1,V2"
            )
            assert code == 0
        listed = ca.list_adjustment_sets(load("fig5b"), x, y)
        assert {frozenset(s) for s in listed} == FIG5B_SETS
        assert time.perf_counter() - started < 5.0


def test_criterion_4_amenability_and_visibility():
    with criterion(4, "amenability verdicts and witnesses, and both visibility configurations"):
        assert ca.find_amenability_violation(load("fig3a"), {"X"}, {"Y"}) == ("X", "Y")
        assert ca.find_amenability_violation(load("fig3b"), {"X"}, {"Y"}) == ("X", "Y")
        g3c = load("fig3c")
        assert ca.is_amenable(g3c, {"X"}, {"Y"})
        assert gac(g3c, {"X"}, {"Y"}, frozenset()).passed
        for name in ("fig2-left", "fig2-right"):
            g = load(name)
            assert ca.is_visible(g, "X", "Y")


def test_criterion_5_class_size_and_round_trip():
    with criterion(5, "the intro CPDAG has exactly 8 member DAGs and unions back bit-exactly"):
        g = load("fig1a")
        klass = ca.enumerate_dags(g)
        assert len(klass.members) == 8
        assert ca.union_representative(klass.members) == g


def _bridge_check(rep, members, stats):
    for x, y, z in small_queries(rep.nodes, max_xy=2):
        stats[0] += 1
        left = gac(rep, x, y, z).passed
        right = all(satisfies_ac(m, x, y, z).passed for m in members)
        if left != right:
            stats[1] += 1


def test_criterion_6_equivalence_bridge():
    with criterion(6, "criterion on a representative iff criterion on every class member"):
        started = time.perf_counter()
        rng = random.Random(20150612)
        stats = [0, 0]  # queries, discrepancies

        graphs = 0
        while graphs < 200:
            n = rng.choice([4, 5, 6])
            d = random_dag(rng, n, rng.uniform(0.25, 0.55))
            if len(d.edges) > 10:
                continue
            c = cpdag_of(d)
            members = ca.enumerate_dags(c).members
            graphs += 1
            _bridge_check(c, members, stats)
        cpdag_queries = stats[0]

        graphs = 0
        while graphs < 100:
            n_obs = rng.choice([3, 4, 5])
            n_lat = rng.choice([0, 1, 2])
            d = random_dag(rng, n_obs + n_lat, rng.uniform(0.3, 0.55))
            observed = [f"N{i}" for i in range(n_obs)]
            m = ca.latent_project(d, observed)
            if len(m.edges) > 8 or not m.edges:
                continue
            p = pag_of(m)
            members = ca.enumerate_mags(p).members
            graphs += 1
            _bridge_check(p, members, stats)

        elapsed = time.perf_counter() - started
        assert stats[1] == 0, f"{stats[1]} discrepancies in {stats[0]} queries"
        assert cpdag_queries > 0 and stats[0] > cpdag_queries
        assert elapsed < 600.0
        print(f"  (criterion 6: {stats[0]} queries over 300 representatives, {elapsed:.1f}s)")


def _soundness(g, x, y, z):
    reports = ca.verify_adjustment(g, frozenset(x), y, frozenset(z), trials=20, seed=20150612)
    return max(r.max_abs_gap for r in reports)


def _completeness(g, x, y, z):
    # one seed, no reseeding: an exact gap has no fluke to retry past
    reports = ca.verify_adjustment(g, frozenset(x), y, frozenset(z), trials=20, seed=97)
    return any(r.max_abs_gap != 0 for r in reports)


def test_criterion_7_oracle_soundness_and_completeness():
    with criterion(7, "exact SEM oracle agrees with every criterion decision on the goldens"):
        started = time.perf_counter()
        cases = [
            ("fig1a", {"X"}, "Y", FIG1A_SETS),
            ("fig4a", {"X"}, "Y", FIG4A_SETS),
            ("fig4b", {"X"}, "Y", set()),
            ("fig5a", {"X1", "X2"}, "Y", {frozenset({"V1", "V2"})}),
            ("fig5b", {"X1", "X2"}, "Y", FIG5B_SETS),
        ]
        for name, x, y, passing in cases:
            g = load(name)
            for z in passing:
                assert _soundness(g, x, y, z) == 0, (name, sorted(z))
            for z in all_z_subsets(g, frozenset(x), frozenset({y})):
                if z in passing:
                    continue
                verdict = gac(g, x, {y}, z)
                assert not verdict.passed
                assert _completeness(g, x, y, z), (name, sorted(z))
        assert time.perf_counter() - started < 120.0


def test_criterion_8_dual_m_separation():
    with criterion(8, "m-connection agrees with path enumeration on 10^4 random queries"):
        rng = random.Random(424242)
        disagreements = 0
        queries = 0

        def check(g, n_queries, also_moral):
            nonlocal disagreements, queries
            nodes = list(g.nodes)
            for _ in range(n_queries):
                x = frozenset(rng.sample(nodes, rng.randint(1, 2)))
                rest = [n for n in nodes if n not in x]
                y = frozenset(rng.sample(rest, rng.randint(1, min(2, len(rest)))))
                rest2 = [n for n in rest if n not in y]
                z = frozenset(n for n in rest2 if rng.random() < 0.4)
                queries += 1
                reach = ca.m_connected(g, x, y, z)
                enum = m_connected_enumeration(g, x, y, z)
                if reach != enum:
                    disagreements += 1
                if also_moral and moral_d_separated(g, x, y, z) == reach:
                    disagreements += 1

        while queries < 3500:
            g = random_dag(rng, rng.randint(3, 8), rng.uniform(0.2, 0.4))
            check(g, 50, also_moral=True)
        while queries < 6000:
            d = random_dag(rng, rng.randint(3, 8), rng.uniform(0.2, 0.4))
            if len(d.edges) > 11:
                continue
            check(cpdag_of(d), 50, also_moral=False)
        while queries < 8000:
            d = random_dag(rng, rng.randint(4, 9), rng.uniform(0.25, 0.4))
            observed = list(d.nodes[: rng.randint(3, min(8, len(d.nodes)))])
            m = ca.latent_project(d, observed)
            if not m.edges:
                continue
            check(m, 50, also_moral=False)
        while queries < 10**4:
            d = random_dag(rng, rng.randint(4, 7), rng.uniform(0.3, 0.5))
            observed = list(d.nodes[: rng.randint(3, 5)])
            m = ca.latent_project(d, observed)
            if not m.edges or len(m.edges) > 7:
                continue
            check(pag_of(m), 50, also_moral=False)

        assert queries >= 10**4
        assert disagreements == 0


def test_criterion_9_latent_projection():
    with criterion(9, "latent projection preserves observed separations and round-trips"):
        rng = random.Random(777)
        for _ in range(100):
            n = rng.randint(3, 7)
            n_lat = rng.randint(0, min(3, n - 2))
            d = random_dag(rng, n, rng.uniform(0.25, 0.5))
            observed = [name for name in d.nodes][: n - n_lat]
            m = ca.latent_project(d, observed)
            # separations over the observed margin are exactly preserved
            for a, b in itertools.combinations(m.nodes, 2):
                rest = [v for v in m.nodes if v not in (a, b)]
                for r in range(len(rest) + 1):
                    for s in itertools.combinations(rest, r):
                        assert moral_d_separated(d, {a}, {b}, set(s)) == (
                            not ca.m_connected(m, {a}, {b}, frozenset(s))
                        )
            # the output is a valid MAG
            ca.build_graph(ca.GraphClass.MAG, m.nodes, m.edges)
            # the canonical DAG of the projection projects back to it
            assert ca.latent_project(ca.canonical_dag(m), m.nodes) == m
