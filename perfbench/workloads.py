"""The seeded inputs of the two in-process workloads.

Each builder returns ``(graphs, ops, hidden)``: ``graphs`` are .cg texts
(all the program receives), ``ops`` the operation list of one pass, and
``hidden`` what the checks need and the program never sees (the
generating DAG, the MAG behind a PAG).  An op is a dict with the graph
index ``g``, the library call ``fn`` and its node-set arguments.
"""

from __future__ import annotations

import random

import networkx as nx

import gen
import oracle

# decide-random: (class, nodes, edges, latent share, graphs per pass).
# Sparse graphs have 1.2 edges per node before projection.  The seeded
# part follows --seed and keeps to shapes whose cost stays bounded from
# draw to draw: a sparse MAG or PAG of 100 nodes, or a MAG of 50, can make
# one Cond2 search take a tenth of a second or more, so graphs that large
# are on the fixed ladder below.  The many small graphs make the middle of
# the op-time distribution (op_ms_p50) a median over thousands of calls.
DECIDE_SEEDED = [
    *[(cls, n, int(1.2 * n), 0.1, 64) for cls in ("dag", "cpdag", "mag", "pag") for n in (10, 25)],
    *[(cls, 50, 60, 0.1, 12) for cls in ("dag", "cpdag", "pag")],
]
# The ladder holds the graphs whose Cond2 search is exponential in
# practice: sparse DAGs and MAGs up to 100 nodes, and dense DAGs (edge
# probability 1/2) up to the size where one breadth-first search over
# simple paths takes a few tenths of a second.  Their cost varies by
# orders of magnitude between draws of one shape, so the ladder is drawn
# from a fixed seed: the spread between runs then measures the program,
# not the draw.
DECIDE_LADDER = [
    ("dag", 100, 120, 0.0, 3), ("mag", 50, 60, 0.1, 3), ("mag", 100, 120, 0.1, 3),
    *[("dag", n, n * (n - 1) // 4, 0.0, reps)
      for n, reps in ((16, 6), (18, 12), (20, 40), (22, 6), (24, 6))],
    *[(cls, 100, 120, 0.1, 2) for cls in ("cpdag", "pag")],
]
LADDER_SEED = 20150706

# enumerate-random: desk-size graphs within the default enumeration caps.
# (class, nodes, edges, latents, graphs per pass, band of candidate
# orientations).  Candidates are 2^u for a CPDAG with u undirected edges
# and 3^a * 2^b for a PAG with a o-o and b o-> edges: the number of graphs
# the library's class enumeration builds, which sets its cost.
ENUM_SEEDED = [
    ("dag", 8, 11, 0, 16, None),
    ("cpdag", 7, 9, 0, 16, (16, 64)),
    ("mag", 8, 10, 2, 16, None),
    ("pag", 8, 9, 2, 4, (4, 16)),
]
# PAG class enumeration (separation fingerprints of every candidate MAG)
# dominates the workload, and its cost grows with the candidates and
# varies several-fold between PAGs with the same count.  Like the dense
# decide ladder, these PAGs come from a fixed seed so the spread between
# runs measures the program, not the draw.
ENUM_LADDER = [("pag", 8, 9, 2, 12, (24, 64))]
VERIFY_TRIALS = 3


def _hidden_dag(rng, n, m):
    dag = gen.random_dag(rng, n, m)
    return dag, gen.to_nx(dag)


def _class_graph(cls, dag, d, rng, latent_share, n_latent=None):
    """(graph, observed nodes, hidden MAG or None) of class `cls`."""
    if cls == "dag":
        return dag, list(dag.nodes), None
    if cls == "cpdag":
        return gen.cpdag_of(dag), list(dag.nodes), None
    k = n_latent if n_latent is not None else max(1, round(latent_share * len(dag.nodes)))
    # latents are drawn among nodes with two or more children, so they confound
    pool = [v for v in dag.nodes if d.out_degree(v) >= 2]
    if len(pool) < k:
        pool = list(dag.nodes)
    latent = set(rng.sample(pool, k))
    observed = [v for v in dag.nodes if v not in latent]
    mag = gen.latent_projection(dag, observed)
    return (mag if cls == "mag" else gen.pag_of(mag)), observed, mag


def _pick_xy(rng, d, observed, n_x):
    """Y with observed ancestors, X among them: a causal effect exists."""
    obs = set(observed)
    ys = [v for v in observed if len(nx.ancestors(d, v) & obs) >= n_x]
    y = rng.choice(ys or observed)
    pool = sorted(nx.ancestors(d, y) & obs) or sorted(obs - {y})
    x = rng.sample(pool, min(n_x, len(pool)))
    return x, [y]


def _random_sets(rng, dag_oracle, x, y, observed, want_valid, tries=40):
    cand = [v for v in observed if v not in x and v not in y]
    for _ in range(tries):
        z = [v for v in cand if rng.random() < rng.random()]
        if dag_oracle.valid(x, y, z) == want_valid:
            return sorted(z)
    return None


def _queries(rng, g, d, hidden_oracle, observed, n_x):
    x, y = _pick_xy(rng, d, observed, n_x)
    canon = sorted(oracle.canonical_set(g, x, y))
    zs = [[], canon]
    for want in (True, False):
        z = _random_sets(rng, hidden_oracle, x, y, observed, want)
        zs.append(z if z is not None else canon)
    return x, y, zs


def _decide_graphs(rng, shapes, graphs, ops, hidden):
    for cls, n, m, share, reps in shapes:
        for _ in range(reps):
            dag, d = _hidden_dag(rng, n, m)
            g, observed, _ = _class_graph(cls, dag, d, rng, share)
            hid = oracle.DagOracle(dag)
            x, y, zs = _queries(rng, g, d, hid, observed, 2 if rng.random() < 0.25 else 1)
            gi = len(graphs)
            graphs.append(gen.to_cg(g))
            hidden.append({"graph": g, "dag": dag, "oracle": hid})
            ops.append({"g": gi, "fn": "amenable", "x": x, "y": y})
            ops.append({"g": gi, "fn": "forbidden", "x": x, "y": y})
            for z in zs:
                ops.append({"g": gi, "fn": "gac", "x": x, "y": y, "z": z})
                ops.append({"g": gi, "fn": "backdoor", "x": x, "y": y, "z": z})


def build_decide(seed):
    graphs, ops, hidden = [], [], []
    _decide_graphs(random.Random(f"decide-{seed}"), DECIDE_SEEDED, graphs, ops, hidden)
    _decide_graphs(random.Random(LADDER_SEED), DECIDE_LADDER, graphs, ops, hidden)
    # A pass runs the ops in a seeded random order, so the calls on small
    # graphs are spread over the whole pass.  Run back to back, they all
    # fell in one fraction of a second of the machine's speed, and
    # op_ms_p50 moved by 9% between passes of the same inputs.
    random.Random(f"decide-order-{seed}").shuffle(ops)
    return graphs, ops, hidden


def _candidates(g):
    if g.cls == "cpdag":
        return 2 ** sum(1 for _, _, ma, _ in g.edges() if ma == "o")
    return 3 ** sum(1 for _, _, ma, mb in g.edges() if ma == mb == "o") * 2 ** sum(
        1 for _, _, ma, mb in g.edges() if (ma == "o") != (mb == "o"))


def _enumerate_graphs(rng, shapes, graphs, ops, hidden):
    for cls, n, m, n_lat, reps, band in shapes:
        made = 0
        while made < reps:
            dag, d = _hidden_dag(rng, n, m)
            g, observed, mag = _class_graph(cls, dag, d, rng, 0.0, n_latent=n_lat)
            if band is not None and not band[0] <= _candidates(g) <= band[1]:
                continue
            hid = oracle.DagOracle(dag)
            x, y = _pick_xy(rng, d, observed, 1)
            if not oracle.amenable(g, x, y):
                continue  # see README: verify's certificate needs an amenable graph
            made += 1
            gi = len(graphs)
            graphs.append(gen.to_cg(g))
            hidden.append({"graph": g, "dag": dag, "mag": mag, "oracle": hid})
            z = _random_sets(rng, hid, x, y, observed, True) or sorted(oracle.canonical_set(g, x, y))
            ops.append({"g": gi, "fn": "list", "x": x, "y": y})
            ops.append({"g": gi, "fn": "list_min", "x": x, "y": y})
            ops.append({"g": gi, "fn": "validate"})
            if cls in ("cpdag", "pag"):
                ops.append({"g": gi, "fn": "mec"})
            ops.append({"g": gi, "fn": "verify", "x": x, "y": y, "z": z,
                        "trials": VERIFY_TRIALS, "seed": rng.randrange(1 << 30)})
            if cls == "dag":
                # the DAG file is also the input of a latent projection
                lat = rng.sample(list(dag.nodes), 2)
                ops.append({"g": gi, "fn": "project",
                            "observed": [v for v in dag.nodes if v not in lat]})


def build_enumerate(seed):
    graphs, ops, hidden = [], [], []
    _enumerate_graphs(random.Random(f"enumerate-{seed}"), ENUM_SEEDED, graphs, ops, hidden)
    _enumerate_graphs(random.Random(LADDER_SEED), ENUM_LADDER, graphs, ops, hidden)
    return graphs, ops, hidden
