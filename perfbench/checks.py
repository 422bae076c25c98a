"""Correctness checks of the in-process workloads' outputs.

``check_ops`` returns, per op, None when the output is right and a short
reason when it is not.  Every check compares with an independent
computation (``oracle``) or a property that must hold: the program's
answers are never compared with a stored copy of its own output.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

import numpy as np

import gen
import oracle

CPDAG_SWEEP_LIMIT = 8  # undirected edges up to which members are swept for the checks


def _members_of(h):
    """Member DAGs of a CPDAG by the benchmark's own sweep (cached), or None."""
    if "members" not in h:
        g = h["graph"]
        h["members"] = oracle.dag_members(g, CPDAG_SWEEP_LIMIT) if g.cls == "cpdag" else None
        h["member_oracles"] = [oracle.DagOracle(m) for m in h["members"] or ()]
    return h["members"]


def _valid_in_class(h, x, y, z):
    """Validity in every member, where the members are known; else None."""
    g = h["graph"]
    if g.cls == "dag":
        return h["oracle"].valid(x, y, z)
    if _members_of(h) is None:
        return None
    return all(o.valid(x, y, z) for o in h["member_oracles"])


def _check_verdict(h, op, v, backdoor):
    g, x, y, z = h["graph"], set(op["x"]), set(op["y"]), set(op["z"])
    passed, cond, witness = v
    truth_dag = h["oracle"].valid(x, y, z)
    if passed and not truth_dag:
        return "passing set is not an adjustment set in the generating DAG"
    if backdoor:
        if g.cls == "dag" and len(x) == 1 and passed != h["oracle"].backdoor(op["x"][0], y, z):
            return "back-door verdict differs from the networkx back-door test"
        if cond == "Cond1" and witness not in z & oracle.possible_descendants(g, x):
            return "Cond1 witness is not a possible descendant of X in Z"
        if cond == "Cond2":
            first = witness[0]
            why = oracle.path_problem(g, witness, {first}, y, z | (x - {first}), non_causal=False)
            if why is None and g.directed(first, witness[1]) and oracle.visible(g, first, witness[1]):
                why = "starts with a visible edge out of X"
            if why:
                return f"Cond2 witness {witness}: {why}"
        return None
    truth = _valid_in_class(h, x, y, z)
    if truth is not None and passed != truth:
        return f"verdict {passed} differs from validity in every member ({truth})"
    if passed and not oracle.amenable(g, x, y):
        return "passed on a graph that is not amenable"
    if cond == "Cond0" and oracle.amenable(g, x, y):
        return "Cond0 on an amenable graph"
    if cond == "Cond1" and witness not in z & oracle.forbidden(g, x, y):
        return "Cond1 witness is not a forbidden node of Z"
    if cond == "Cond2":
        why = oracle.path_problem(g, witness, x, y, z, non_causal=True)
        if why:
            return f"Cond2 witness {witness}: {why}"
    return None


def _brute_force_sets(h, x, y):
    g = h["graph"]
    cand = [v for v in g.nodes if v not in x and v not in y]
    out = set()
    for r in range(len(cand) + 1):
        for z in itertools.combinations(cand, r):
            if _valid_in_class(h, x, y, z):
                out.add(frozenset(z))
    return out


def _check_list(h, op, sets, all_sets):
    g, x, y = h["graph"], set(op["x"]), set(op["y"])
    fs = [frozenset(s) for s in sets]
    if len(set(fs)) != len(fs):
        return "a set is listed twice"
    if op["fn"] == "list":
        if any(len(a) > len(b) for a, b in zip(fs, fs[1:])):
            return "sets are not listed smallest first"
        if any(not h["oracle"].valid(x, y, z) for z in fs):
            return "a listed set is not an adjustment set in the generating DAG"
        if (g.cls == "dag" or _members_of(h) is not None) and set(fs) != _brute_force_sets(h, x, y):
            return "listed sets differ from the brute-force search"
        if fs and oracle.amenable(g, x, y) and oracle.canonical_set(g, x, y) not in set(fs):
            return "sets exist but the canonical set is not listed"
        return None
    if all_sets is not None and set(fs) != oracle.minimal_elements(all_sets):
        return "minimal sets are not the inclusion-minimal listed sets"
    return None


def _mixed(cls, nodes, edges):
    g = gen.Mixed.empty(cls, nodes)
    for a, b, ma, mb in edges:
        g.add(a, b, ma, mb)
    return g


def _check_mec(h, members):
    g = h["graph"]
    cls = "dag" if g.cls == "cpdag" else "mag"
    got = {_mixed(cls, g.nodes, m).key() for m in members}
    if len(got) != len(members):
        return "a member is listed twice"
    hidden = h["dag"] if g.cls == "cpdag" else h["mag"]
    if hidden.copy(cls).key() not in got:
        return "the generating graph is not a member"
    union = oracle.mark_union([_mixed(cls, g.nodes, m) for m in members], g.cls, g.nodes)
    if union.key() != g.key():
        return "the mark union of the members differs from the input"
    swept = _members_of(h)
    if swept is not None and {m.key() for m in swept} != got:
        return "members differ from the orientation sweep"
    return None


def _check_verify(ca, program_graph, h, op, reports):
    x, y, z = op["x"], op["y"][0], op["z"]
    gap = max(r[4] for r in reports)
    passed = ca.satisfies_gac(ca.AdjustmentQuery(
        program_graph, frozenset(x), frozenset([y]), frozenset(z))).passed
    if (gap <= 1e-8) != passed:
        return f"max gap {gap:.3g} disagrees with the verdict passed={passed}"
    g = program_graph
    members = ([g] if g.graph_class.value == "dag" else
               ca.enumerate_dags(g).members if g.graph_class.value == "cpdag" else
               [g] if g.graph_class.value == "mag" else ca.enumerate_mags(g).members)
    subs = [m if m.graph_class.value == "dag" else ca.canonical_dag(m) for m in members]
    for member, trial, true, _est, _gap in reports:
        sub = subs[member]
        seq = np.random.SeedSequence(entropy=op["seed"], spawn_key=(member, trial))
        sem = ca.random_sem(sub, int(seq.generate_state(1)[0]))
        want = oracle.path_sum_effects(sem.coeffs.tolist(), list(sub.nodes), set(x), y)
        if not np.allclose(true, want, rtol=1e-9, atol=1e-12):
            return f"true effect {true} differs from the path sum {want}"
    return None


def check_ops(ca, program_graphs, ops, results, hidden):
    """Per-op failure reasons (None for a correct output)."""
    out = [None] * len(ops)
    by_graph = defaultdict(list)
    for i, op in enumerate(ops):
        by_graph[op["g"]].append(i)
    for gi, idxs in by_graph.items():
        h = hidden[gi]
        g = h["graph"]
        values = {}
        for i in idxs:
            op, res = ops[i], results[i]
            if "error" in res:
                out[i] = f"raised {res['error']}"
                continue
            v = values[i] = res["value"]
            fn = op["fn"]
            x, y = set(op.get("x", ())), set(op.get("y", ()))
            if fn == "amenable":
                ok = oracle.amenable(g, x, y)
                if (v is None) != ok:
                    out[i] = f"amenable={v is None}, expected {ok}"
                elif v is not None:
                    why = oracle.possibly_directed_path_problem(g, v, x, y)
                    out[i] = why and f"violation witness {v}: {why}"
            elif fn == "forbidden":
                if set(v) != oracle.forbidden(g, x, y):
                    out[i] = "forbidden set differs from the independent computation"
            elif fn in ("gac", "backdoor"):
                out[i] = _check_verdict(h, op, v, fn == "backdoor")
            elif fn == "validate":
                out[i] = None if v == "valid" else f"generated graph rejected: {v}"
            elif fn == "mec":
                out[i] = _check_mec(h, v)
            elif fn == "verify":
                out[i] = _check_verify(ca, program_graphs[gi], h, op, v)
            elif fn == "project":
                want = gen.latent_projection(h["dag"], op["observed"])
                got = _mixed("mag", v["nodes"], v["edges"])
                out[i] = None if got.key() == want.key() else "projection differs from networkx's"
        lists = {ops[i]["fn"]: values.get(i) for i in idxs if ops[i]["fn"] in ("list", "list_min")}
        for i in idxs:
            if ops[i]["fn"] in ("list", "list_min") and out[i] is None:
                out[i] = _check_list(h, ops[i], values[i], lists.get("list"))
        out = _canonical_property(g, ops, idxs, values, out)
    return out


def _canonical_property(g, ops, idxs, values, out):
    """On an amenable graph, if any queried set passes, the canonical set
    pAn(X u Y) - (X u Y u Forb) passes too."""
    gac = [i for i in idxs if ops[i]["fn"] == "gac" and i in values]
    if not gac:
        return out
    x, y = set(ops[gac[0]]["x"]), set(ops[gac[0]]["y"])
    canon = oracle.canonical_set(g, x, y)
    if any(values[i][0] for i in gac) and oracle.amenable(g, x, y):
        for i in gac:
            if set(ops[i]["z"]) == canon and not values[i][0] and out[i] is None:
                out[i] = "another set passes but the canonical set fails"
    return out
