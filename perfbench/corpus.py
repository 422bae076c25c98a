"""The cli-corpus round: commands, hand-written expectations and checks.

One round runs every command on each corpus figure, `project` on the
benchmark's own DAG files (the corpus has no DAG), and the five
fail-closed probes.  Expectations come from the paper's figures as the
corpus comments state them; everything else is checked against
``oracle`` or against the other commands of the same round.
"""

from __future__ import annotations

import gen
import oracle

FIGURES = ["fig1a", "fig2-left", "fig2-right", "fig3a", "fig3b", "fig3c", "fig4a", "fig4b",
           "fig5a", "fig5b"]
COMMANDS = [["validate"], ["amenable"], ["forbidden"], ["check"], ["backdoor"], ["list"],
            ["list", "--minimal"], ["mec"], ["verify"]]
PROJECTS = {  # DAG file -> observed nodes
    "project-1": "D0,D1,D2,D4,D6",
    "project-2": "D0,D1,D2,D5,D6",
    "project-3": "D1,D2,D3,D5,D6",
    "project-4": "D0,D1,D3,D4,D6",
    "project-5": "D0,D2,D3,D5,D6",
}
INPUTS = "perfbench/inputs"

# The fail-closed probes: each must exit 2 (a precondition error) and is a
# failed operation until the program refuses the input.
PROBES = [
    ("check-cyclic-dag", f"{INPUTS}/cyclic-dag.cg", ["check"],
     "check answers about a cyclic 'DAG' (exit 0, passed)"),
    ("verify-cyclic-dag", f"{INPUTS}/cyclic-dag.cg", ["verify"],
     "verify certifies a cyclic 'DAG' (sound: true)"),
    ("verify-zero-trials", "corpus/fig1a.cg", ["verify", "--trials", "0"],
     "verify --trials 0 certifies vacuously (exit 0)"),
    ("list-negative-size", "corpus/fig1a.cg", ["list", "--max-size", "-1"],
     "list --max-size -1 returns [] (exit 0)"),
    ("check-non-ancestral-mag", f"{INPUTS}/non-ancestral-mag.cg", ["check"],
     "check gives a Cond0 verdict on a non-ancestral MAG (exit 1)"),
]

# Outputs that fail a check on every round because of a fault in the
# program.  verify certifies each member of the class with linear SEMs on
# its canonical DAG, which has no latent confounder behind an invisible
# edge, so on the non-amenable MAG fig3b it reports "sound": true for the
# empty set that check (Cond0) rightly rejects.
KNOWN_FAULTS = {"fig3b:verify"}

# Stated by the figures' comments (and the paper).
EXPECT = {
    "fig1a": {"members": 8, "n_sets": 6, "check": True, "has_set": ["A", "Z"]},
    "fig2-left": {"amenable": True},
    "fig2-right": {"amenable": True},
    "fig3a": {"amenable": False, "n_sets": 0, "check": False},
    "fig3b": {"amenable": False, "check": False},
    "fig3c": {"amenable": True, "check": True, "has_set": []},
    "fig4a": {"amenable": True, "check": True, "forbidden": ["V4", "Y"],
              "sets": [["V3"], ["V1", "V3"], ["V2", "V3"], ["V1", "V2", "V3"]]},
    "fig4b": {"amenable": True, "n_sets": 0, "check": False},
    "fig5a": {"check": True, "backdoor": False},
    "fig5b": {"check": True, "backdoor": False,
              "sets": [["V1", "V2"], ["V1", "V2", "V3"], ["V1", "V2", "V4"],
                       ["V1", "V2", "V3", "V4"]]},
}


def round_ops():
    """The operations of one round: (name, graph file, CLI arguments)."""
    ops = []
    for fig in FIGURES:
        for cmd in COMMANDS:
            ops.append((f"{fig}:{' '.join(cmd)}", f"corpus/{fig}.cg", cmd))
    for name, observed in PROJECTS.items():
        ops.append((f"{name}:project", f"{INPUTS}/{name}.cg", ["project", "--observed", observed]))
    for name, path, cmd, _ in PROBES:
        ops.append((f"probe:{name}", path, cmd))
    return ops


def input_files():
    return sorted({path for _, path, _ in round_ops()})


def _family(cmd):
    if cmd in ("amenable", "forbidden", "check", "backdoor"):
        return "decide"
    return cmd


def family(op_name):
    return _family(op_name.split(":")[1].split()[0])


def _sets(payload):
    return [frozenset(s) for s in payload["result"]]


def check_round(outputs, read):
    """Failure reasons per op name (None when right).  `outputs` maps an op
    name to (exit code, parsed JSON or None); `read(path)` gives file text."""
    out = {}
    for name, path, cmd, why in PROBES:
        code, _ = outputs[f"probe:{name}"]
        out[f"probe:{name}"] = None if code == 2 else f"exit {code}, expected 2: {why}"
    for name, observed in PROJECTS.items():
        code, p = outputs[f"{name}:project"]
        dag, _ = gen.parse_cg(read(f"{INPUTS}/{name}.cg"))
        want = gen.latent_projection(dag, observed.split(","))
        got = gen.from_cg_edges("mag", p["result"]["nodes"], p["result"]["edges"]) if p else None
        ok = code == 0 and got is not None and got.key() == want.key()
        out[f"{name}:project"] = None if ok else "projection differs from networkx's"
    for fig in FIGURES:
        g, (x, y, z) = gen.parse_cg(read(f"corpus/{fig}.cg"))
        res = {" ".join(c): outputs[f"{fig}:{' '.join(c)}"] for c in COMMANDS}
        for cmd, why in _check_figure(fig, g, set(x), set(y), set(z or ()), res).items():
            out[f"{fig}:{cmd}"] = why
    return out


def _check_figure(fig, g, x, y, z, res):
    exp = EXPECT.get(fig, {})
    why = {}

    def payload(cmd, codes):
        code, p = res[cmd]
        if p is None or code not in codes:
            why[cmd] = f"exit {code}"
            return None
        return p

    p = payload("validate", (0,))
    if p is not None and not p["result"]["valid"]:
        why["validate"] = "corpus graph reported invalid"

    amen = oracle.amenable(g, x, y)
    p = payload("amenable", (0, 1))
    if p is not None:
        got = p["result"]["amenable"]
        if got != amen or got != exp.get("amenable", amen) or res["amenable"][0] != (0 if got else 1):
            why["amenable"] = f"amenable={got}, expected {exp.get('amenable', amen)}"
        elif not got:
            problem = oracle.possibly_directed_path_problem(g, p["witness"], x, y)
            if problem:
                why["amenable"] = f"violation witness: {problem}"

    forb = oracle.forbidden(g, x, y)
    p = payload("forbidden", (0,))
    if p is not None:
        got = p["result"]["forbidden"]
        if set(got) != forb or ("forbidden" in exp and got != exp["forbidden"]):
            why["forbidden"] = f"forbidden {got}, expected {sorted(forb)}"

    passed = None
    p = payload("check", (0, 1))
    if p is not None:
        passed = p["result"]["passed"]
        cond, witness = p["result"]["failed_condition"], p.get("witness")
        problem = None
        if passed != exp.get("check", passed) or res["check"][0] != (0 if passed else 1):
            problem = f"passed={passed}, expected {exp.get('check')}"
        elif passed and (not amen or z & forb):
            problem = "passed although not amenable or Z meets the forbidden set"
        elif cond == "Cond0" and amen:
            problem = "Cond0 on an amenable graph"
        elif cond == "Cond1" and witness not in z & forb:
            problem = "Cond1 witness is not a forbidden node of Z"
        elif cond == "Cond2":
            problem = oracle.path_problem(g, witness, x, y, z, non_causal=True)
        if g.cls == "cpdag" and problem is None:
            members = oracle.dag_members(g, 10)
            truth = all(oracle.DagOracle(m).valid(x, y, z) for m in members)
            if truth != passed:
                problem = f"passed={passed}, validity in every member is {truth}"
        if problem:
            why["check"] = problem

    p = payload("backdoor", (0, 1))
    if p is not None:
        bd = p["result"]["passed"]
        if bd != exp.get("backdoor", bd):
            why["backdoor"] = f"passed={bd}, expected {exp['backdoor']}"
        elif bd and passed is False:
            why["backdoor"] = "back-door set that is not an adjustment set"

    p, pm = payload("list", (0,)), payload("list --minimal", (0,))
    if p is not None:
        sets = _sets(p)
        canon = oracle.canonical_set(g, x, y)
        if "sets" in exp and sets != [frozenset(s) for s in exp["sets"]]:
            why["list"] = f"sets {p['result']}, expected {exp['sets']}"
        elif "n_sets" in exp and len(sets) != exp["n_sets"]:
            why["list"] = f"{len(sets)} sets, expected {exp['n_sets']}"
        elif "has_set" in exp and frozenset(exp["has_set"]) not in sets:
            why["list"] = f"{exp['has_set']} is not listed"
        elif sets and amen and canon not in sets:
            why["list"] = "sets exist but the canonical set is not listed"
        elif any(s & forb for s in sets):
            why["list"] = "a listed set meets the forbidden set"
        if pm is not None and set(_sets(pm)) != oracle.minimal_elements(sets):
            why["list --minimal"] = "minimal sets are not the inclusion-minimal listed sets"

    p = payload("mec", (0,))
    if p is not None:
        r = p["result"]
        cls = r["member_class"]
        members = [gen.from_cg_edges(cls, r["nodes"], m) for m in r["members"]]
        union = oracle.mark_union(members, g.cls if g.cls in ("cpdag", "pag") else cls, g.nodes)
        if r["count"] != exp.get("members", r["count"]) or r["count"] != len(members):
            why["mec"] = f"{r['count']} members, expected {exp.get('members')}"
        elif union.key() != g.key():
            why["mec"] = "the mark union of the members differs from the input"
        elif g.cls == "cpdag":
            swept = {m.key() for m in oracle.dag_members(g, 10)}
            if swept != {m.key() for m in members}:
                why["mec"] = "members differ from the orientation sweep"

    p = payload("verify", (0, 1))
    if p is not None and passed is not None:
        sound = p["result"]["sound"]
        if sound != passed or res["verify"][0] != (0 if sound else 1):
            why["verify"] = f"sound={sound} but check passed={passed}"
    return why
