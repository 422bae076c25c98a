"""Command line interface.

One-shot commands over a .cg graph file, JSON on stdout, diagnostics on
stderr.  Exit codes: 0 success / criterion satisfied, 1 criterion not
satisfied, 2 usage or parse error (including violated preconditions),
3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import cgtext
from .criteria import (
    AdjustmentQuery,
    forbidden_set,
    find_amenability_violation,
    list_adjustment_sets,
    satisfies_gac,
    satisfies_generalized_backdoor,
)
from .errors import GraphError, NotAmenableError, SizeCapExceededError
from .graphs import GraphClass, validate_graph
from .mec import enumerate_dags, enumerate_mags, latent_project
from .sem import verify_adjustment

FORMAT_VERSION = 2

# Commands whose work can grow exponentially with the graph.  The default
# node cap guards only these; the decisions run in polynomial time.
ENUMERATING_COMMANDS = frozenset({"validate", "list", "mec", "verify"})
DEFAULT_NODE_CAP = 15


def _int_at_least(low):
    def count(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return count


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covadjust",
        description="Adjustment set decisions in DAGs, CPDAGs, MAGs and PAGs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, sets=True, z_flag=False, extra=None):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--graph", required=True, metavar="FILE", help=".cg graph file")
        p.add_argument("--max-nodes", type=int, default=None, metavar="N")
        if sets:
            p.add_argument("-X", dest="x", default=None, metavar="A,B")
            p.add_argument("-Y", dest="y", default=None, metavar="C")
        if z_flag:
            p.add_argument("-Z", dest="z", default=None, metavar="D,E")
        if extra:
            extra(p)
        return p

    add("validate", "check the class invariants of the graph", sets=False)
    add("amenable", "is the graph adjustment amenable for (X, Y)?")
    add("forbidden", "nodes that no adjustment set for (X, Y) may contain")
    add("check", "does Z satisfy the generalized adjustment criterion?", z_flag=True)
    add("backdoor", "does Z satisfy the generalized back-door criterion?", z_flag=True)

    def list_extra(p):
        p.add_argument("--minimal", action="store_true", help="inclusion-minimal sets only")
        p.add_argument("--max-size", type=_int_at_least(0), default=None, metavar="K")

    add("list", "enumerate all sets satisfying the criterion", extra=list_extra)
    add("mec", "enumerate the Markov equivalence class members", sets=False)

    def project_extra(p):
        p.add_argument("--observed", default=None, metavar="A,B,C")

    add("project", "latent-project a DAG onto the observed nodes", sets=False, extra=project_extra)

    def verify_extra(p):
        p.add_argument("--trials", type=_int_at_least(1), default=20, metavar="N")
        p.add_argument("--seed", type=int, default=0, metavar="N")

    add("verify", "compare adjusted estimates with true effects on random SEMs",
        z_flag=True, extra=verify_extra)
    return parser


def _split_nodes(text):
    if text is None:
        return None
    return tuple(part for part in (p.strip() for p in text.split(",")) if part)


def _resolve_sets(args, query, *, need_z=False):
    x = _split_nodes(getattr(args, "x", None))
    y = _split_nodes(getattr(args, "y", None))
    z = _split_nodes(getattr(args, "z", None)) if need_z else None
    if x is None and query is not None and query.x is not None:
        x = query.x
    if y is None and query is not None and query.y is not None:
        y = query.y
    if need_z and z is None:
        z = query.z if query is not None and query.z is not None else ()
    if not x or not y:
        raise GraphError("X and Y are required (flags or a query block in the file)")
    return x, y, (z if need_z else None)


def _edge_list(g):
    idx = g.node_index
    return [
        cgtext._edge_statement(e, g)
        for e in sorted(g.edges, key=lambda e: (idx[e.a], idx[e.b]))
    ]


def _witness_json(witness):
    return list(witness) if isinstance(witness, tuple) else witness


def _require_class(g):
    """Refuse a DAG with a directed cycle and a MAG that is not ancestral
    or not maximal.

    Both checks run in polynomial time.  The class of a CPDAG or PAG is
    left to `validate`, whose class checks enumerate the class.
    """
    if g.graph_class in (GraphClass.DAG, GraphClass.MAG):
        validate_graph(g)


def _dispatch(args, doc):
    """Returns (result, witness, exit_code)."""
    g = args_graph = doc.graph
    query = doc.query
    cmd = args.command

    if cmd == "validate":
        try:
            validate_graph(g)
        except SizeCapExceededError:
            raise
        except GraphError as exc:
            return {"valid": False, "reason": type(exc).__name__, "detail": str(exc)}, None, 1
        return {"valid": True, "nodes": len(g.nodes), "edges": len(g.edges)}, None, 0

    if cmd == "amenable":
        x, y, _ = _resolve_sets(args, query)
        violation = find_amenability_violation(g, x, y)
        if violation is None:
            return {"amenable": True}, None, 0
        return {"amenable": False}, _witness_json(violation), 1

    if cmd == "forbidden":
        x, y, _ = _resolve_sets(args, query)
        forb = forbidden_set(g, x, y)
        return {"forbidden": list(g.sort_nodes(forb))}, None, 0

    if cmd == "check":
        x, y, z = _resolve_sets(args, query, need_z=True)
        verdict = satisfies_gac(AdjustmentQuery(g, x, y, z))
        result = {"passed": verdict.passed, "failed_condition": verdict.failed_condition}
        return result, _witness_json(verdict.witness), 0 if verdict.passed else 1

    if cmd == "backdoor":
        x, y, z = _resolve_sets(args, query, need_z=True)
        verdict = satisfies_generalized_backdoor(g, x, y, z)
        result = {"passed": verdict.passed, "failed_condition": verdict.failed_condition}
        return result, _witness_json(verdict.witness), 0 if verdict.passed else 1

    if cmd == "list":
        x, y, _ = _resolve_sets(args, query)
        sets = list_adjustment_sets(
            g, x, y, minimal_only=args.minimal, max_size=args.max_size
        )
        return [list(g.sort_nodes(z)) for z in sets], None, 0

    if cmd == "mec":
        if g.graph_class in (GraphClass.CPDAG, GraphClass.DAG):
            klass = enumerate_dags(g)
            member_class = "dag"
        else:
            klass = enumerate_mags(g)
            member_class = "mag"
        return (
            {
                "count": len(klass.members),
                "member_class": member_class,
                "nodes": list(g.nodes),
                "members": [_edge_list(m) for m in klass.members],
            },
            None,
            0,
        )

    if cmd == "project":
        observed = _split_nodes(args.observed) or tuple(g.nodes)
        mag = latent_project(g, observed)
        return {"nodes": list(mag.nodes), "edges": _edge_list(mag)}, None, 0

    if cmd == "verify":
        x, y, z = _resolve_sets(args, query, need_z=True)
        if len(y) != 1:
            raise GraphError("verify needs a single Y node")
        try:
            reports = verify_adjustment(g, x, y[0], z, trials=args.trials, seed=args.seed)
        except NotAmenableError as exc:
            reports, witness = None, list(exc.witness)
        x_order = list(g.sort_nodes(frozenset(x)))  # x is known to be in g by now
        if reports is None:
            # no set adjusts in a graph that is not amenable; nothing to compare
            result = {"members": 0, "trials": args.trials, "x_order": x_order,
                      "max_abs_gap": None, "sound": False, "amenable": False, "reports": []}
            return result, witness, 1
        # exact numbers as rational strings: "-3/7", "2", "0"
        max_gap = max(r.max_abs_gap for r in reports)
        sound = max_gap == 0
        result = {
            "members": 1 + max(r.member for r in reports),
            "trials": args.trials,
            "x_order": x_order,
            "max_abs_gap": str(max_gap),
            "sound": sound,
            "amenable": True,
            "reports": [
                {
                    "member": r.member,
                    "trial": r.trial,
                    "true_effect": [str(v) for v in r.true_effect],
                    "adjusted_estimate": [str(v) for v in r.adjusted_estimate],
                    "max_abs_gap": str(r.max_abs_gap),
                }
                for r in reports
            ],
        }
        return result, None, 0 if sound else 1

    raise GraphError(f"unknown command {cmd!r}")


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    command = getattr(args, "command", None)
    try:
        with open(args.graph, "r", encoding="utf-8") as fh:
            text = fh.read()
        doc = cgtext.parse_document(text)
        g = doc.graph
        cap = args.max_nodes
        if cap is None and command in ENUMERATING_COMMANDS:
            cap = DEFAULT_NODE_CAP
        if cap is not None and len(g.nodes) > cap:
            raise SizeCapExceededError(
                f"{len(g.nodes)} nodes exceeds the cap of {cap}",
                cap="nodes", limit=cap, required=len(g.nodes),
            )
        if command != "validate":
            _require_class(g)
        result, witness, code = _dispatch(args, doc)
    except SizeCapExceededError as exc:
        print(f"covadjust: {exc}", file=sys.stderr)
        _emit({"format": FORMAT_VERSION, "command": command,
               "error": {"type": type(exc).__name__, "message": str(exc),
                         "cap": exc.cap, "limit": exc.limit, "required": exc.required}})
        return 3
    except (GraphError, OSError, UnicodeDecodeError) as exc:
        print(f"covadjust: {exc}", file=sys.stderr)
        _emit({"format": FORMAT_VERSION, "command": command,
               "error": {"type": type(exc).__name__, "message": str(exc)}})
        return 2
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    payload = {
        "format": FORMAT_VERSION,
        "command": command,
        "graph_class": doc.graph.graph_class.value,
        "result": result,
    }
    if witness is not None:
        payload["witness"] = witness
    payload["elapsed_ms"] = round(elapsed_ms, 3)
    _emit(payload)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
