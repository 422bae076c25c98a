"""Command line interface.

One-shot commands over a .cg graph file, JSON on stdout, diagnostics on
stderr.  Exit codes: 0 success / criterion satisfied, 1 criterion not
satisfied, 2 usage or parse error (including violated preconditions),
3 enumeration cap exceeded.

A row of `COMMANDS` defines a command: its help text, the deferred module
it runs, the sets it reads, whether the default node cap guards it, its
own flags and its handler.  `run_command` takes every step from the row.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import namedtuple

from . import _load, cgtext, criteria, mec, sem
from .errors import GraphError, NotAmenableError, SizeCapExceededError
from .graphs import GraphClass, validate_graph

FORMAT_VERSION = 2
DEFAULT_NODE_CAP = 15


def _int_at_least(low):
    def count(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return count


def _flag(*names, **options):
    """An `add_argument` spec."""
    return names, options


def _split_nodes(text):
    if text is None:
        return None
    return tuple(part for part in (p.strip() for p in text.split(",")) if part)


def _witness_json(witness):
    return list(witness) if isinstance(witness, tuple) else witness


# Handlers: (graph, parsed arguments, the node sets the row reads) ->
# (result, witness, exit code).  Each looks its library function up in the
# module when it runs, so the module's code runs only for its own command.

def _validate(g, args):
    try:
        validate_graph(g)
    except SizeCapExceededError:
        raise
    except GraphError as exc:
        return {"valid": False, "reason": type(exc).__name__, "detail": str(exc)}, None, 1
    return {"valid": True, "nodes": len(g.nodes), "edges": len(g.edges)}, None, 0


def _amenable(g, args, x, y):
    violation = criteria.find_amenability_violation(g, x, y)
    if violation is None:
        return {"amenable": True}, None, 0
    return {"amenable": False}, _witness_json(violation), 1


def _forbidden(g, args, x, y):
    return {"forbidden": list(g.sort_nodes(criteria.forbidden_set(g, x, y)))}, None, 0


def _verdict(verdict):
    result = {"passed": verdict.passed, "failed_condition": verdict.failed_condition}
    return result, _witness_json(verdict.witness), 0 if verdict.passed else 1


def _check(g, args, x, y, z):
    return _verdict(criteria.satisfies_gac(criteria.AdjustmentQuery(g, x, y, z)))


def _backdoor(g, args, x, y, z):
    return _verdict(criteria.satisfies_generalized_backdoor(g, x, y, z))


def _list(g, args, x, y):
    sets = criteria.list_adjustment_sets(g, x, y, minimal_only=args.minimal,
                                         max_size=args.max_size)
    return [list(g.sort_nodes(z)) for z in sets], None, 0


def _mec(g, args):
    members = mec._class_of(g).members
    return {
        "count": len(members),
        "member_class": members[0].graph_class.value,
        "nodes": list(g.nodes),
        "members": [cgtext._edge_statements(m) for m in members],
    }, None, 0


def _project(g, args):
    observed = _split_nodes(args.observed)
    if observed == ():
        raise GraphError("--observed names no node (leave it out to keep every node)")
    mag = mec.latent_project(g, g.nodes if observed is None else observed)
    return {"nodes": list(mag.nodes), "edges": cgtext._edge_statements(mag)}, None, 0


def _verify(g, args, x, y, z):
    try:
        reports = sem.verify_adjustment(g, x, y, z, trials=args.trials, seed=args.seed)
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


# help: its help text; module: the deferred module it runs, loaded before
# the clock starts; sets: "", "XY" or "XYZ", read from -X/-Y/-Z or else the
# query block; capped: whether the default node cap guards it (its work
# can grow exponentially with the graph; the decisions run in polynomial
# time); flags: its own `add_argument` specs; run: its handler.
_Command = namedtuple("_Command", "help module sets capped flags run")

COMMANDS = {
    "validate": _Command("check the class invariants of the graph", mec, "", True, (),
                         _validate),
    "amenable": _Command("is the graph adjustment amenable for (X, Y)?", criteria, "XY", False,
                         (), _amenable),
    "forbidden": _Command("nodes that no adjustment set for (X, Y) may contain", criteria, "XY",
                          False, (), _forbidden),
    "check": _Command("does Z satisfy the generalized adjustment criterion?", criteria, "XYZ",
                      False, (), _check),
    "backdoor": _Command("does Z satisfy the generalized back-door criterion?", criteria, "XYZ",
                         False, (), _backdoor),
    "list": _Command("enumerate all sets satisfying the criterion", criteria, "XY", True,
                     (_flag("--minimal", action="store_true", help="inclusion-minimal sets only"),
                      _flag("--max-size", type=_int_at_least(0), default=None, metavar="K")),
                     _list),
    "mec": _Command("enumerate the Markov equivalence class members", mec, "", True, (), _mec),
    "project": _Command("latent-project a DAG onto the observed nodes", mec, "", False,
                        (_flag("--observed", default=None, metavar="A,B,C"),), _project),
    "verify": _Command("compare adjusted estimates with true effects on random SEMs", sem, "XYZ",
                       True, (_flag("--trials", type=_int_at_least(1), default=20, metavar="N"),
                              _flag("--seed", type=int, default=0, metavar="N")), _verify),
}
_SET_METAVARS = {"X": "A,B", "Y": "C", "Z": "D,E"}


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, or, for a known `command`, of that
    command alone, which parses and reports its arguments the same way."""
    parser = argparse.ArgumentParser(
        prog="covadjust",
        description="Adjustment set decisions in DAGs, CPDAGs, MAGs and PAGs.",
    )
    names = [command] if command in COMMANDS else list(COMMANDS)
    # with one command, the metavar keeps them all in the usage line of a
    # top-level error ("unrecognized arguments")
    metavar = "{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        row = COMMANDS[name]
        p = sub.add_parser(name, help=row.help)
        p.add_argument("--graph", required=True, metavar="FILE", help=".cg graph file")
        p.add_argument("--max-nodes", type=_int_at_least(0), default=None, metavar="N")
        for s in row.sets:
            p.add_argument(f"-{s}", dest=s.lower(), default=None, metavar=_SET_METAVARS[s])
        for flag, options in row.flags:
            p.add_argument(*flag, **options)
    return parser


def _resolve_sets(sets, args, query) -> list:
    """The node sets `sets` names, in order, each from its flag or else
    from the query block; a Z given by neither is empty."""
    resolved = []
    for s in sets.lower():
        nodes = _split_nodes(getattr(args, s))
        if nodes is None and query is not None:
            nodes = getattr(query, s)
        resolved.append(() if nodes is None and s == "z" else nodes)
    if not resolved[0] or not resolved[1]:
        raise GraphError("X and Y are required (flags or a query block in the file)")
    return resolved


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def run_command(argv) -> int:
    argv = list(argv)
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = args.command
    row = COMMANDS[command]
    _load(row.module)
    started = time.perf_counter()
    try:
        with open(args.graph, "r", encoding="utf-8") as fh:
            text = fh.read()
        doc = cgtext.parse_document(text)
        g = doc.graph
        cap = DEFAULT_NODE_CAP if args.max_nodes is None and row.capped else args.max_nodes
        if cap is not None and len(g.nodes) > cap:
            raise SizeCapExceededError(
                f"{len(g.nodes)} nodes exceeds the cap of {cap}",
                cap="nodes", limit=cap, required=len(g.nodes),
            )
        # the class check of a DAG or MAG runs in polynomial time; that of a
        # CPDAG or PAG enumerates the class and is left to `validate`
        if command != "validate" and g.graph_class in (GraphClass.DAG, GraphClass.MAG):
            validate_graph(g)
        sets = _resolve_sets(row.sets, args, doc.query) if row.sets else ()
        result, witness, code = row.run(g, args, *sets)
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
        "graph_class": g.graph_class.value,
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
