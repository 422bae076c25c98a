"""The process that runs the program in-process, in a closed loop.

    python perfbench/worker.py setup   < {"graphs": [...]}
    python perfbench/worker.py run     < {"graphs", "ops", "seconds", "trace"}
    python perfbench/worker.py cli <covadjust arguments>

It imports only the program (from ``src``) and the standard library, so
its peak resident memory is the program's own.  ``setup`` times
``import covadjust`` plus parsing every input; ``run`` parses the inputs,
then repeats whole passes over the op list until the time is up and
prints one JSON document: the results of an untimed first pass, the
time of every op in the timed passes (scaled to the reference speed of
``calib``), the reference probe times, and its peak RSS.  With ``trace``
it alternates untraced and traced passes over the same ops, so their
difference is the overhead.  ``setup`` scales its times the same way.
``cli`` is ``python -m covadjust`` with tracing installed; it writes the
trace as the last line of its standard error.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _import_program():
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import covadjust

    if not os.path.abspath(covadjust.__file__).startswith(src + os.sep):
        raise SystemExit(f"covadjust was imported from {covadjust.__file__}, not {src}")
    return covadjust


def setup(payload):
    import calib

    before = len(sys.modules)
    c0 = calib.probe()
    t0 = time.perf_counter()
    ca = _import_program()
    t1 = time.perf_counter()
    for text in payload["graphs"]:
        ca.parse_document(text)
    t2 = time.perf_counter()
    f = calib.factor(c0, calib.probe())
    return {"setup_s": (t2 - t0) * f, "import_s": (t1 - t0) * f,
            "modules": len(sys.modules) - before}


def _edge(e):
    return [e.a, e.b, e.mark_a.value, e.mark_b.value]


def _sets(g, sets):
    return [list(g.sort_nodes(z)) for z in sets]


def _verdict(v):
    w = v.witness
    return [v.passed, v.failed_condition, list(w) if isinstance(w, tuple) else w]


def make_ops(ca, graphs, ops):
    """Bind each op to a zero-argument call and a result converter."""
    from covadjust.errors import GraphError

    bound = []
    for op in ops:
        g = graphs[op["g"]]
        fn = op["fn"]
        x, y, z = (frozenset(op.get(k, ())) for k in "xyz")
        if fn == "amenable":
            call = lambda g=g, x=x, y=y: ca.find_amenability_violation(g, x, y)
            conv = lambda r: None if r is None else list(r)
        elif fn == "forbidden":
            call = lambda g=g, x=x, y=y: ca.forbidden_set(g, x, y)
            conv = lambda r, g=g: list(g.sort_nodes(r))
        elif fn == "gac":
            call = lambda g=g, x=x, y=y, z=z: ca.satisfies_gac(ca.AdjustmentQuery(g, x, y, z))
            conv = _verdict
        elif fn == "backdoor":
            call = lambda g=g, x=x, y=y, z=z: ca.satisfies_generalized_backdoor(g, x, y, z)
            conv = _verdict
        elif fn in ("list", "list_min"):
            call = lambda g=g, x=x, y=y, m=fn == "list_min": ca.list_adjustment_sets(
                g, x, y, minimal_only=m)
            conv = lambda r, g=g: _sets(g, r)
        elif fn == "validate":
            def call(g=g):
                try:
                    ca.validate_graph(g)
                except GraphError as exc:
                    return type(exc).__name__
                return "valid"
            conv = lambda r: r
        elif fn == "mec":
            call = lambda g=g: (ca.enumerate_dags(g) if g.graph_class.value == "cpdag"
                                else ca.enumerate_mags(g))
            conv = lambda r: [sorted(map(_edge, m.edges)) for m in r.members]
        elif fn == "verify":
            (y1,) = y
            call = lambda g=g, x=x, y1=y1, z=z, t=op["trials"], s=op["seed"]: ca.verify_adjustment(
                g, x, y1, z, trials=t, seed=s)
            conv = lambda r: [[e.member, e.trial, list(e.true_effect), list(e.adjusted_estimate),
                               e.max_abs_gap] for e in r]
        elif fn == "project":
            call = lambda g=g, o=tuple(op["observed"]): ca.latent_project(g, o)
            conv = lambda r: {"nodes": list(r.nodes), "edges": sorted(map(_edge, r.edges))}
        else:
            raise SystemExit(f"unknown op {fn!r}")
        bound.append((call, conv))
    return bound


def _pass(bound, results=None, probes=None):
    """Run every op once: its time scaled by calib, and the probe times."""
    import calib

    times, chunk = [], []
    perf = time.perf_counter
    before = calib.probe()
    probes = [] if probes is None else probes
    probes.append(before)
    mark = perf()
    for call, conv in bound:
        t0 = perf()
        try:
            r = call()
            err = None
        except Exception as exc:  # an op that raises is a failed op, reported to the checks
            r, err = None, f"{type(exc).__name__}: {exc}"
        t1 = perf()
        chunk.append(t1 - t0)
        if results is not None:
            results.append({"error": err} if err else {"value": conv(r)})
        if t1 - mark >= calib.CHUNK_S or len(chunk) == len(bound) - len(times):
            after = calib.probe()
            probes.append(after)
            f = calib.factor(before, after)
            times.extend(t * f for t in chunk)
            chunk, before, mark = [], after, perf()
    return times


def run(payload):
    ca = _import_program()
    graphs = [ca.parse_document(t).graph for t in payload["graphs"]]
    bound = make_ops(ca, graphs, payload["ops"])
    results = []
    _pass(bound, results)  # records results and fills the graphs' lazy caches; not timed
    passes, probes = [], []
    deadline = time.perf_counter() + payload["seconds"]
    out = {"results": results}
    if payload["trace"]:
        import tracing

        import calib

        # a traced pass parses every input again, so the parser is traced
        # too; the pass time is at the reference speed, like the op times
        def timed_pass():
            before = calib.probe()
            t0 = time.perf_counter()
            for text in payload["graphs"]:
                ca.parse_document(text)
            parse_s = time.perf_counter() - t0
            first = len(probes)
            times = _pass(bound, probes=probes)
            return times, parse_s * calib.factor(before, probes[first]) + sum(times)

        tracer = tracing.Tracer()
        out["untraced_walls"], out["traced_walls"] = [], []
        while True:
            times, wall = timed_pass()
            passes.append(times)
            out["untraced_walls"].append(wall)
            tracer.install()
            try:
                out["traced_walls"].append(timed_pass()[1])
            finally:
                tracer.uninstall()
            if len(passes) >= payload["min_passes"] and time.perf_counter() >= deadline:
                break
        out["trace"] = tracer.snapshot()
    else:
        while len(passes) < payload["min_passes"] or time.perf_counter() < deadline:
            passes.append(_pass(bound, probes=probes))
    out["times"] = passes
    out["probes"] = probes
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def cli(argv):
    import runpy

    import tracing

    _import_program()
    from covadjust import cli  # noqa: F401  (imported, so the tracer patches it)

    tracer = tracing.Tracer()
    tracer.install()
    # started the way ``python -m covadjust`` starts, through runpy, so the
    # traced process does the plain one's work plus the tracing
    sys.argv = ["covadjust", *argv]
    try:
        runpy.run_module("covadjust", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (exc.code is not None)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    print(tracing.MARKER + json.dumps(tracer.snapshot()), file=sys.stderr)
    return code


def main():
    mode = sys.argv[1]
    if mode == "cli":
        sys.exit(cli(sys.argv[2:]))
    payload = json.load(sys.stdin)
    out = setup(payload) if mode == "setup" else run(payload)
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
