"""Time GAC and back-door decisions and Cond0 witnesses on the graphs of `tools/bench_parse.py`.

    python3 tools/bench_decide.py --label change
    python3 tools/bench_decide.py --label parent --src ../parent/src
    python3 tools/bench_decide.py --label change --versus parent=../parent/src
    python3 tools/bench_decide.py --label change-cold --versus parent-cold=../parent/src --cold

For each class and n in {8, 16, 32, 64, 128, 256, 512} the script parses
the text that `bench_parse` draws for that row and asks two queries of
it: X is one seeded random node, Y a seeded random possible descendant
of X (any other node if X has none), and Z is first empty, then a
seeded random tenth of the other nodes.  Each decision runs once
untimed, so the graph's lazy tables are built, then five times `reps`
calls are timed (`reps = max(1, 4096 // n)`), and the median run
divided by `reps` is the row's time per decision.  The row also holds
each verdict's failed condition, so two runs can be seen to decide the
same thing.  `satisfies_generalized_backdoor` is timed the same way on
the same two queries, into `backdoor_rows`.

Each CPDAG, MAG and PAG row also times `find_amenability_violation` on
one query that is not amenable: the first of up to 100 draws of X and Y
as above that has a violation.  These rows go to `witness_rows`, with the
witness and its time per call (`us_per_witness`), timed as a decision is.

With `--cold` every timed call decides on a fresh copy of the graph,
built untimed before its run, so whatever a graph builds on first use
(its step table, its visibility table) is paid inside the timed call, as
a one-shot command pays it.

The machine's speed drifts between runs minutes apart, so each timed
run is scaled to the reference speed of `perfbench/calib.py`, probed
just before and just after it, as the benchmark scales its op times.
That leaves a drift of tens of percent per row between two runs of the
script.  `--versus OTHER=SRC` takes that drift out of a comparison: it
loads a second `covadjust` package from the source directory SRC into
the same process and times both packages on every row, back to back,
the first package first on even rows and second on odd rows.  The rows
of the second package go under the label OTHER.

`--src` names the source directory the `covadjust` package is imported
from, so one checkout can time another; the inputs are always drawn
with that package.  The result goes under the label into the JSON file
given by `--out` (default `BENCH_decide.json`), beside the runs of
other labels, with a digest of the texts as in `BENCH_parse.json` and
the mode of the run.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time

import bench_parse

ROOT = bench_parse.ROOT
RUNS = 5


def _queries(ca, g, rng):
    """(x, y, z) for Z empty and for a random Z, drawn from `rng`."""
    names = list(g.nodes)
    x = rng.choice(names)
    below = sorted(ca.possible_descendants(g, {x}) - {x}, key=g.node_index.__getitem__)
    y = rng.choice(below or [v for v in names if v != x])
    rest = [v for v in names if v not in (x, y)]
    z = frozenset(rng.sample(rest, len(rest) // 10))
    return [(frozenset([x]), frozenset([y]), frozenset()), (frozenset([x]), frozenset([y]), z)]


def _time(fn, make_args, reps):
    """Per call: the median of `RUNS` runs, each calling `fn`
    on the `reps` arguments `make_args(reps)` builds untimed before it and
    scaled to the reference machine speed."""
    import calib

    runs = []
    for _ in range(RUNS):
        args = make_args(reps)
        before = calib.probe()
        t0 = time.perf_counter()
        for arg in args:
            fn(arg)
        elapsed = time.perf_counter() - t0
        runs.append(elapsed * calib.factor(before, calib.probe()))
    return statistics.median(runs) / reps


def _graphs(ca, g, cold):
    """`make(count)`: `count` times `g`, or with `cold` a fresh copy each time."""
    if not cold:
        return lambda count: [g] * count
    cls, nodes, edges = g.graph_class, g.nodes, g.edges
    return lambda count: [ca.Graph(cls, nodes, edges) for _ in range(count)]


def _row(ca, text, x, y, z, cold, reps):
    """(failed condition, microseconds per decision) of one query."""
    g = ca.parse_graph(text)
    verdict = ca.satisfies_gac(ca.AdjustmentQuery(g, x, y, z))
    graphs = _graphs(ca, g, cold)

    def make_args(count):
        return [ca.AdjustmentQuery(h, x, y, z) for h in graphs(count)]

    return verdict.failed_condition, _time(ca.satisfies_gac, make_args, reps) * 1e6


def _backdoor_row(ca, text, x, y, z, cold, reps):
    """(failed condition, microseconds per back-door decision) of one query."""
    g = ca.parse_graph(text)
    verdict = ca.satisfies_generalized_backdoor(g, x, y, z)
    us = _time(lambda h: ca.satisfies_generalized_backdoor(h, x, y, z), _graphs(ca, g, cold), reps)
    return verdict.failed_condition, us * 1e6


def _witness_query(ca, g, rng):
    """(x, y) of the first of up to 100 draws of `_queries` that is not
    amenable, or None."""
    for _ in range(100):
        x, y, _ = _queries(ca, g, rng)[0]
        if ca.find_amenability_violation(g, x, y) is not None:
            return x, y
    return None


def _witness_row(ca, text, x, y, cold, reps):
    """(Cond0 witness, microseconds per `find_amenability_violation`)."""
    g = ca.parse_graph(text)
    witness = ca.find_amenability_violation(g, x, y)
    us = _time(lambda h: ca.find_amenability_violation(h, x, y), _graphs(ca, g, cold), reps)
    return witness, us * 1e6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--versus", metavar="OTHER=SRC", default=None,
                        help="also time the package of SRC, interleaved, under the label OTHER")
    parser.add_argument("--cold", action="store_true", help="a fresh graph for every timed call")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_decide.json"))
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gen

    sides = [(args.label, *bench_parse._load(args.src))]
    if args.versus is not None:
        other, src = bench_parse.versus(parser, args.versus, args.label)
        sides.append((other, *bench_parse._load(src)))
    bench_parse._use(sides[0][2])
    first = sides[0][1]
    texts = bench_parse._texts(first, gen)
    rows = {label: [] for label, _, _ in sides}
    backdoor_rows = {label: [] for label, _, _ in sides}
    witness_rows = {label: [] for label, _, _ in sides}
    k = 0

    def interleaved(name, measure, table, key, what):
        """Put each side's row `measure(ca)` in `table`, the first side
        first on even calls, and print `name`, the rows' `what` and times."""
        nonlocal k
        order = sides if k % 2 == 0 else sides[::-1]
        k += 1
        for label, ca, modules in order:
            bench_parse._use(modules)
            table[label].append(measure(ca))
        last = [table[label][-1] for label, _, _ in sides]
        times = "  ".join(f"{label} {row[key]:9.1f} us" for (label, _, _), row in zip(sides, last))
        outcomes = "/".join(sorted({str(row[what] or "pass") for row in last}))
        print(f"{name:8} {last[0]['class']:5} n={last[0]['n']:3} {outcomes} {times}", flush=True)

    for cls, n, text in texts:
        reps = max(1, 4096 // n)
        rng = random.Random(f"bench-decide-{cls}-{n}")
        for x, y, z in _queries(first, first.parse_graph(text), rng):
            def decide(ca):
                failed, us = _row(ca, text, x, y, z, args.cold, reps)
                return {"class": cls, "n": n, "z_size": len(z), "failed": failed,
                        "us_per_decision": round(us, 1)}

            interleaved("gac", decide, rows, "us_per_decision", "failed")

            def backdoor(ca):
                failed, us = _backdoor_row(ca, text, x, y, z, args.cold, reps)
                return {"class": cls, "n": n, "z_size": len(z), "failed": failed,
                        "us_per_decision": round(us, 1)}

            interleaved("backdoor", backdoor, backdoor_rows, "us_per_decision", "failed")
        pick = None if cls == "dag" else _witness_query(
            first, first.parse_graph(text), random.Random(f"bench-witness-{cls}-{n}"))
        if pick is not None:
            def witness(ca):
                found, us = _witness_row(ca, text, *pick, args.cold, reps)
                return {"class": cls, "n": n, "witness": list(found),
                        "us_per_witness": round(us, 1)}

            interleaved("witness", witness, witness_rows, "us_per_witness", "witness")
    for label, _, _ in sides:
        others = [other for other, _, _ in sides if other != label]
        mode = {"cold": args.cold, "interleaved_with": others[0] if others else None}
        bench_parse.record(args.out, label, texts, rows[label],
                           "satisfies_gac time per decision, in backdoor_rows "
                           "satisfies_generalized_backdoor time per decision on the same "
                           "queries, and in witness_rows "
                           "find_amenability_violation time per call on one query per CPDAG, "
                           "MAG and PAG row that is not amenable (median of 5 runs, each scaled "
                           "to the reference speed of perfbench/calib.py; a cold run decides "
                           "on a fresh graph per call, an interleaved run alternates two "
                           "source trees per row), written by tools/bench_decide.py",
                           mode=mode, backdoor_rows=backdoor_rows[label],
                           witness_rows=witness_rows[label])


if __name__ == "__main__":
    main()
