"""Time `satisfies_gac` on the seeded graphs of `tools/bench_parse.py`.

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
same thing.

With `--cold` every timed call decides on a fresh copy of the graph,
built untimed before its run, so whatever a graph builds on first use
(its step table, its visibility memo) is paid inside the timed call, as
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
import importlib
import os
import random
import statistics
import sys
import time

import bench_parse

ROOT = bench_parse.ROOT


def _load(src):
    """The `covadjust` package of the source directory `src` and its
    modules, taken out of `sys.modules` so that another source directory's
    package can be loaded beside it (`_use` puts them back)."""
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    try:
        ca = importlib.import_module("covadjust")
    finally:
        sys.path.remove(src)
    if not os.path.abspath(ca.__file__).startswith(src + os.sep):
        raise SystemExit(f"covadjust was imported from {ca.__file__}, not {src}")
    return ca, _unload()


def _unload():
    return {name: sys.modules.pop(name) for name in list(sys.modules)
            if name == "covadjust" or name.startswith("covadjust.")}


def _use(modules):
    """Make `modules` the `covadjust` package that imports inside the
    library's functions resolve to."""
    _unload()
    sys.modules.update(modules)


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
    """Per call: the median of `bench_parse.RUNS` runs, each calling `fn`
    on the `reps` arguments `make_args(reps)` builds untimed before it and
    scaled to the reference machine speed."""
    import calib

    runs = []
    for _ in range(bench_parse.RUNS):
        args = make_args(reps)
        before = calib.probe()
        t0 = time.perf_counter()
        for arg in args:
            fn(arg)
        elapsed = time.perf_counter() - t0
        runs.append(elapsed * calib.factor(before, calib.probe()))
    return statistics.median(runs) / reps


def _row(ca, text, x, y, z, cold, reps):
    """(failed condition, microseconds per decision) of one query."""
    g = ca.parse_graph(text)
    query = ca.AdjustmentQuery(g, x, y, z)
    verdict = ca.satisfies_gac(query)
    if cold:
        cls, nodes, edges = g.graph_class, g.nodes, g.edges

        def make_args(count):
            return [ca.AdjustmentQuery(ca.Graph(cls, nodes, edges), x, y, z)
                    for _ in range(count)]
    else:
        def make_args(count):
            return [query] * count
    return verdict.failed_condition, _time(ca.satisfies_gac, make_args, reps) * 1e6


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

    sides = [(args.label, *_load(args.src))]
    if args.versus is not None:
        other, sep, src = args.versus.partition("=")
        if not sep or not other or not src or other == args.label:
            parser.error("--versus takes OTHER=SRC with OTHER not the --label")
        sides.append((other, *_load(src)))
    _use(sides[0][2])
    texts = bench_parse._texts(sides[0][1], gen)
    rows = {label: [] for label, _, _ in sides}
    k = 0
    for cls, n, text in texts:
        rng = random.Random(f"bench-decide-{cls}-{n}")
        for x, y, z in _queries(sides[0][1], sides[0][1].parse_graph(text), rng):
            order = sides if k % 2 == 0 else sides[::-1]
            k += 1
            for label, ca, modules in order:
                _use(modules)
                failed, us = _row(ca, text, x, y, z, args.cold, max(1, 4096 // n))
                rows[label].append({"class": cls, "n": n, "z_size": len(z), "failed": failed,
                                    "us_per_decision": round(us, 1)})
            last = [rows[label][-1] for label, _, _ in sides]
            times = "  ".join(f"{label} {row['us_per_decision']:9.1f} us"
                              for (label, _, _), row in zip(sides, last))
            verdicts = "/".join(sorted({row["failed"] or "pass" for row in last}))
            print(f"{cls:5} n={n:3} |Z|={len(z):2} {verdicts:5} {times}", flush=True)
    for label, _, _ in sides:
        others = [other for other, _, _ in sides if other != label]
        mode = {"cold": args.cold, "interleaved_with": others[0] if others else None}
        bench_parse.record(args.out, label, texts, rows[label],
                           "satisfies_gac time per decision (median of 5 runs, each scaled "
                           "to the reference speed of perfbench/calib.py; a cold run decides "
                           "on a fresh graph per call, an interleaved run alternates two "
                           "source trees per row), written by tools/bench_decide.py",
                           mode=mode)


if __name__ == "__main__":
    main()
