"""Time `satisfies_gac` on the seeded graphs of `tools/bench_parse.py`.

    python3 tools/bench_decide.py --label change
    python3 tools/bench_decide.py --label parent --src ../parent/src

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

The machine's speed drifts between runs minutes apart, so each timed
run is scaled to the reference speed of `perfbench/calib.py`, probed
just before and just after it, as the benchmark scales its op times.

`--src` names the source directory the `covadjust` package is imported
from, so one checkout can time another.  The result goes under the label
into the JSON file given by `--out` (default `BENCH_decide.json`), beside
the runs of other labels, with a digest of the texts as in
`BENCH_parse.json`.
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


def _queries(ca, g, rng):
    """(x, y, z) for Z empty and for a random Z, drawn from `rng`."""
    names = list(g.nodes)
    x = rng.choice(names)
    below = sorted(ca.possible_descendants(g, {x}) - {x}, key=g.node_index.__getitem__)
    y = rng.choice(below or [v for v in names if v != x])
    rest = [v for v in names if v not in (x, y)]
    z = frozenset(rng.sample(rest, len(rest) // 10))
    return [(frozenset([x]), frozenset([y]), frozenset()), (frozenset([x]), frozenset([y]), z)]


def _time(fn, arg, reps):
    """Per call: the median of `bench_parse.RUNS` runs of `reps` calls
    `fn(arg)`, each run scaled to the reference machine speed."""
    import calib

    runs = []
    for _ in range(bench_parse.RUNS):
        before = calib.probe()
        t0 = time.perf_counter()
        for _ in range(reps):
            fn(arg)
        elapsed = time.perf_counter() - t0
        runs.append(elapsed * calib.factor(before, calib.probe()))
    return statistics.median(runs) / reps


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_decide.json"))
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "perfbench")]
    import gen

    import covadjust as ca

    texts = bench_parse._texts(ca, gen)
    rows = []
    for cls, n, text in texts:
        g = ca.parse_graph(text)
        rng = random.Random(f"bench-decide-{cls}-{n}")
        for x, y, z in _queries(ca, g, rng):
            query = ca.AdjustmentQuery(g, x, y, z)
            verdict = ca.satisfies_gac(query)
            us = _time(ca.satisfies_gac, query, max(1, 4096 // n)) * 1e6
            rows.append({"class": cls, "n": n, "z_size": len(z),
                         "failed": verdict.failed_condition, "us_per_decision": round(us, 1)})
            print(f"{cls:5} n={n:3} |Z|={len(z):2} {verdict.failed_condition or 'pass':5} "
                  f"{us:9.1f} us", flush=True)
    bench_parse.record(args.out, args.label, texts, rows,
                       "satisfies_gac time per decision (median of 5 runs, each scaled "
                       "to the reference speed of perfbench/calib.py), "
                       "written by tools/bench_decide.py")


if __name__ == "__main__":
    main()
