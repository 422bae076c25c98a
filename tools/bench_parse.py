"""Time `parse_document` on seeded .cg texts of all four classes.

    python3 tools/bench_parse.py --label change
    python3 tools/bench_parse.py --label parent --src ../parent/src

For each class and n in {8, 16, 32, 64, 128, 256, 512} the script draws
one sparse graph (1.2 edges per node before projection), writes it as
.cg text and times `parse_document` on it: five runs, each parsing the
text `max(1, 4096 // n)` times, and the median run divided by that count
is the row's time per parse.  DAGs and CPDAGs come from
`perfbench/gen.py`.  MAGs are the library's `latent_project` of such a
DAG with 10% of its nodes hidden (the benchmark's networkx projection
takes a minute at 512 nodes), and PAGs are `gen.pag_of` of those MAGs.

`--src` names the source directory the `covadjust` package is imported
from, so one checkout can time another.  The result goes under the label
into the JSON file given by `--out` (default `BENCH_parse.json`), beside
the runs of other labels.  Each run records a digest of its texts:
two labels with the same digest parsed the same inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (8, 16, 32, 64, 128, 256, 512)
CLASSES = ("dag", "cpdag", "mag", "pag")
RUNS = 5


def _texts(ca, gen):
    """(class, n, text) for every class and size, from fixed seeds."""
    out = []
    for n in SIZES:
        for cls in CLASSES:
            rng = random.Random(f"bench-parse-{cls}-{n}")
            dag = gen.random_dag(rng, n, int(1.2 * n))
            if cls == "dag":
                g = dag
            elif cls == "cpdag":
                g = gen.cpdag_of(dag)
            else:
                hidden = set(rng.sample(dag.nodes, max(1, n // 10)))
                observed = [v for v in dag.nodes if v not in hidden]
                mag = ca.latent_project(ca.parse_graph(gen.to_cg(dag)), observed)
                g, _ = gen.parse_cg(ca.serialize_graph(mag))
                if cls == "pag":
                    g = gen.pag_of(g)
            out.append((cls, n, gen.to_cg(g)))
    return out


def _time(parse, text, reps):
    runs = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        for _ in range(reps):
            parse(text)
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs) / reps


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_parse.json"))
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "perfbench")]
    import gen

    import covadjust as ca

    texts = _texts(ca, gen)
    rows = []
    for cls, n, text in texts:
        graph = ca.parse_graph(text)
        edges = sum(map(len, graph._marks.values())) // 2
        us = _time(ca.parse_document, text, max(1, 4096 // n)) * 1e6
        rows.append({"class": cls, "n": n, "edges": edges, "bytes": len(text),
                     "us_per_parse": round(us, 1)})
        print(f"{cls:5} n={n:3} edges={edges:4} {us:9.1f} us", flush=True)
    record(args.out, args.label, texts, rows,
           "parse_document time per parse (median of 5 runs), written by tools/bench_parse.py")


def record(path, label, texts, rows, about, **fields):
    """Put one run's rows under `label` in the JSON file `path`, beside
    the runs of other labels, with a digest of the texts it ran on and
    any further `fields` of the run (its `mode`, its totals)."""
    digest = hashlib.sha256("".join(t for _, _, t in texts).encode()).hexdigest()[:16]
    result = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
    result.setdefault("runs", {})[label] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "date": time.strftime("%Y-%m-%d"),
        "texts_sha256": digest,
        "rows": rows,
        **fields,
    }
    result["about"] = about
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
