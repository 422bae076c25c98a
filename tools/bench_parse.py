"""Time `parse_document` on seeded .cg texts of all four classes.

    python3 tools/bench_parse.py --label change
    python3 tools/bench_parse.py --label parent --src ../parent/src
    python3 tools/bench_parse.py --label change --versus parent=../parent/src

For each class and n in {8, 16, 32, 64, 128, 256, 512} the script draws
one sparse graph (1.2 edges per node before projection) and writes it as
.cg text.  DAGs and CPDAGs come from `perfbench/gen.py`.  MAGs are the
library's `latent_project` of such a DAG with 10% of its nodes hidden
(the benchmark's networkx projection takes a minute at 512 nodes), and
PAGs are `gen.pag_of` of those MAGs.  Each text is timed in three forms,
which must parse to the same graph: as written (`plain`), with a `#`
comment at the end of every line (`comments`), and with the spaces
around the edge operators dropped where that keeps the tokens, as in
`A->B` and `A o->B` (`unspaced`).  The first two are cut into tokens by
whitespace, the third by the parser's regular expression.  A form's
time is five runs, each parsing the text `max(1, 4096 // n)` times, and
the median run divided by that count is the row's time per parse.

`--src` names the source directory the `covadjust` package is imported
from, so one checkout can time another.  `--versus OTHER=SRC` loads a
second `covadjust` package from the source directory SRC into the same
process and times both packages on every row, back to back, the first
package first on even rows and second on odd rows, so the machine's
drift between runs minutes apart stays out of the comparison; the rows
of the second package go under the label OTHER.  The inputs are always
drawn with the package of `--src`.  The result goes under the label
into the JSON file given by `--out` (default `BENCH_parse.json`), beside
the runs of other labels.  Each run records a digest of its texts: two
labels with the same digest parsed the same inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import re
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


def _forms(text):
    """(form, text) of the three forms of `text` that a row times."""
    commented = "\n".join(f"{line}  # note {i}" for i, line in enumerate(text.split("\n")))
    # drop the spaces around each operator, but keep the one before o->
    # and o-o, which would glue to the name before them ("Ao->B")
    unspaced = re.sub(r" (<->|<-o|->|--) ", r"\1", text)
    unspaced = re.sub(r"(o->|o-o) ", r"\1", unspaced)
    return [("plain", text), ("comments", commented), ("unspaced", unspaced)]


def _time(parse, text, reps):
    runs = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        for _ in range(reps):
            parse(text)
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs) / reps


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--versus", metavar="OTHER=SRC", default=None,
                        help="also time the package of SRC, interleaved, under the label OTHER")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_parse.json"))
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gen

    sides = [(args.label, *_load(args.src))]
    if args.versus is not None:
        other, src = versus(parser, args.versus, args.label)
        sides.append((other, *_load(src)))
    _use(sides[0][2])
    texts = [(cls, n, form, text)
             for cls, n, plain in _texts(sides[0][1], gen) for form, text in _forms(plain)]
    rows = {label: [] for label, _, _ in sides}
    plain = {}  # label -> the graph of the row's plain form
    for k, (cls, n, form, text) in enumerate(texts):
        times = []
        for label, ca, modules in sides if k % 2 == 0 else sides[::-1]:
            _use(modules)
            graph = ca.parse_graph(text)
            if form == "plain":
                plain[label] = graph
            elif graph != plain[label] or graph._marks != plain[label]._marks:
                raise SystemExit(f"the {form} form of {cls} n={n} parses to another graph")
            edges = sum(map(len, graph._marks.values())) // 2
            us = _time(ca.parse_document, text, max(1, 4096 // n)) * 1e6
            rows[label].append({"class": cls, "n": n, "form": form, "edges": edges,
                                "bytes": len(text), "us_per_parse": round(us, 1)})
            times.append(f"{label} {us:9.1f} us")
        print(f"{cls:5} n={n:3} {form:8} edges={edges:4} {'  '.join(times)}", flush=True)
    for label, _, _ in sides:
        others = [other for other, _, _ in sides if other != label]
        record(args.out, label, [(cls, n, text) for cls, n, _, text in texts], rows[label],
               "parse_document time per parse (median of 5 runs) of each text as written, "
               "with a comment on every line and with unspaced operators (an interleaved "
               "run alternates two source trees per row), written by tools/bench_parse.py",
               mode={"interleaved_with": others[0] if others else None})


def versus(parser, text, label):
    """(OTHER, SRC) of the option ``--versus OTHER=SRC``; a usage error
    unless both parts are given and OTHER is not the run's own `label`,
    whose rows the other side's would overwrite."""
    other, sep, src = text.partition("=")
    if not sep or not other or not src or other == label:
        parser.error("--versus takes OTHER=SRC with OTHER not the --label")
    return other, src


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
