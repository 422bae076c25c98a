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
time is the fastest of `ROUNDS` runs, each parsing the text
`max(1, 4096 // n)` times, divided by that count: on a shared machine
the minimum is the run least disturbed by other work.  The cyclic
garbage collector runs between the runs, not in them.

The script also times the benchmark's set-up: a fresh process imports
`covadjust` and parses every input of the `cli-corpus` workload (the
corpus figures and `perfbench/inputs`), timed inside the process from
before the import to after the last parse (`setup_ms`, and `import_ms`
for the import alone).  That is `SETUP_RUNS` processes per source tree,
alternating the trees under `--versus`, and one more, under an audit
hook, that lists the `covadjust` modules whose code ran.  The processes
inherit the environment, so with `PYTHONDONTWRITEBYTECODE=1` each one
compiles every module it runs.  They go to `setup_rows` (one row per
process) and `setup_modules`, beside the parse rows.

`--src` names the source directory the `covadjust` package is imported
from, so one checkout can time another.  `--versus OTHER=SRC` loads a
second `covadjust` package from the source directory SRC into the same
process and times both packages on every row, round by round, the
first package first in even rounds and second in odd ones (starting
with the other package on odd rows), so the machine's drift between
runs minutes apart stays out of the comparison; the rows
of the second package go under the label OTHER.  The inputs are always
drawn with the package of `--src`.  The result goes under the label
into the JSON file given by `--out` (default `BENCH_parse.json`), beside
the runs of other labels.  Each run records a digest of its texts: two
labels with the same digest parsed the same inputs.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (8, 16, 32, 64, 128, 256, 512)
CLASSES = ("dag", "cpdag", "mag", "pag")
ROUNDS = 12
SETUP_RUNS = 15

# Defines `log`, an audit hook that adds to `ran` the name of each
# `covadjust` module whose code runs: it sees the module code `exec` runs.
RUN_LOG = r"""
import json, os, sys
ran = set()
def log(event, args):
    code = args[0] if event == "exec" else None
    if getattr(code, "co_name", None) == "<module>":
        folder, file = os.path.split(code.co_filename)
        if os.path.basename(folder) == "covadjust":
            ran.add("covadjust" + ("" if file == "__init__.py" else "." + file[:-3]))
"""

# Imports the package and parses the files named in argv[2:], then prints
# the times; with argv[1] == "modules", under the audit hook, it prints
# the modules whose code ran instead.
SETUP = RUN_LOG + r"""
import time
if sys.argv[1] == "modules":
    sys.addaudithook(log)
texts = []
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        texts.append(fh.read())
t0 = time.perf_counter()
import covadjust
t1 = time.perf_counter()
for text in texts:
    covadjust.parse_document(text)
t2 = time.perf_counter()
print(json.dumps(sorted(ran) if sys.argv[1] == "modules"
                 else {"setup_ms": (t2 - t0) * 1e3, "import_ms": (t1 - t0) * 1e3}))
"""


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
    """Seconds per parse of one run of `reps` parses.  The cyclic garbage
    collector runs before the run and not during it, as in `timeit`."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(reps):
            parse(text)
        return (time.perf_counter() - t0) / reps
    finally:
        gc.enable()


def _setup(src, mode, files):
    proc = subprocess.run([sys.executable, "-c", SETUP, mode, *files], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _setup_runs(sides, files):
    """label -> (one row per set-up process, the modules whose code ran)."""
    rows = {label: [] for label, _ in sides}
    for run in range(SETUP_RUNS):
        for label, src in sides if run % 2 == 0 else sides[::-1]:
            row = {key: round(ms, 3) for key, ms in _setup(src, "time", files).items()}
            rows[label].append({"run": run, **row})
    return {label: (rows[label], _setup(src, "modules", files)) for label, src in sides}


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
    import corpus
    import gen

    trees = [(args.label, args.src)]
    if args.versus is not None:
        trees.append(versus(parser, args.versus, args.label))
    setups = _setup_runs(trees, corpus.input_files())
    for label, (setup_rows, modules) in setups.items():
        ms = [row["setup_ms"] for row in setup_rows]
        print(f"{label:8} set-up {statistics.median(ms):7.2f} ms (median of {len(ms)}),"
              f" {len(modules)} modules: {' '.join(modules)}", flush=True)
    sides = [(label, *_load(src)) for label, src in trees]
    _use(sides[0][2])
    texts = [(cls, n, form, text)
             for cls, n, plain in _texts(sides[0][1], gen) for form, text in _forms(plain)]
    rows = {label: [] for label, _, _ in sides}
    plain = {}  # label -> the graph of the row's plain form
    for k, (cls, n, form, text) in enumerate(texts):
        for label, ca, modules in sides:
            _use(modules)
            graph = ca.parse_graph(text)
            if form == "plain":
                plain[label] = graph
            elif graph != plain[label] or graph._marks != plain[label]._marks:
                raise SystemExit(f"the {form} form of {cls} n={n} parses to another graph")
            edges = sum(map(len, graph._marks.values())) // 2
        best = {}
        for r in range(ROUNDS):
            for label, ca, modules in sides if (k + r) % 2 == 0 else sides[::-1]:
                _use(modules)
                seconds = _time(ca.parse_document, text, max(1, 4096 // n))
                best[label] = min(best.get(label, seconds), seconds)
        for label, _, _ in sides:
            rows[label].append({"class": cls, "n": n, "form": form, "edges": edges,
                                "bytes": len(text), "us_per_parse": round(best[label] * 1e6, 1)})
        times = "  ".join(f"{label} {best[label] * 1e6:9.1f} us" for label, _, _ in sides)
        print(f"{cls:5} n={n:3} {form:8} edges={edges:4} {times}", flush=True)
    for label, _, _ in sides:
        others = [other for other, _, _ in sides if other != label]
        record(args.out, label, [(cls, n, text) for cls, n, _, text in texts], rows[label],
               f"parse_document time per parse (fastest of {ROUNDS} runs) of each text as "
               "written, with a comment on every line and with unspaced operators (an "
               "interleaved run alternates two source trees round by round), and in "
               "setup_rows the time of "
               "fresh processes that import covadjust and parse every cli-corpus input, "
               "written by tools/bench_parse.py",
               mode={"interleaved_with": others[0] if others else None},
               setup_rows=setups[label][0], setup_modules=setups[label][1])


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
