"""Time `verify`, or every command, on every corpus figure, end to end.

    python3 tools/bench_verify.py --label change
    python3 tools/bench_verify.py --label parent --src ../parent/src
    python3 tools/bench_verify.py --label change --versus parent=../parent/src
    python3 tools/bench_verify.py --command all --label change --versus parent=../parent/src

For each figure of `corpus/` the script runs `python -m covadjust verify
--graph corpus/<figure>.cg` (the file's query, the default 20 trials and
seed 0) seven times, each time in a fresh process, and records the
median wall time of the process from spawn to exit (`process_ms`) and
the median `elapsed_ms` the command reports (its work after argument
parsing: reading and parsing the file, the class check and the
certificate, lazy imports included).  One more process per figure
imports the package, parses the figure and calls `verify_adjustment` on
its query eight times: the first call pays the lazy imports
(`first_call_ms`), the median of the others is `call_ms`.  That process
then reports which of `numpy` and `fractions` were loaded.  A figure
whose graph is not amenable for its query is refused (exit 1); its
calls time the refusal.

`--command NAME` times another command the same way, and `--command all`
times each of `COMMANDS` (every command but `project`, which needs a DAG,
and the corpus has none).  Their rows give, per figure and command, the
exit code, `process_ms`, `elapsed_ms`, `modules`, the `covadjust`
modules whose code ran, and `source_bytes`, the total size of their
source files, from one more process that runs the command under an
audit hook.  No `.pyc` is written where `PYTHONDONTWRITEBYTECODE` is
set, so each process compiles that source: `source_bytes` measures the
compile work without timing noise.  They go to `BENCH_cli.json` by
default.

`--src` names the source directory the `covadjust` package is imported
from, so one checkout can time another; the figures are always this
checkout's.  `--versus OTHER=SRC` times a second source directory in the
same run, each repeat of each figure back to back, first one side and
then the other, alternating which goes first, so that the drift of a
shared machine's speed between minutes falls on both sides alike; its
rows go under the label OTHER.  The result goes under each label into
the JSON file given by `--out` (default `BENCH_verify.json` for `verify`,
else `BENCH_cli.json`), beside the runs of other labels, with a digest
of the figure texts and the totals over the ten figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import bench_parse

ROOT = bench_parse.ROOT
CORPUS = os.path.join(ROOT, "corpus")
RUNS = 7
COMMANDS = ["validate", "amenable", "forbidden", "check", "backdoor", "list", "mec", "verify"]

# Times verify_adjustment in its own process: argv is the figure and the
# number of timed calls after the first.
IN_PROCESS = r"""
import json, statistics, sys, time
import covadjust as ca
from covadjust.errors import NotAmenableError
path, runs = sys.argv[1], int(sys.argv[2])
with open(path, encoding="utf-8") as fh:
    doc = ca.parse_document(fh.read())
q = doc.query
times = []
for _ in range(runs + 1):
    t0 = time.perf_counter()
    try:
        ca.verify_adjustment(doc.graph, q.x, q.y[0], q.z or ())
    except NotAmenableError:
        pass
    times.append(time.perf_counter() - t0)
print(json.dumps({"first_call_ms": times[0] * 1e3, "call_ms": statistics.median(times[1:]) * 1e3,
                  "numpy_loaded": "numpy" in sys.modules,
                  "fractions_loaded": "fractions" in sys.modules}))
"""


# Runs `python -m covadjust` with argv and then writes, as the last line
# of stderr, the sorted names of the covadjust modules whose code ran and
# the total size in bytes of their source files.
MODULES_RAN = bench_parse.RUN_LOG + r"""
import runpy
sys.addaudithook(log)
sys.argv = ["covadjust", *sys.argv[1:]]
try:
    runpy.run_module("covadjust", run_name="__main__", alter_sys=True)
finally:
    folder = os.path.dirname(sys.modules["covadjust"].__file__)
    size = sum(os.path.getsize(os.path.join(folder, (name.partition(".")[2] or "__init__") + ".py"))
               for name in ran)
    print(json.dumps([sorted(ran), size]), file=sys.stderr)
"""


def _env(src):
    return dict(os.environ, PYTHONPATH=os.path.abspath(src))


def _cli(src, command, path):
    """One command process: (wall ms, exit code, parsed JSON output)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "covadjust", command, "--graph", path],
                          cwd=ROOT, env=_env(src), capture_output=True, text=True)
    wall = (time.perf_counter() - t0) * 1e3
    return wall, proc.returncode, json.loads(proc.stdout)


def _modules_ran(src, command, path):
    proc = subprocess.run([sys.executable, "-c", MODULES_RAN, command, "--graph", path],
                          cwd=ROOT, env=_env(src), capture_output=True, text=True)
    return json.loads(proc.stderr.splitlines()[-1])


def _in_process(src, path, runs):
    proc = subprocess.run([sys.executable, "-c", IN_PROCESS, path, str(runs)],
                          cwd=ROOT, env=_env(src), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--command", default="verify", choices=[*COMMANDS, "all"],
                        metavar="NAME|all")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"))
    parser.add_argument("--versus", default=None, metavar="OTHER=SRC")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    verify = args.command == "verify"
    out = args.out or os.path.join(ROOT, "BENCH_verify.json" if verify else "BENCH_cli.json")
    commands = COMMANDS if args.command == "all" else [args.command]
    sides = [(args.label, args.src)]
    if args.versus is not None:
        sides.append(bench_parse.versus(parser, args.versus, args.label))
    figures = sorted(f[:-3] for f in os.listdir(CORPUS) if f.endswith(".cg"))
    texts = []
    rows = {label: [] for label, _ in sides}
    for fig in figures:
        path = os.path.join(CORPUS, f"{fig}.cg")
        with open(path, encoding="utf-8") as fh:
            texts.append((fig, None, fh.read()))
        for command in commands:
            walls = {label: [] for label, _ in sides}
            outputs = {}
            for rep in range(RUNS):
                for label, src in (sides if rep % 2 == 0 else sides[::-1]):
                    wall, code, payload = _cli(src, command, path)
                    walls[label].append((wall, payload["elapsed_ms"]))
                    outputs[label] = code, payload["result"]
            for label, src in sides:
                code, result = outputs[label]
                row = {"figure": fig, "exit": code,
                       "process_ms": round(statistics.median(w for w, _ in walls[label]), 1),
                       "elapsed_ms": round(statistics.median(e for _, e in walls[label]), 2)}
                if verify:
                    row["sound"] = result["sound"]
                    for key, value in _in_process(src, path, RUNS).items():
                        row[key] = round(value, 2) if isinstance(value, float) else value
                    detail = f"{row['call_ms']:7.2f} ms call numpy={row['numpy_loaded']}"
                else:
                    row["command"] = command
                    row["modules"], row["source_bytes"] = _modules_ran(src, command, path)
                    detail = (f"{command:9} {len(row['modules'])} modules"
                              f" {row['source_bytes']} source bytes")
                rows[label].append(row)
                print(f"{label:8} {fig:10} exit {code} {row['process_ms']:7.1f} ms process"
                      f" {row['elapsed_ms']:7.2f} ms elapsed {detail}", flush=True)
    for label, _ in sides:
        if verify:
            totals = {key: round(sum(r[key] for r in rows[label]), 1)
                      for key in ("process_ms", "elapsed_ms", "first_call_ms", "call_ms")}
            about = ("verify on each corpus figure: median process wall time and reported "
                     "elapsed_ms over fresh processes, and in-process verify_adjustment "
                     "times, written by tools/bench_verify.py")
        else:
            totals = {command: {key: round(sum(r[key] for r in rows[label]
                                               if r["command"] == command), 1)
                                for key in ("process_ms", "elapsed_ms", "source_bytes")}
                      for command in commands}
            about = ("each command on each corpus figure: median process wall time and "
                     "reported elapsed_ms over fresh processes, and the covadjust modules "
                     "whose code ran with the bytes of their source, written by "
                     "tools/bench_verify.py --command")
        print(f"{label:8} totals {totals}")
        bench_parse.record(out, label, texts, rows[label], about, runs=RUNS, totals=totals)


if __name__ == "__main__":
    main()
