"""Collect sets of benchmark runs and compare two of them.

    python3 perfbench/compare.py collect perfbench/results/base --seeds 1-10
    python3 perfbench/compare.py diff perfbench/results/base perfbench/results/change

``collect`` runs ``run.py`` once per workload and seed (``--trace 0``
unless ``--trace 1``) and stores each result line as
``<dir>/<workload>-<seed>-t<trace>.json``.  ``diff`` prints, per workload
and metric, each set's median and quartiles, the change of the medians,
the metric's bound from BENCHMARK.json, and a verdict: ``ok``,
``REGRESSION`` (the second median is worse by more than the bound), or
``unresolved`` (the first set's own quartile spread exceeds the bound),
plus the failed share of each set.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _bench():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def collect(args):
    bench = _bench()
    os.makedirs(args.out, exist_ok=True)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    for name in names:
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}")
            line = proc.stdout.strip().splitlines()[-1]
            path = os.path.join(args.out, f"{name}-{seed}-t{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(line + "\n")
            print(path, line[:120], flush=True)


def _load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-t*.json"))):
        workload = os.path.basename(path).rsplit("-", 2)[0]
        with open(path, encoding="utf-8") as fh:
            runs.setdefault(workload, []).append(json.load(fh))
    return runs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def diff(args):
    bench = _bench()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    a_runs, b_runs = _load(args.a), _load(args.b)
    for workload in sorted(set(a_runs) & set(b_runs)):
        a, b = a_runs[workload], b_runs[workload]
        share = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in (a, b)]
        print(f"\n{workload}: {len(a)} vs {len(b)} runs, failed share {share[0]:.4f} vs "
              f"{share[1]:.4f}, all correct: {all(r['correct'] for r in a + b)}")
        print(f"  {'metric':34s} {'A median [Q1, Q3]':>30s} {'B median [Q1, Q3]':>30s}"
              f" {'change':>8s} {'bound':>6s}  verdict")
        for name in a[0]["metrics"]:
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            if not vb:
                continue
            qa, qb = _quartiles(va), _quartiles(vb)
            unit = a[0]["metrics"][name]["unit"]
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            verdict = ""
            if name in bounds:
                bound = bounds[name]["bound"]
                worse = change if bounds[name]["better"] == "lower" else -change
                spread = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
                if worse > bound:
                    verdict = "REGRESSION"
                elif spread > bound:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
            bound_text = f"{bounds[name]['bound']:.2f}" if name in bounds else ""
            print(f"  {name:34s} {qa[1]:12.4g} [{qa[0]:.4g}, {qa[2]:.4g}] "
                  f"{qb[1]:12.4g} [{qb[0]:.4g}, {qb[2]:.4g}] {change:+8.1%} {bound_text:>6s}"
                  f"  {verdict} ({unit})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("collect", help="run every workload on a range of seeds")
    p.add_argument("out")
    p.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p = sub.add_parser("diff", help="compare two collected sets")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    (collect if args.cmd == "collect" else diff)(args)


if __name__ == "__main__":
    main()
