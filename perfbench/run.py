"""covadjust benchmark: one workload per invocation, one JSON line out.

    python3 perfbench/run.py --workload cli-corpus --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src`` and its command line is run as ``python -m covadjust``.  Every
workload is a closed loop with one client on this machine, repeats whole
rounds (passes) of the same operations until ``--seconds`` have passed,
and checks every output (see README.md).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds
and prints the per-layer metrics, including the tracing overhead.  Every
time is scaled to a reference speed of the machine (calib.py).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 5  # before the timed loop, and again after it
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 170
MIN_PASSES = 3  # in-process workloads: at least three timed passes
MIN_ROUNDS = 3  # cli-corpus: every op's time is its lower quartile of at least three rounds
IMPORT_MODULES = ["covadjust", "covadjust.errors", "covadjust.graphs", "covadjust.cgtext",
                  "covadjust.paths", "covadjust.criteria", "covadjust.mec", "covadjust.sem",
                  "covadjust.cli"]
FAMILIES = ["decide", "list", "mec", "validate", "verify", "project"]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, stdin=b""):
    """Run one child to completion: (exit code, stdout, stderr)."""
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_env())
    try:
        out, err = proc.communicate(stdin, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"child {argv} ran over {CHILD_TIMEOUT_S} s")
    return proc.returncode, out, err


def run_cli(argv):
    """One CLI process, timed from spawn to reap, with its peak RSS."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_env())
    out = proc.stdout.read()  # stderr carries a few lines at most, never a full pipe
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out, err, wall, usage.ru_maxrss / 1024.0


def pct(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(round(q / 100.0 * len(s) + 0.5)) - 1))]


def warm_up():
    """Import the program once before timing, so the first timed process
    does not pay for reading its files from disk or, where Python writes
    bytecode, for writing its bytecode cache; users pay both once."""
    code, _, err = run_child([sys.executable, "-c", "import covadjust.cli"])
    if code != 0:
        raise SystemExit(f"cannot import covadjust from src: {err.decode(errors='replace')}")


def setup_samples(texts, repeats):
    """Import plus parsing every input, each time in a fresh process."""
    samples = []
    payload = json.dumps({"graphs": texts}).encode()
    for _ in range(repeats):
        code, out, err = run_child([sys.executable, WORKER, "setup"], payload)
        if code != 0:
            raise SystemExit(f"setup failed: {err.decode(errors='replace')}")
        samples.append(json.loads(out))
    return samples


def setup_summary(samples):
    """Medians over the set-up samples, which are taken before and after
    the timed loop so that they see the machine in more than one state."""
    return {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "import_ms": statistics.median(s["import_s"] for s in samples) * 1000.0,
        "modules": samples[0]["modules"],
    }


def import_self_times():
    """Per-module import times from ``python -X importtime`` (median of runs)."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        _, _, err = run_child([sys.executable, "-X", "importtime", "-c", "import covadjust.cli"])
        row = {}
        for line in err.decode().splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
            if m:
                row[m.group(4)] = (int(m.group(1)), int(m.group(2)))
        runs.append(row)
    out = {}
    for name in IMPORT_MODULES:
        out[f"import.{name}.self_ms"] = (
            statistics.median(r.get(name, (0, 0))[0] for r in runs) / 1000.0, "ms")
    out["import.numpy.cumulative_ms"] = (
        statistics.median(r.get("numpy", (0, 0))[1] for r in runs) / 1000.0, "ms")
    return out


def quartile_times(passes):
    """Each op's lower-quartile time over the passes (at least three).
    The times are already scaled to the reference speed (see calib.py),
    which removes most of a slow phase of the shared machine, but not all
    of it: the program slows a little more than the reference loop does.
    Load from outside only ever lengthens an op, so the faster quarter of
    its repeats is its cost in the calmer stretches of the run.  Unlike
    the fastest repeat, it hardly moves with the number of passes."""
    return [statistics.quantiles(ts, n=4)[0] for ts in zip(*passes)]


def latency_metrics(passes, rss_mb, setup_s):
    """End-to-end metrics from the op times (s) of the timed passes."""
    ms = [t * 1000.0 for t in quartile_times(passes)]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ms) * 1000.0 / sum(ms), "ops/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "op_ms_p50": (pct(ms, 50), "ms"),
        "op_ms_p90": (pct(ms, 90), "ms"),
    }


def family_metrics(samples):
    """Median time per operation family; 0 where the workload has none."""
    out = {}
    for fam in FAMILIES:
        vals = [t * 1000.0 for f, t in samples if f == fam]
        out[f"{fam}_ms_p50"] = (statistics.median(vals) if vals else 0.0, "ms")
    return out


# ------------------------------------------------------------ in-process

def _fn_family(fn):
    if fn in ("amenable", "forbidden", "gac", "backdoor"):
        return "decide"
    return "list" if fn == "list_min" else fn


def run_in_process(name, seed, seconds, trace):
    import checks
    import workloads

    build = workloads.build_decide if name == "decide-random" else workloads.build_enumerate
    graphs, ops, hidden = build(seed)
    warm_up()
    samples = setup_samples(graphs, SETUP_REPEATS)
    payload = json.dumps({"graphs": graphs, "ops": ops, "seconds": seconds, "trace": trace,
                          "min_passes": MIN_PASSES})
    code, out, err = run_child([sys.executable, WORKER, "run"], payload.encode())
    if code != 0:
        raise SystemExit(f"worker failed: {err.decode(errors='replace')}")
    res = json.loads(out)
    setup = setup_summary(samples + setup_samples(graphs, SETUP_REPEATS))

    sys.path.insert(0, os.path.abspath("src"))
    import covadjust as ca

    program_graphs = [ca.parse_document(t).graph for t in graphs]
    reasons = checks.check_ops(ca, program_graphs, ops, res["results"], hidden)
    bad = [(ops[i]["fn"], r) for i, r in enumerate(reasons) if r]
    for fn, why in bad[:20]:
        print(f"{name}: {fn}: {why}", file=sys.stderr)

    # the program is deterministic, so the checked outputs of the untimed
    # first pass are the outputs of every pass
    passes = res["times"]
    n_passes = len(passes) + len(res.get("traced_walls", ()))
    result = {
        "correct": not bad,
        "attempted": len(ops) * n_passes,
        "failed": len(bad) * n_passes,
    }
    if not trace:
        result["metrics"] = latency_metrics(passes, res["rss_mb"], setup["setup_s"])
        return result
    import tracing

    metrics = tracing.layer_metrics(res["trace"], len(res["traced_walls"]))
    metrics["trace.overhead_s"] = (statistics.median(
        t - u for t, u in zip(res["traced_walls"], res["untraced_walls"])), "s")
    metrics["cli.import_ms"] = (setup["import_ms"], "ms")
    metrics["cli.modules_loaded"] = (setup["modules"], "count")
    metrics["cli.elapsed_ms_p50"] = (0.0, "ms")
    metrics.update(family_metrics(
        [(_fn_family(op["fn"]), t) for op, t in zip(ops, quartile_times(passes))]))
    metrics["machine.ref_ms_p50"] = (statistics.median(res["probes"]) * 1000.0, "ms")
    metrics.update(import_self_times())
    result["metrics"] = metrics
    return result


# ------------------------------------------------------------ cli-corpus

def run_cli_corpus(seed, seconds, trace):
    import calib
    import corpus

    del seed  # the corpus and the probes are fixed inputs
    ops = corpus.round_ops()
    texts = {}

    def read(path):
        if path not in texts:
            with open(path, encoding="utf-8") as fh:
                texts[path] = fh.read()
        return texts[path]

    warm_up()
    inputs = [read(p) for p in corpus.input_files()]
    samples = setup_samples(inputs, SETUP_REPEATS)
    rounds = []  # (traced, [(op name, exit, payload, wall s, rss MB, stderr)])
    probes = [calib.probe()]
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        for traced in ((False, True) if trace else (False,)):
            rows = []
            for op_name, path, cmd in ops:
                prefix = [WORKER, "cli"] if traced else ["-m", "covadjust"]
                code, out, err, wall, rss = run_cli([sys.executable, *prefix, *cmd, "--graph", path])
                probes.append(calib.probe())
                wall *= calib.factor(probes[-2], probes[-1])
                try:
                    payload = json.loads(out)
                except ValueError:
                    payload = None
                rows.append((op_name, code, payload, wall, rss, err))
            rounds.append((traced, rows))
    setup = setup_summary(samples + setup_samples(inputs, SETUP_REPEATS))

    bad, failed = set(), 0
    for _, rows in rounds:
        reasons = corpus.check_round({r[0]: (r[1], r[2]) for r in rows}, read)
        for op_name, why in reasons.items():
            failed += why is not None
            if why and op_name not in bad:
                bad.add(op_name)
                print(f"cli-corpus: {op_name}: {why}", file=sys.stderr)
    unexpected = [n for n in bad if not n.startswith("probe:") and n not in corpus.KNOWN_FAULTS]
    result = {"correct": not unexpected, "attempted": len(ops) * len(rounds), "failed": failed}
    plain = [rows for traced, rows in rounds if not traced]
    if not trace:
        rss = max(r[4] for rows in plain for r in rows)
        result["metrics"] = latency_metrics([[r[3] for r in rows] for rows in plain], rss,
                                            setup["setup_s"])
        return result
    import tracing

    snap = {}
    for traced, rows in rounds:
        for r in rows:
            if traced and r[5]:
                last = r[5].decode(errors="replace").rstrip().splitlines()[-1]
                if last.startswith(tracing.MARKER):
                    tracing.merge(snap, json.loads(last[len(tracing.MARKER):]))
    traced_walls = [sum(r[3] for r in rows) for traced, rows in rounds if traced]
    metrics = tracing.layer_metrics(snap, len(traced_walls))
    metrics["trace.overhead_s"] = (statistics.median(
        t - sum(r[3] for r in rows) for t, rows in zip(traced_walls, plain)), "s")
    metrics["cli.import_ms"] = (setup["import_ms"], "ms")
    metrics["cli.modules_loaded"] = (setup["modules"], "count")
    elapsed = [r[2]["elapsed_ms"] for rows in plain for r in rows
               if r[2] and "elapsed_ms" in r[2]]
    metrics["cli.elapsed_ms_p50"] = (statistics.median(elapsed), "ms")
    low = quartile_times([[r[3] for r in rows] for rows in plain])
    metrics.update(family_metrics([(corpus.family(op[0]), t) for op, t in zip(ops, low)]))
    metrics["machine.ref_ms_p50"] = (statistics.median(probes) * 1000.0, "ms")
    metrics.update(import_self_times())
    result["metrics"] = metrics
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-corpus", "decide-random", "enumerate-random"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for need in ("src/covadjust/__init__.py", "corpus"):
        if not os.path.exists(need):
            print(f"perfbench: {need} not found; run from the root of a covadjust checkout",
                  file=sys.stderr)
            return 2
    if args.workload == "cli-corpus":
        result = run_cli_corpus(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_in_process(args.workload, args.seed, args.seconds, bool(args.trace))
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
