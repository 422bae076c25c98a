"""Check that two source trees give the same command line behaviour.

    python3 tools/cli_diff.py ../parent/src

Runs every argument list of `argument_lists()` as `python -m covadjust`
from the root of this checkout, once with the package imported from this
checkout's `src` and once from OTHER_SRC, and compares the exit code,
stderr and stdout of the two processes.  `elapsed_ms` is the one field of
the output that may differ; it is set to 0 on both sides first.  Each
difference is printed, and the script exits 1 if there is any.

The lists are the benchmark's `cli-corpus` round
(`perfbench/corpus.round_ops()`: every command on the corpus figures,
`project` on the benchmark's DAGs and the fail-closed probes), then, for
each command, its `--help`, a run without `--graph`, an unrecognised
flag, a missing file, `--max-nodes 3`, `-X ""` and `-Z ""`; and also
`--help`, no command, an unknown command and `verify -Y Y,A`.  Last come
lists that the command line's fast path leaves to argparse: an
abbreviated flag (`--grap`, `--min`), `--graph=FILE`, an attached value
(`-XA`), a repeated `--graph`, a negative value (`--seed -3`), a value
out of range (`--trials 0`), `--` and `-h`.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("validate", "amenable", "forbidden", "check", "backdoor", "list", "mec", "project",
            "verify")
FIGURE = "corpus/fig1a.cg"
ELAPSED = re.compile(r'"elapsed_ms": [-+0-9.eE]+')


def normalise(stdout: str) -> str:
    """`stdout` with every `elapsed_ms` value set to 0."""
    return ELAPSED.sub('"elapsed_ms": 0', stdout)


def argument_lists() -> list:
    if os.path.join(ROOT, "perfbench") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import corpus

    lists = [[*cmd, "--graph", path] for _, path, cmd in corpus.round_ops()]
    for command in COMMANDS:
        graph = [command, "--graph", FIGURE]
        lists += [[command, "--help"], [command], [*graph, "--bogus"],
                  [command, "--graph", "no-such-file.cg"], [*graph, "--max-nodes", "3"],
                  [*graph, "-X", ""], [*graph, "-Z", ""]]
    lists += [["--help"], [], ["bogus", "--graph", FIGURE],
              ["verify", "--graph", FIGURE, "-Y", "Y,A"]]
    check = ["check", "--graph", FIGURE]
    lists += [["check", "--grap", FIGURE], ["check", f"--graph={FIGURE}"],
              ["list", "--graph", FIGURE, "--min"], [*check, "-XA"], [*check, "--graph", FIGURE],
              ["verify", "--graph", FIGURE, "--seed", "-3", "--trials", "2"],
              ["verify", "--graph", FIGURE, "--trials", "0"], [*check, "--"], [*check, "-h"]]
    return lists


def run(src: str, argv: list) -> tuple:
    """(exit code, stderr, normalised stdout) of one process."""
    proc = subprocess.run([sys.executable, "-m", "covadjust", *argv], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
                          capture_output=True, text=True)
    return proc.returncode, proc.stderr, normalise(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", metavar="OTHER_SRC")
    args = parser.parse_args(argv)
    here = os.path.join(ROOT, "src")
    lists = argument_lists()
    differences = 0
    for cli_args in lists:
        mine, theirs = run(here, cli_args), run(args.other_src, cli_args)
        for part, a, b in zip(("exit code", "stderr", "stdout"), mine, theirs):
            if a != b:
                differences += 1
                print(f"{cli_args}: {part} differs\n  this tree: {a!r}\n  other:     {b!r}")
    print(f"{len(lists)} argument lists, {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
