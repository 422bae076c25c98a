import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from covadjust.cgtext import parse_document, serialize_graph
from covadjust import cli
from covadjust.cli import run_command

from conftest import CORPUS_DIR, CORPUS_NAMES, DEFERRED, REPO_ROOT, RUN_LOG, run_with_src
from oracles import random_dag


def corpus_path(name):
    return str(CORPUS_DIR / f"{name}.cg")


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def test_check_passing_set(capsys):
    code, payload, _ = run(
        capsys, "check", "--graph", corpus_path("fig1a"), "-X", "X", "-Y", "Y", "-Z", "Z,A"
    )
    assert code == 0
    assert payload["format"] == 2
    assert payload["command"] == "check"
    assert payload["graph_class"] == "cpdag"
    assert payload["result"]["passed"] is True


def test_check_non_amenable_graph_witness(capsys):
    code, payload, _ = run(capsys, "check", "--graph", corpus_path("fig3a"), "-X", "X", "-Y", "Y")
    assert code == 1
    assert payload["result"]["failed_condition"] == "Cond0"
    assert payload["witness"] == ["X", "Y"]


def test_flags_override_query_block(capsys):
    # the fig4a query block says Z = V3 (passes); -Z overrides it
    code, payload, _ = run(capsys, "check", "--graph", corpus_path("fig4a"), "-Z", "V1")
    assert code == 1
    assert payload["result"]["failed_condition"] == "Cond2"


def test_empty_z_flag_means_empty_set(capsys):
    code, payload, _ = run(capsys, "check", "--graph", corpus_path("fig3c"), "-Z", "")
    assert code == 0 and payload["result"]["passed"] is True


def test_list_empty_result_is_success(capsys):
    code, payload, _ = run(capsys, "list", "--graph", corpus_path("fig4b"))
    assert code == 0
    assert payload["result"] == []


def test_list_golden_sets(capsys):
    code, payload, _ = run(capsys, "list", "--graph", corpus_path("fig1a"))
    assert code == 0
    listed = {frozenset(s) for s in payload["result"]}
    assert frozenset({"Z", "A"}) in listed and len(listed) == 6
    code, payload, _ = run(capsys, "list", "--graph", corpus_path("fig1a"), "--minimal")
    assert {frozenset(s) for s in payload["result"]} == {
        frozenset({"A", "Z"}),
        frozenset({"B", "Z"}),
    }


def test_list_rejects_z_flag(capsys):
    code = run_command(["list", "--graph", corpus_path("fig1a"), "-Z", "A"])
    capsys.readouterr()
    assert code == 2


def test_overlapping_sets_are_usage_errors(capsys):
    code, payload, err = run(
        capsys, "check", "--graph", corpus_path("fig1a"), "-X", "X", "-Y", "Y", "-Z", "X"
    )
    assert code == 2
    assert payload["error"]["type"] == "SetsNotDisjointError"
    assert err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cg"
    bad.write_text("graph dag { X -> }")
    code, payload, err = run(capsys, "validate", "--graph", str(bad))
    assert code == 2
    assert payload["error"]["type"] == "ParseError"


def test_missing_file_exit_code(capsys):
    code, payload, _ = run(capsys, "validate", "--graph", "no-such-file.cg")
    assert code == 2


def test_non_utf8_file_is_unreadable_input(tmp_path, capsys):
    bad = tmp_path / "latin1.cg"
    bad.write_bytes(b"\xff graph dag { X -> Y }")
    code, payload, err = run(capsys, "check", "--graph", str(bad))
    assert code == 2
    assert payload["error"]["type"] == "UnicodeDecodeError"
    assert "position 0" in payload["error"]["message"] and err


def test_cap_exceeded_exit_code(capsys):
    code, payload, _ = run(
        capsys, "check", "--graph", corpus_path("fig1a"), "--max-nodes", "3"
    )
    assert code == 3
    assert payload["error"]["type"] == "SizeCapExceededError"


def test_cap_error_reports_the_cap(tmp_path, capsys):
    code, payload, err = run(
        capsys, "check", "--graph", corpus_path("fig1a"), "--max-nodes", "3"
    )
    nodes = len(parse_document(open(corpus_path("fig1a"), encoding="utf-8").read()).graph.nodes)
    assert code == 3
    assert payload["error"] == {
        "type": "SizeCapExceededError",
        "message": f"{nodes} nodes exceeds the cap of 3",
        "cap": "nodes",
        "limit": 3,
        "required": nodes,
    }
    assert err.strip() == f"covadjust: {nodes} nodes exceeds the cap of 3"
    # a cap met inside the library: 21 undirected edges against the default 20
    edges = [f"N{i} -- N{i + 1}" for i in range(14)] + [f"N{i} -- N{i + 2}" for i in range(7)]
    f = tmp_path / "cpdag21.cg"
    f.write_text("graph cpdag { " + " ".join(edges) + " }")
    code, payload, _ = run(capsys, "mec", "--graph", str(f))
    assert code == 3
    assert payload["error"]["message"] == "21 undirected edges exceeds the cap of 20"
    assert (payload["error"]["cap"], payload["error"]["limit"],
            payload["error"]["required"]) == ("undirected_edges", 20, 21)


def test_default_cap_guards_only_enumeration(tmp_path, capsys):
    g = random_dag(random.Random(40), 40, 0.15)
    f = tmp_path / "dag40.cg"
    f.write_text(serialize_graph(g))
    sets = ["-X", "N0", "-Y", "N39"]
    for command in ("check", "backdoor"):
        code, payload, _ = run(capsys, command, "--graph", str(f), *sets, "-Z", "N5,N7")
        assert code in (0, 1) and "result" in payload
    for command in ("amenable", "forbidden"):
        code, payload, _ = run(capsys, command, "--graph", str(f), *sets)
        assert code in (0, 1) and "result" in payload
    code, payload, _ = run(capsys, "list", "--graph", str(f), *sets)
    assert code == 3 and payload["error"]["type"] == "SizeCapExceededError"


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_default_cap_guards_the_rows_marked_capped(tmp_path, capsys, command):
    # 16 nodes, one over the default cap; --max-nodes 16 lets every command run
    g = random_dag(random.Random(16), 16, 0.2)
    f = tmp_path / "dag16.cg"
    f.write_text(serialize_graph(g) + "query { X = N0; Y = N15 }\n")
    extra = ["--trials", "2"] if command == "verify" else []
    code, payload, _ = run(capsys, command, "--graph", str(f), *extra)
    if cli.COMMANDS[command].capped:
        assert code == 3 and payload["error"]["cap"] == "nodes", payload
        assert (payload["error"]["limit"], payload["error"]["required"]) == (15, 16)
    else:
        assert code in (0, 1) and "result" in payload, payload
    code, payload, _ = run(capsys, command, "--graph", str(f), "--max-nodes", "16", *extra)
    assert code in (0, 1) and "result" in payload, payload


CYCLIC_DAG = "graph dag { X -> A A -> B B -> X X -> Y }"
NON_ANCESTRAL_MAG = "graph mag { X -> Y Y -> W W <-> X }"


@pytest.mark.parametrize("command", ["check", "backdoor", "amenable", "forbidden", "list",
                                     "verify"])
def test_cyclic_dag_is_refused(tmp_path, capsys, command):
    f = tmp_path / "cyclic.cg"
    f.write_text(CYCLIC_DAG)
    code, payload, _ = run(capsys, command, "--graph", str(f), "-X", "X", "-Y", "Y")
    assert code == 2
    assert payload["error"]["type"] == "DirectedCycleError"


def test_non_ancestral_mag_is_refused(tmp_path, capsys):
    f = tmp_path / "mag.cg"
    f.write_text(NON_ANCESTRAL_MAG)
    code, payload, _ = run(capsys, "check", "--graph", str(f), "-X", "X", "-Y", "Y")
    assert code == 2
    assert payload["error"]["type"] == "AlmostDirectedCycleError"


@pytest.mark.parametrize("command", ["check", "backdoor", "amenable", "forbidden", "list",
                                     "verify"])
def test_non_maximal_mag_is_refused(tmp_path, capsys, command):
    # A and D are non-adjacent, yet every set that separates them is open
    # along the inducing path A <-> B <-> C <-> D
    f = tmp_path / "mag.cg"
    f.write_text("graph mag { A <-> B B <-> C C <-> D B -> D C -> A }")
    code, payload, _ = run(capsys, command, "--graph", str(f), "-X", "B", "-Y", "D")
    assert code == 2
    assert payload["error"]["type"] == "NotMaximalError"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_non_positive_trials(capsys, trials):
    code, payload, err = run(
        capsys, "verify", "--graph", corpus_path("fig1a"), "--trials", trials
    )
    assert code == 2 and payload is None
    assert "--trials" in err


def test_verify_refuses_several_y_nodes(capsys):
    # the library's check, with the CLI's message and exit code
    code, payload, err = run(capsys, "verify", "--graph", corpus_path("fig1a"), "-Y", "Y,A")
    assert code == 2
    assert payload["error"] == {"type": "GraphError", "message": "verify needs a single Y node"}
    assert err == "covadjust: verify needs a single Y node\n"


def test_list_rejects_negative_max_size(capsys):
    code, payload, err = run(capsys, "list", "--graph", corpus_path("fig1a"), "--max-size", "-1")
    assert code == 2 and payload is None
    assert "--max-size" in err
    code, payload, _ = run(capsys, "list", "--graph", corpus_path("fig1a"), "--max-size", "0")
    assert code == 0 and payload["result"] == []


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_one_command_parser_parses_and_reports_alike(capsys, command):
    """Through `run_command`, the one parser reads each command's plain
    arguments and reports its help and errors: a command's own usage for
    `--help` and a missing `--graph`, the top-level usage, which lists
    every command, for an argument no command takes."""
    path = corpus_path("fig1a")
    own = f"covadjust {command} [-h] --graph FILE [--max-nodes N]"
    top = "covadjust [-h] {" + ",".join(cli.COMMANDS) + "} ..."
    # plain arguments parse: the command prints its JSON (fig1a is no DAG
    # for `project`, whose exit code is then 2)
    cases = [([command, "--graph", path, *(["--trials", "1"] if command == "verify" else [])],
              (0, 1, 2), None, None),
             ([command, "--help"], (0,), own, None),
             ([command], (2,), own, f"covadjust {command}: error: the following arguments are"
              " required: --graph"),
             ([command, "--graph", path, "extra"], (2,), top,
              "covadjust: error: unrecognized arguments: extra"),
             ([command, "--graph", path, "--bogus"], (2,), top,
              "covadjust: error: unrecognized arguments: --bogus")]
    for argv, codes, usage, error in cases:
        code = run_command(argv)
        out, err = capsys.readouterr()
        assert code in codes, argv
        if usage is None:
            assert json.loads(out)["command"] == command, argv
            continue
        text = out if code == 0 else err
        head = re.match(r"usage: (.*?)\n(?=\S|\n|$)", text, re.S)
        assert head and " ".join(head.group(1).split()).startswith(usage), (argv, text)
        if error is not None:
            assert out == "" and err.endswith(f"\n{error}\n"), (argv, err)


# Arguments the fast path must leave to argparse, mixed into exact flags
# and plain values: abbreviations, attached values, help, "--", negative
# numbers, a flag without its value, flags of other commands or of none
NEAR_MISSES = ("--grap", "--graph=F.cg", "--min", "-XA", "-h", "--help", "--", "-3", "-1",
               "--bogus", "-", "--max", "--seed=2", "-Y=B", "--trials", "--minimal", "-Z")
VALUES = ("F.cg", "", "A,B", " A", "0", "1", "3", "x", "1e3", "\u0663", "list", "-0")


def argparse_args(argv):
    """`vars()` of the namespace of the parser `run_command` builds, or
    None if it exits."""
    try:
        return vars(cli._build_parser().parse_args(argv))
    except SystemExit:
        return None


def test_fast_arguments_are_argparse_arguments(capsys):
    """Over generated argument lists, the fast path either declines or
    gives the namespace argparse gives."""
    rng = random.Random(24)
    read = declined = 0
    for command in [*cli.COMMANDS, "bogus"]:
        row = cli.COMMANDS.get(command, cli.COMMANDS["verify"])
        flags = [names[0] for names, _ in cli._flag_specs(row)]
        for _ in range(120):
            argv = [command] if rng.random() < 0.95 else []
            for flag in rng.sample(flags, rng.randrange(len(flags) + 1)):
                if rng.random() < 0.8:
                    argv += [flag, rng.choice(VALUES)]
                else:
                    argv.append(rng.choice(NEAR_MISSES + VALUES))
            if rng.random() < 0.6 and "--graph" not in argv:
                argv[1:1] = ["--graph", "F.cg"]
            fast = cli._fast_args(argv)
            want = argparse_args(argv)
            capsys.readouterr()
            if fast is None:
                declined += 1
            else:
                read += 1
                assert vars(fast) == want, argv
    assert read > 150 and declined > 300


@pytest.mark.parametrize("argv", [
    ["check", "--grap", "F.cg"], ["check", "--graph=F.cg"], ["list", "--graph", "F.cg", "--min"],
    ["check", "--graph", "F.cg", "-XA"], ["check", "--graph", "F.cg", "--graph", "G.cg"],
    ["verify", "--graph", "F.cg", "--seed", "-3"], ["verify", "--graph", "F.cg", "--trials", "0"],
    ["check", "--graph", "F.cg", "--"], ["check", "-h"], ["check"], ["bogus", "--graph", "F.cg"],
    ["list", "--graph", "F.cg", "--minimal", "x"], [],
])
def test_fast_arguments_decline_what_argparse_reads_otherwise(argv):
    assert cli._fast_args(argv) is None


def test_plain_arguments_build_no_parser():
    out = run_with_src(
        "-c",
        "import io, sys, contextlib\n"
        "from covadjust import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.run_command(['list', '--graph', 'corpus/fig1a.cg', '--minimal',"
        " '--max-size', '2', '-X', 'X'])]\n"
        "    loaded = ['argparse' in sys.modules, 'locale' in sys.modules]\n"
        "    codes.append(cli.run_command(['list', '--graph=corpus/fig1a.cg']))\n"
        "print(codes, loaded, 'argparse' in sys.modules)"
    )
    assert out.strip() == "[0, 0] [False, False] True"


def test_negative_node_cap_is_a_usage_error(capsys):
    code, payload, err = run(capsys, "check", "--graph", corpus_path("fig1a"), "--max-nodes", "-1")
    assert code == 2 and payload is None
    assert "--max-nodes" in err
    code, payload, _ = run(capsys, "check", "--graph", corpus_path("fig1a"), "--max-nodes", "0")
    assert code == 3 and payload["error"]["limit"] == 0


def test_validate_valid_and_invalid(tmp_path, capsys):
    code, payload, _ = run(capsys, "validate", "--graph", corpus_path("fig4a"))
    assert code == 0 and payload["result"]["valid"] is True

    bad = tmp_path / "cycle.cg"
    bad.write_text("graph dag { X -> Y Y -> Z Z -> X }")
    code, payload, _ = run(capsys, "validate", "--graph", str(bad))
    assert code == 1
    assert payload["result"]["valid"] is False
    assert payload["result"]["reason"] == "DirectedCycleError"


@pytest.mark.parametrize("text,edge", [("graph cpdag { A -> B }", "A -> B"),
                                       ("graph cpdag { X -> Y Y -> Z }", "X -> Y")])
def test_validate_rejects_reversible_cpdag_edge(tmp_path, capsys, text, edge):
    f = tmp_path / "not-a-cpdag.cg"
    f.write_text(text)
    code, payload, _ = run(capsys, "validate", "--graph", str(f))
    assert code == 1
    assert payload["result"]["valid"] is False
    assert payload["result"]["reason"] == "InvalidCpdagError"
    assert f"edge {edge} is reversible" in payload["result"]["detail"]


@pytest.mark.parametrize("text", ["graph mag { A o-> B  C -> D  D <-> C }",
                                  "graph dag { B -> C  C <-> D  A o-o B }"])
def test_reported_fault_does_not_depend_on_the_hash_seed(tmp_path, text):
    f = tmp_path / "faults.cg"
    f.write_text(text)
    outputs = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), PYTHONHASHSEED=str(seed))
        proc = subprocess.run([sys.executable, "-m", "covadjust", "validate", "--graph", str(f)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        outputs.add(re.sub(r'"elapsed_ms": [^,}\n]*', "", proc.stdout))
    assert len(outputs) == 1, outputs


def test_amenable_exit_codes(capsys):
    code, payload, _ = run(capsys, "amenable", "--graph", corpus_path("fig3c"))
    assert code == 0 and payload["result"]["amenable"] is True
    code, payload, _ = run(capsys, "amenable", "--graph", corpus_path("fig3b"))
    assert code == 1 and payload["witness"] == ["X", "Y"]


def test_forbidden_output_sorted(capsys):
    code, payload, _ = run(capsys, "forbidden", "--graph", corpus_path("fig4a"))
    assert code == 0
    assert payload["result"]["forbidden"] == ["V4", "Y"]


def test_backdoor_command(capsys):
    code, payload, _ = run(
        capsys, "backdoor", "--graph", corpus_path("fig5a"), "-Z", "V1,V2"
    )
    assert code == 1
    code, payload, _ = run(capsys, "check", "--graph", corpus_path("fig5a"), "-Z", "V1,V2")
    assert code == 0


def test_mec_command(capsys):
    code, payload, _ = run(capsys, "mec", "--graph", corpus_path("fig1a"))
    assert code == 0
    assert payload["result"]["count"] == 8
    assert payload["result"]["member_class"] == "dag"
    assert len(payload["result"]["members"]) == 8


def test_project_command(tmp_path, capsys):
    f = tmp_path / "latent.cg"
    f.write_text("graph dag { L -> X L -> Y X -> Y }")
    code, payload, _ = run(capsys, "project", "--graph", str(f), "--observed", "X,Y")
    assert code == 0
    assert payload["result"]["nodes"] == ["X", "Y"]
    assert payload["result"]["edges"] == ["X -> Y"]


def test_project_refuses_an_empty_observed_flag(tmp_path, capsys):
    # an empty --observed is refused as -X "" is; leaving it out keeps every node
    f = tmp_path / "latent.cg"
    f.write_text("graph dag { L -> X L -> Y X -> Y }")
    for observed in ("", " , "):
        code, payload, err = run(capsys, "project", "--graph", str(f), "--observed", observed)
        assert code == 2 and "--observed" in err
        assert payload["error"]["type"] == "GraphError" and "result" not in payload
    code, payload, _ = run(capsys, "project", "--graph", str(f))
    assert code == 0 and payload["result"]["nodes"] == ["L", "X", "Y"]


def test_verify_command(capsys):
    code, payload, _ = run(
        capsys, "verify", "--graph", corpus_path("fig5a"), "--trials", "3", "--seed", "4"
    )
    assert code == 0
    assert payload["result"]["sound"] is True
    assert payload["result"]["members"] == 2
    assert payload["result"]["max_abs_gap"] == "0"
    assert len(payload["result"]["reports"]) == 6


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_verify_agrees_with_check_on_the_corpus(capsys, name):
    # the file's query, 20 trials: sound exactly when check passes, same exit
    check_code, check, _ = run(capsys, "check", "--graph", corpus_path(name))
    code, payload, _ = run(capsys, "verify", "--graph", corpus_path(name))
    assert code == check_code
    assert payload["result"]["sound"] is check["result"]["passed"]
    assert payload["result"]["amenable"] is (check["result"]["failed_condition"] != "Cond0")
    if not payload["result"]["amenable"]:
        assert payload["witness"] == check["witness"]


@pytest.mark.parametrize("command", ["check", "backdoor", "amenable", "verify"])
def test_first_unknown_node_in_flag_order(capsys, command):
    code, payload, _ = run(capsys, command, "--graph", corpus_path("fig1a"), "-X", "S,X,R")
    assert code == 2
    assert payload["error"] == {"type": "UnknownNodeError", "message": "unknown node: S"}


def test_verify_writes_exact_rationals(capsys):
    # every number is a rational string; an estimate off its effect shows it
    code, payload, _ = run(capsys, "verify", "--graph", corpus_path("fig2-right"),
                           "--trials", "4", "--seed", "2")
    assert code == 1 and payload["format"] == 2
    result = payload["result"]
    assert result["sound"] is False and result["amenable"] is True
    gaps = []
    for r in result["reports"]:
        fields = [*r["true_effect"], *r["adjusted_estimate"], r["max_abs_gap"]]
        assert all(isinstance(v, str) and re.fullmatch(r"-?\d+(/\d+)?", v) for v in fields)
        (true,), (est,) = map(Fraction, r["true_effect"]), map(Fraction, r["adjusted_estimate"])
        assert Fraction(r["max_abs_gap"]) == abs(true - est)
        gaps.append(Fraction(r["max_abs_gap"]))
    assert result["max_abs_gap"] == str(max(gaps)) != "0"


def test_mec_command_on_pag(capsys):
    code, payload, _ = run(capsys, "mec", "--graph", corpus_path("fig3a"))
    assert code == 0
    assert payload["result"]["member_class"] == "mag"
    assert payload["result"]["count"] == 25


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "covadjust", "check", "--graph", corpus_path("fig1a"),
         "-X", "X", "-Y", "Y", "-Z", "Z,A"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["passed"] is True


def test_output_is_deterministic_modulo_elapsed(capsys):
    outs = []
    for _ in range(2):
        _, payload, _ = run(
            capsys, "list", "--graph", corpus_path("fig4a"), "-X", "X", "-Y", "Y"
        )
        payload.pop("elapsed_ms")
        outs.append(json.dumps(payload, sort_keys=True))
    assert outs[0] == outs[1]


def test_verify_refuses_non_amenable_graph(capsys):
    # fig3b: X -> Y is invisible, so no set (not even the empty one) adjusts
    code, payload, _ = run(capsys, "verify", "--graph", corpus_path("fig3b"))
    assert code == 1
    result = payload["result"]
    assert result["sound"] is False
    assert result["amenable"] is False
    assert result["reports"] == []
    assert payload["witness"] == ["X", "Y"]


# Loaded by nothing the package needs at start; `verify` adds the integer
# algebra, `fractions` and with it `decimal`.  Run under -S, because `site`
# itself may load typing.
NOT_AT_START = ("('numpy', 'fractions', 'decimal', 'covadjust._exact', 'dataclasses', 'inspect',"
                " 'typing')")


def test_import_does_not_load_numpy():
    # mec and sem stay imported: the benchmark's tracer finds them in sys.modules
    out = run_with_src(
        "-S",
        "-c",
        "import sys, covadjust, covadjust.cli\n"
        f"print(sorted(m for m in {NOT_AT_START} + ('covadjust.sem', 'covadjust.mec')"
        " if m in sys.modules))"
    )
    assert out.strip() == "['covadjust.mec', 'covadjust.sem']"


def test_check_command_does_not_load_numpy():
    out = run_with_src(
        "-S",
        "-c",
        RUN_LOG + "import io, contextlib\n"
        "from covadjust import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.run_command(['check', '--graph', 'corpus/fig1a.cg'])\n"
        f"print(code, [m for m in {NOT_AT_START} if m in sys.modules],"
        " [m for m in ('mec', 'sem') if m in ran])"
    )
    assert out.strip() == "0 [] []"


@pytest.mark.parametrize("command, runs", [
    # figure -> the modules the command runs on it.  Amenability and the
    # forbidden set search no path: on the CPDAG fig1a and the PAG fig4a
    # only the kernel and `criteria` run, but the class check of the MAG
    # fig3b runs `graphs` and `paths` (`require_maximal`) and no `mec`.  A
    # decision runs no `errors`: no fault is raised or caught.  The member
    # search of `validate` and `mec` on fig1a catches the directed cycles
    # of its candidates, and so runs `errors`.  "dag" is a small DAG for
    # `project`.
    *((cmd, {"fig1a": {"kernel", "criteria"}, "fig4a": {"kernel", "criteria"},
             "fig3b": {"kernel", "graphs", "paths", "criteria"}})
      for cmd in ("amenable", "forbidden")),
    *((cmd, {"fig1a": {"kernel", "paths", "criteria"}, "fig4a": {"kernel", "paths", "criteria"}})
      for cmd in ("check", "backdoor", "list")),
    ("validate", {"fig1a": {"errors", "kernel", "graphs", "paths", "mec"},
                  "fig3b": {"kernel", "graphs", "paths"}}),
    ("mec", {"fig1a": {"errors", "kernel", "graphs", "paths", "mec"}}),
    ("project", {"dag": {"kernel", "graphs", "paths", "mec"}}),
    ("verify", {"fig1a": set(DEFERRED)}),
])
def test_each_command_runs_only_its_modules(tmp_path, command, runs):
    dag = tmp_path / "dag.cg"
    dag.write_text("graph dag { L -> A L -> B A -> B }")
    for figure, modules in runs.items():
        graph = dag if figure == "dag" else corpus_path(figure)
        argv = [command, "--graph", str(graph),
                *(["--trials", "1"] if command == "verify" else [])]
        out = run_with_src(
            "-c",
            RUN_LOG + "import io, contextlib\n"
            "from covadjust import cli\n"
            "started = list(ran)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.run_command({argv!r})\n"
            f"print(code in (0, 1), sorted(set(started) & set({DEFERRED})),"
            f" sorted(set(ran) & set({DEFERRED})), len(ran) == len(set(ran)))"
        )
        assert out.strip() == f"True [] {sorted(modules)} True", figure


def test_help_runs_no_deferred_module():
    # run as `python -m covadjust --help` runs it
    out = run_with_src(
        "-c",
        RUN_LOG + "import contextlib, io, runpy\n"
        "sys.argv = ['covadjust', '--help']\n"
        "with contextlib.redirect_stdout(io.StringIO()) as text:\n"
        "    try:\n"
        "        runpy.run_module('covadjust', run_name='__main__', alter_sys=True)\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(code, text.getvalue().startswith('usage: covadjust'), sorted(ran))"
    )
    modules = sorted(["__init__", "__main__", "model", "cgtext", "cli"])
    assert out.strip() == f"0 True {modules}"


@pytest.mark.parametrize("text, argv, code", [
    ("graph dag { A -> }", ["check", "-X", "A", "-Y", "B"], 2),
    ("fig1a", ["check", "-X", "Q", "-Y", "Y"], 2),
    ("fig1a", ["check", "-X", "X", "-Y", "Y", "-Z", "X"], 2),
    ("fig1a", ["check", "--max-nodes", "3"], 3),
    ("graph dag { A -> B B -> A }", ["check", "-X", "A", "-Y", "B"], 2),
], ids=["parse", "unknown-node", "overlapping-sets", "node-cap", "class-check"])
def test_a_fault_runs_errors_and_reports_as_in_a_loaded_process(tmp_path, capsys, text, argv,
                                                                 code):
    # In a fresh process `errors` runs first at the fault.  The exit code,
    # the error's class and message (with its line:col) and stderr match
    # those of this process, where `errors` ran long ago.
    graph = tmp_path / "graph.cg"
    if text.startswith("fig"):
        graph = corpus_path(text)
    else:
        graph.write_text(text)
    full = [argv[0], "--graph", str(graph), *argv[1:]]
    want = list(run(capsys, *full))
    assert want[0] == code and "elapsed_ms" not in want[1]
    out = run_with_src(
        "-c",
        RUN_LOG + "import contextlib, io, json\n"
        "from covadjust import cli\n"
        "before = 'errors' in ran\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        f"    code = cli.run_command({full!r})\n"
        "print(json.dumps([before, code, json.loads(out.getvalue()), err.getvalue(),"
        " 'errors' in ran]))"
    )
    assert json.loads(out) == [False, *want, True]
    if text == "graph dag { A -> }":
        assert want[1]["error"] == {"type": "ParseError",
                                    "message": "1:18: unexpected '}' (expected a node name)"}


def test_verify_process_loads_no_numpy():
    out = run_with_src(
        "-c",
        "import io, json, sys, contextlib\n"
        "from covadjust import cli\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    code = cli.run_command(['verify', '--graph', 'corpus/fig5a.cg', '--trials', '2'])\n"
        "print(code, json.loads(buf.getvalue())['result']['sound'],"
        " 'numpy' in sys.modules, 'fractions' in sys.modules)"
    )
    assert out.split() == ["0", "True", "False", "True"]
