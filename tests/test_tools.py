"""The `--versus OTHER=SRC` check that the hand-run timing tools share,
the text forms `bench_parse` times, and the argument lists and output
normalisation of `cli_diff`."""

import argparse
import sys

import pytest

import covadjust as ca
from covadjust import cgtext, cli

from conftest import REPO_ROOT
from oracles import class_graphs

sys.path.insert(0, str(REPO_ROOT / "tools"))
import bench_parse  # noqa: E402
import cli_diff  # noqa: E402


@pytest.mark.parametrize("text", ["parent", "=../parent/src", "parent=", "change=../parent/src"])
def test_versus_refuses_a_malformed_or_clashing_other(text, capsys):
    # without "=" there is no SRC, and an OTHER equal to the --label would
    # put both sides' rows under one label
    with pytest.raises(SystemExit) as info:
        bench_parse.versus(argparse.ArgumentParser(prog="bench"), text, "change")
    assert info.value.code == 2
    assert "--versus takes OTHER=SRC with OTHER not the --label" in capsys.readouterr().err


def test_versus_splits_at_the_first_equals_sign():
    parser = argparse.ArgumentParser(prog="bench")
    assert bench_parse.versus(parser, "parent=../a=b/src", "change") == ("parent", "../a=b/src")


def test_cli_diff_zeroes_elapsed_ms_only():
    out = '{\n  "result": {"elapsed_ms": "kept"},\n  "elapsed_ms": 12.345\n}\n'
    assert cli_diff.normalise(out) == out.replace("12.345", "0")
    assert cli_diff.normalise('"elapsed_ms": 0.5,') == cli_diff.normalise('"elapsed_ms": 81,')
    assert cli_diff.normalise('"elapsed_ms": 1e-05') == '"elapsed_ms": 0'


def test_cli_diff_runs_every_command_of_the_table():
    lists = cli_diff.argument_lists()
    assert len(lists) >= 140 and len({tuple(a) for a in lists}) == len(lists)
    assert set(cli.COMMANDS) == set(cli_diff.COMMANDS)
    for command in cli.COMMANDS:
        assert [command, "--help"] in lists and [command] in lists
        files = {a[2] for a in lists if a[:2] == [command, "--graph"]}
        assert any((REPO_ROOT / f).is_file() for f in files), command


def test_bench_parse_forms_take_both_token_routes():
    """The three forms of a text parse to one graph; the commented form
    is cut by whitespace like the plain one, the unspaced form by the
    regular expression."""
    for cls in ("dag", "cpdag", "mag", "pag"):
        for g in class_graphs(cls, 1, 10):
            if not g.edges:
                continue
            forms = dict(bench_parse._forms(ca.serialize_graph(g)))
            assert set(forms) == {"plain", "comments", "unspaced"}
            assert forms["comments"].count("#") == forms["plain"].count("\n") + 1
            assert cgtext._split_tokens(forms["plain"]) is not None
            assert cgtext._split_tokens(forms["comments"]) is not None
            assert cgtext._split_tokens(forms["unspaced"]) is None
            for text in forms.values():
                parsed = ca.parse_graph(text)
                assert parsed == g and parsed._marks == g._marks


def test_bench_verify_counts_the_source_of_the_modules_that_ran():
    import bench_verify

    modules, size = bench_verify._modules_ran(str(REPO_ROOT / "src"), "check",
                                              str(REPO_ROOT / "corpus" / "fig1a.cg"))
    # a decision on a CPDAG runs the kernel, `criteria` and `paths`: no
    # `graphs` and no `errors`
    assert modules == sorted(f"covadjust{m}" for m in ("", ".__main__", ".cli", ".model", ".cgtext",
                                                      ".kernel", ".criteria", ".paths"))
    folder = REPO_ROOT / "src" / "covadjust"
    assert size == sum((folder / f"{m.partition('.')[2] or '__init__'}.py").stat().st_size
                       for m in modules)
