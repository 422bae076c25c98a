"""The `--versus OTHER=SRC` check that the hand-run timing tools share."""

import argparse
import sys

import pytest

from conftest import REPO_ROOT

sys.path.insert(0, str(REPO_ROOT / "tools"))
import bench_parse  # noqa: E402


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
