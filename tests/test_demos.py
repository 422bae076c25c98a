"""Each demo runs to completion as a script against the package in `src`."""

import pytest

from conftest import REPO_ROOT, run_with_src

DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    run_with_src(str(demo))
