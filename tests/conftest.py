import os
import subprocess
import sys
from pathlib import Path

import pytest

import covadjust as ca

sys.path.insert(0, str(Path(__file__).resolve().parent))

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = REPO_ROOT / "corpus"
CORPUS_NAMES = [
    "fig1a",
    "fig2-left",
    "fig2-right",
    "fig3a",
    "fig3b",
    "fig3c",
    "fig4a",
    "fig4b",
    "fig5a",
    "fig5b",
]


@pytest.fixture(scope="session")
def corpus():
    """Load a corpus graph by figure name; cached per session."""
    cache = {}

    def load(name):
        if name not in cache:
            text = (CORPUS_DIR / f"{name}.cg").read_text(encoding="utf-8")
            cache[name] = ca.parse_document(text)
        return cache[name]

    return load


def run_with_src(*args, **env_vars):
    """Run a fresh interpreter with `args` from the repository root, with
    the package imported from `src` and `env_vars` added to the
    environment; asserts exit code 0."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), **env_vars)
    proc = subprocess.run(
        [sys.executable, *args], cwd=REPO_ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
