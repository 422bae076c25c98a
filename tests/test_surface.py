"""Every exported name, and every name that `perfbench/tracing.py` wraps
by module and name, resolves.  The tracer imports only the standard
library, so it is loaded here by path."""

import importlib
import importlib.util
import inspect

import covadjust as ca

from conftest import REPO_ROOT


def _traced_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO_ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_traced_names_resolve():
    spans = _traced_spans()
    assert spans
    for module, names in spans.values():
        mod = importlib.import_module(module)
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_exported_names_resolve():
    for name in ca.__all__:
        assert hasattr(ca, name), name


def test_removed_names_stay_removed():
    from covadjust import cgtext, criteria, errors, paths, sem

    removed = {
        paths: ("enumerate_paths", "separating_sets", "Path", "PathKind", "NodePathStatus",
                "status_at", "classify", "blocks", "m_separated"),
        errors: ("EndpointInZError", "NotDefiniteStatusError"),
        criteria: ("satisfies_ac",),
        cgtext: ("_Token", "_tokenize", "_Parser", "_NAME_RE"),
        sem: ("SOUNDNESS_TOL", "COMPLETENESS_GAP", "TYPE_CHECKING"),
    }
    for module, names in removed.items():
        for name in names:
            assert name not in ca.__all__
            assert not hasattr(ca, name) and not hasattr(module, name), name
    assert not hasattr(ca.Graph, "_adjacency")


def test_enumeration_caps_are_fixed():
    for fn in (ca.enumerate_dags, ca.enumerate_mags, ca.separation_fingerprint,
               ca.markov_equivalent, ca.validate_graph, ca.build_graph):
        params = inspect.signature(fn).parameters.values()
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params), fn.__name__
