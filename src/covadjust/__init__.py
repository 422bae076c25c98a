"""covadjust: covariate adjustment sets in causal graphs.

Decides and enumerates adjustment sets in DAGs, CPDAGs, MAGs and PAGs
with a criterion that is both sound and complete, and certifies the
decisions at desk scale by enumerating Markov equivalence classes and
comparing against an exact linear structural equation oracle.

``import covadjust`` runs only `model` and `cgtext`: the mark table and
the parser, enough to parse valid .cg text.  The other modules
(`errors`, `kernel`, `graphs`, `paths`, `criteria`, `mec`, `sem`) are
deferred: each is in ``sys.modules`` from the start, and its code runs
once, on the first read of one of its attributes or of a package-level
name it defines (``covadjust.satisfies_gac``, ``covadjust.Edge``).
`errors` runs on the first fault, since every module names an error as
``errors.X`` where it raises or catches it.  `kernel` runs when a graph
first builds one of its search tables, and `graphs` when a graph is
built from edges, first reads its `edges` or is written as .cg text, or
on a public closure or a class check.  So a decision on a CPDAG or PAG
runs `kernel`, `criteria` and `paths` alone.  The first read runs a
module under a lock, so threads that reach a deferred module together
see it run once and whole.
"""

import importlib.util
import sys
import threading
import types

# Module metadata, which the import system, `repr()` and `vars()` read;
# reading it leaves a deferred module unrun.
_IMPORT_ATTRS = frozenset({"__name__", "__spec__", "__loader__", "__package__", "__file__",
                           "__cached__", "__path__", "__class__", "__dict__"})
_LOCK = threading.RLock()  # reentrant: a module's code may read another deferred module
_RUNNING = set()  # names of the deferred modules whose code runs now


class _DeferredModule(types.ModuleType):
    """A module whose code has not run yet; the first attribute read runs
    it and makes the object a plain module."""

    def __getattribute__(self, attr):
        if attr not in _IMPORT_ATTRS:
            _load(self)
        return types.ModuleType.__getattribute__(self, attr)

    def __setattr__(self, attr, value):
        _load(self)
        types.ModuleType.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        _load(self)
        types.ModuleType.__delattr__(self, attr)

    def __dir__(self):
        _load(self)
        return types.ModuleType.__dir__(self)


def _load(module):
    """Run a deferred module's code unless it has run.

    Other threads wait on the lock until the code has run, and only then
    does the object become a plain module; the thread running the code
    reads its partial namespace, as in an import cycle.  Code that raises
    leaves the module deferred, and the next read runs it again.
    """
    if type(module) is _DeferredModule:
        name = module.__name__
        with _LOCK:
            if type(module) is _DeferredModule and name not in _RUNNING:
                _RUNNING.add(name)
                try:
                    module.__spec__.loader.exec_module(module)
                finally:
                    _RUNNING.discard(name)
                object.__setattr__(module, "__class__", types.ModuleType)


def _defer(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _DeferredModule
    sys.modules[spec.name] = module
    return module


# deferred before `model` and `cgtext` run, which read them as the
# package's attributes
errors = _defer("errors")
kernel = _defer("kernel")
graphs = _defer("graphs")
paths = _defer("paths")
criteria = _defer("criteria")
mec = _defer("mec")
sem = _defer("sem")

from .cgtext import GraphDocument, Query, parse_document, parse_graph  # noqa: E402
from .model import Graph, GraphClass, Mark  # noqa: E402

# package-level name -> the deferred module that defines it
_DEFERRED_NAMES = {
    **dict.fromkeys(("Edge", "ancestors", "build_graph", "children", "descendants", "parents",
                     "possible_ancestors", "possible_descendants", "serialize_document",
                     "serialize_graph", "validate_graph"), "graphs"),
    **dict.fromkeys(("find_open_definite_path", "m_connected"), "paths"),
    **dict.fromkeys(("AdjustmentQuery", "AdjustmentVerdict", "find_amenability_violation",
                     "forbidden_set", "is_amenable", "is_visible", "list_adjustment_sets",
                     "satisfies_gac", "satisfies_generalized_backdoor"), "criteria"),
    **dict.fromkeys(("EquivalenceClass", "canonical_dag", "enumerate_dags", "enumerate_mags",
                     "latent_project", "markov_equivalent", "separation_fingerprint",
                     "union_representative", "unshielded_colliders"), "mec"),
    **dict.fromkeys(("EffectReport", "LinearSEM", "adjusted_estimate", "covariance",
                     "random_sem", "total_effect", "verify_adjustment"), "sem"),
}


def __getattr__(name):
    module = _DEFERRED_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[module], name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted(globals().keys() | _DEFERRED_NAMES.keys())


__version__ = "0.1.0"

# the eager names, then every deferred one
__all__ = sorted(["Graph", "GraphClass", "GraphDocument", "Mark", "Query", "errors",
                  "parse_document", "parse_graph", *_DEFERRED_NAMES])
