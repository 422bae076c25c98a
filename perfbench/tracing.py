"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces the public functions of the traced layers
with wrappers in every ``covadjust`` module namespace that holds them
(``criteria.satisfies_gac`` and the same function imported into ``cli``
alike), and ``uninstall()`` puts the originals back.
A wrapper records calls and self time: its duration minus the time spent
in the wrapped functions it called.  The program's code is not touched.
Imports only the standard library, so the traced process stays lean.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# metric prefix -> (module, function names).  Several functions may share
# a prefix; their calls and times add up.
SPANS = {
    "cgtext.parse_document": ("covadjust.cgtext", ["parse_document"]),
    "graphs.closures": ("covadjust.graphs", ["parents", "children", "ancestors", "descendants",
                                             "possible_ancestors", "possible_descendants"]),
    "graphs.validate_graph": ("covadjust.graphs", ["validate_graph"]),
    "criteria.find_amenability_violation": ("covadjust.criteria", ["find_amenability_violation"]),
    "criteria.is_visible": ("covadjust.criteria", ["is_visible"]),
    "criteria.forbidden_set": ("covadjust.criteria", ["forbidden_set"]),
    "criteria.satisfies_gac": ("covadjust.criteria", ["satisfies_gac"]),
    "criteria.satisfies_generalized_backdoor": ("covadjust.criteria",
                                                ["satisfies_generalized_backdoor"]),
    "criteria.list_adjustment_sets": ("covadjust.criteria", ["list_adjustment_sets"]),
    "paths.find_open_definite_path": ("covadjust.paths", ["find_open_definite_path"]),
    "paths.require_maximal": ("covadjust.paths", ["require_maximal"]),
    "mec.enumerate_dags": ("covadjust.mec", ["enumerate_dags"]),
    "mec.enumerate_mags": ("covadjust.mec", ["enumerate_mags"]),
    "mec.separation_fingerprint": ("covadjust.mec", ["separation_fingerprint"]),
    "mec.latent_project": ("covadjust.mec", ["latent_project"]),
    "sem.verify_adjustment": ("covadjust.sem", ["verify_adjustment"]),
    "sem.random_sem": ("covadjust.sem", ["random_sem"]),
    "sem.covariance": ("covadjust.sem", ["covariance"]),
    "sem.total_effect": ("covadjust.sem", ["total_effect"]),
    "sem.adjusted_estimate": ("covadjust.sem", ["adjusted_estimate"]),
}
MARKER = "PERFBENCH-TRACE "  # prefixes the trace line a traced CLI process writes


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self._child = []  # per active span: time spent in traced callees
        self._active = Counter()
        self._undo = []

    def _wrap(self, span, fn):
        calls, self_s, child, active = self.calls, self.self_s, self._child, self._active
        perf = time.perf_counter
        hook = _HOOKS.get(span)

        def traced(*args, **kwargs):
            child.append(0.0)
            active[span] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                active[span] -= 1
                inner = child.pop()
                calls[span] += 1
                self_s[span] += dt - inner
                if child:
                    child[-1] += dt
            if hook is not None:
                hook(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        wrappers = {}
        for span, (mod, names) in SPANS.items():
            module = sys.modules[mod]
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(span, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "covadjust" and not modname.startswith("covadjust."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))
        mec = sys.modules["covadjust.mec"]
        graph_cls = mec.Graph

        def built_graph(*args, **kwargs):
            self.counts["mec.candidates_built"] += 1
            return graph_cls(*args, **kwargs)

        mec.Graph = built_graph
        self._undo.append((mec, "Graph", graph_cls))

    def uninstall(self):
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def snapshot(self):
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "counts": dict(self.counts)}


def _count_sets(tracer, result):
    tracer.counts["criteria.sets_listed"] += len(result)


def _count_members(tracer, result):
    tracer.counts["mec.members_found"] += len(result.members)


def _count_cond2(tracer, result):
    if tracer._active["criteria.list_adjustment_sets"]:
        tracer.counts["criteria.list_cond2"] += 1


def _count_trial(tracer, result):
    tracer.counts["sem.trials"] += 1


_HOOKS = {
    "criteria.list_adjustment_sets": _count_sets,
    "mec.enumerate_dags": _count_members,
    "mec.enumerate_mags": _count_members,
    "paths.find_open_definite_path": _count_cond2,
    "sem.random_sem": _count_trial,
}


def merge(total: dict, part: dict) -> None:
    """Add one snapshot into another (both in the `snapshot` layout)."""
    for key in ("calls", "self_s", "counts"):
        bucket = total.setdefault(key, {})
        for name, value in part.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value


def layer_metrics(snap: dict, per: float) -> dict:
    """Per-layer metrics from a snapshot, divided by `per` passes."""
    calls, self_s, counts = snap.get("calls", {}), snap.get("self_s", {}), snap.get("counts", {})
    out = {}
    for span in SPANS:
        out[f"{span}.ms"] = (self_s.get(span, 0.0) * 1000.0 / per, "ms")
        if not span.startswith("sem.") or span == "sem.verify_adjustment":
            out[f"{span}.calls"] = (calls.get(span, 0) / per, "count")
    sets = counts.get("criteria.sets_listed", 0)
    cond2 = counts.get("criteria.list_cond2", 0)
    built = counts.get("mec.candidates_built", 0)
    members = counts.get("mec.members_found", 0)
    out["criteria.sets_listed"] = (sets / per, "count")
    out["criteria.list_yield"] = (sets / cond2 if cond2 else 0.0, "ratio")
    out["mec.candidates_built"] = (built / per, "count")
    out["mec.members_found"] = (members / per, "count")
    out["mec.member_yield"] = (members / built if built else 0.0, "ratio")
    out["sem.trials"] = (counts.get("sem.trials", 0) / per, "count")
    return out
