"""Every exported name, and every name that `perfbench/tracing.py` wraps
by module and name, resolves.  The tracer imports only the standard
library, so it is loaded here by path.  The deferred modules resolve
the same way from a fresh process, from several threads at once.
Records and errors pickle, also into a fresh process."""

import copy
import importlib
import importlib.util
import inspect
import json
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

import covadjust as ca
from covadjust import errors

from conftest import DEFERRED, REPO_ROOT, RUN_LOG, run_with_src


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


def test_dir_and_star_import_hold_every_exported_name():
    # in a fresh process, where no deferred module has run yet
    out = run_with_src(
        "-c",
        "import covadjust\n"
        "listed = set(dir(covadjust))\n"
        "from covadjust import *\n"
        "print(sorted(set(covadjust.__all__) - listed),"
        " [n for n in covadjust.__all__ if globals().get(n) is not getattr(covadjust, n)])"
    )
    assert out.strip() == "[] []"


def test_records_of_deferred_modules_pickle_into_a_fresh_process(tmp_path):
    g = ca.parse_graph("graph dag { A -> B }")
    records = (ca.AdjustmentQuery(g, {"A"}, {"B"}),
               ca.enumerate_dags(ca.parse_graph("graph cpdag { A -- B }")),
               ca.LinearSEM(g, ((0, -2), (0, 0)), (1, 3)))
    dump = tmp_path / "records.pickle"
    dump.write_bytes(pickle.dumps(records))
    out = run_with_src(
        "-c",
        RUN_LOG + "import pickle\n"
        f"records = pickle.loads(open({str(dump)!r}, 'rb').read())\n"
        "print(pickle.dumps(records).hex(), sorted(ran))"
    )
    again, ran = out.split(maxsplit=1)
    assert pickle.loads(bytes.fromhex(again)) == records
    # every deferred module but `errors`: no record faults
    assert ran.strip() == str(sorted(["__init__", "model", "cgtext",
                                      *(m for m in DEFERRED if m != "errors")]))


def test_parsing_and_writing_run_only_the_model_and_the_parser():
    # in a fresh process: every corpus figure parsed, then written again;
    # the writer reads `Edge`s, which live in `graphs`, and no search table
    out = run_with_src(
        "-c",
        RUN_LOG + "import glob\n"
        "import covadjust\n"
        "docs = []\n"
        "for path in sorted(glob.glob('corpus/*.cg')):\n"
        "    with open(path, encoding='utf-8') as fh:\n"
        "        docs.append(covadjust.parse_document(fh.read()))\n"
        "parsed = sorted(ran)\n"
        "for doc in docs:\n"
        "    covadjust.serialize_graph(doc.graph, doc.query)\n"
        "print(parsed, sorted(ran))"
    )
    model = sorted(["__init__", "model", "cgtext"])
    assert out.strip() == f"{model} {sorted([*model, 'graphs'])}"


# the constructor arguments of the errors whose `__init__` takes more or
# other than a message
ERROR_ARGS = {
    "DirectedCycleError": ((("d", "i", "r", "d"),), {}),
    "AlmostDirectedCycleError": ((("A", "B", "C"),), {}),
    "NotMaximalError": ((("A", "B"),), {}),
    "NoPathWitnessError": ((("X", "A", "B", "A", "Y"),), {}),
    "NotAmenableError": ((("X", "A", "Y"),), {}),
    "SizeCapExceededError": (("16 nodes exceeds the cap of 15",),
                             {"cap": "nodes", "limit": 15, "required": 16}),
    "ParseError": (("unexpected '}'", 1, 18, "a node name"), {}),
}


def _every_error():
    """One instance of every exception class of `errors`."""
    out = []
    for name, cls in vars(errors).items():
        if isinstance(cls, type) and issubclass(cls, errors.GraphError):
            args, kwargs = ERROR_ARGS.get(name, (("a message",), {}))
            out.append(cls(*args, **kwargs))
    return out


def _view(error):
    return type(error).__name__, str(error), error.args, repr(error), vars(error)


def test_every_error_survives_pickle_and_copy():
    every = _every_error()
    assert len(every) == 21 and ERROR_ARGS.keys() <= {type(e).__name__ for e in every}
    for error in every:
        again = [pickle.loads(pickle.dumps(error, protocol))
                 for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in (*again, copy.copy(error), copy.deepcopy(error)):
            assert type(other) is type(error) and _view(other) == _view(error)


def test_errors_unpickle_into_a_fresh_process_where_errors_is_deferred(tmp_path):
    every = _every_error()
    dump = tmp_path / "errors.pickle"
    dump.write_bytes(pickle.dumps(every))
    out = run_with_src(
        "-c",
        RUN_LOG + "import json, pickle\n"
        "import covadjust\n"
        "before = sorted(ran)\n"
        f"every = pickle.loads(open({str(dump)!r}, 'rb').read())\n"
        "views = [(type(e).__name__, str(e), e.args, repr(e), vars(e)) for e in every]\n"
        "print(json.dumps([before, sorted(ran), views]))"
    )
    before, after, views = json.loads(out)
    assert before == sorted(["__init__", "model", "cgtext"])
    assert after == sorted([*before, "errors"])
    assert views == json.loads(json.dumps([_view(e) for e in every]))


def test_a_parse_error_crosses_a_process_pool():
    text = "graph dag { A -> }"
    with pytest.raises(errors.ParseError) as here:
        ca.parse_document(text)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        future = pool.submit(ca.parse_document, text)
        with pytest.raises(errors.ParseError) as there:
            future.result(timeout=120)
    assert _view(there.value) == _view(here.value)
    assert (there.value.line, there.value.col) == (1, 18)


# `(parse_graph("graph pag { A o-> B B <-> C C -> D D o-o E }"), Edge.partial("A", "B"),
# Mark.CIRCLE, GraphClass.PAG)`, pickled when these classes were defined in
# `covadjust.graphs`, which the pickle names
PICKLED_IN_GRAPHS = bytes.fromhex(
    "800495d500000000000000288c10636f7661646a7573742e677261706873948c05477261706894939468008c"
    "0a4772617068436c6173739493948c037061679485945294288c0141948c0142948c0143948c0144948c0145"
    "9474942868008c044564676594939428680b680c68008c044d61726b9493948c016f94859452946814749452"
    "94680f2868086809681468118c013e948594529474945294680f28680a680b68118c012d9485945294681974"
    "945294680f286809680a6819681974945294919487945294680f2868088c0142946814681974945294681468"
    "0774942e"
)


def test_pickles_that_name_the_graphs_module_still_load():
    g, edge, mark, graph_class = pickle.loads(PICKLED_IN_GRAPHS)
    want = ca.parse_graph("graph pag { A o-> B B <-> C C -> D D o-o E }")
    assert g == want and g.nodes == want.nodes and g._marks == want._marks
    assert edge == ca.Edge.partial("A", "B")
    assert mark is ca.Mark.CIRCLE and graph_class is ca.GraphClass.PAG


# `(Graph(GraphClass.MAG, ("A", "B", "C", "D"), {Edge.directed("A", "B"),
# Edge.bidirected("B", "C"), Edge.directed("D", "C")}), Edge.partial("A", "B"))`,
# pickled when `Edge` was defined in `covadjust.model`, which the pickle names
PICKLED_IN_MODEL = bytes.fromhex(
    "800495ba000000000000008c0f636f7661646a7573742e6d6f64656c948c05477261706894939468008c0a47"
    "72617068436c6173739493948c036d61679485945294288c0141948c0142948c0143948c0144947494286800"
    "8c0445646765949394286808680968008c044d61726b9493948c012d948594529468108c013e948594529474"
    "945294680e28680a680b6816681374945294680e286809680a6816681674945294919487945294680e286808"
    "680968108c016f948594529468167494529486942e"
)


def test_pickles_that_name_the_model_edge_still_load():
    g, edge = pickle.loads(PICKLED_IN_MODEL)
    want = ca.Graph(ca.GraphClass.MAG, ("A", "B", "C", "D"),
                    {ca.Edge.directed("A", "B"), ca.Edge.bidirected("B", "C"),
                     ca.Edge.directed("D", "C")})
    assert g == want and g.nodes == want.nodes and g._marks == want._marks
    assert edge == ca.Edge.partial("A", "B") and type(edge) is ca.Edge
    assert all(type(e) is ca.Edge for e in g.edges)


def test_edge_and_the_writer_live_in_the_graphs_module():
    from covadjust import cgtext, graphs, model
    from covadjust.cgtext import serialize_graph

    assert ca.Edge is graphs.Edge is model.Edge
    assert ca.Edge.__module__ == "covadjust.graphs"
    assert serialize_graph is cgtext.serialize_graph is ca.serialize_graph is graphs.serialize_graph
    assert cgtext.serialize_document is ca.serialize_document is graphs.serialize_document


def test_concurrent_first_use_runs_each_module_once():
    # Eight threads reach the deferred modules together, with the thread
    # switch interval shortened so that they interleave inside the loading.
    out = run_with_src(
        "-c",
        RUN_LOG + "import json, threading\n"
        "import covadjust\n"
        "def sem():\n"
        "    covadjust.sem.verify_adjustment\n"
        "def mec():\n"
        "    covadjust.mec.enumerate_mags\n"
        "def gac():\n"
        "    from covadjust import satisfies_gac\n"
        "def fault():\n"
        "    covadjust.errors.GraphError\n"
        "touches = [sem, mec, gac, fault]\n"
        "start = threading.Barrier(8)\n"
        "errors = []\n"
        "def work(i):\n"
        "    start.wait()\n"
        "    for touch in touches[i % 4:] + touches[:i % 4]:\n"
        "        try:\n"
        "            touch()\n"
        "        except Exception as exc:\n"
        "            errors.append(repr(exc))\n"
        "sys.setswitchinterval(1e-6)\n"
        "threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]\n"
        "for t in threads:\n"
        "    t.start()\n"
        "for t in threads:\n"
        "    t.join(timeout=60)\n"
        "print(json.dumps({'alive': sum(t.is_alive() for t in threads), 'errors': errors,"
        " 'ran': sorted(m for m in ran if m in " + repr(DEFERRED) + ")}))"
    )
    result = json.loads(out)
    assert result == {"alive": 0, "errors": [], "ran": sorted(DEFERRED)}


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
