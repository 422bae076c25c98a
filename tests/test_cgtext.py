import collections
import copy
import pickle
import random
import re

import pytest

import covadjust as ca
from covadjust import cgtext
from covadjust.cgtext import Query
from covadjust.cli import run_command
from covadjust.errors import DuplicateEdgeError, GraphError, MarkNotAllowedError, ParseError
from covadjust.graphs import _ALLOWED_MARKS, Edge, Graph, GraphClass, Mark

import oracles
from conftest import CORPUS_DIR, CORPUS_NAMES
from oracles import class_graphs


def test_parse_minimal_dag():
    g = ca.parse_graph("graph dag { X -> Y }")
    assert g.graph_class is GraphClass.DAG
    assert g.nodes == ("X", "Y")
    assert g.edges == frozenset({Edge.directed("X", "Y")})


def test_parse_figure4a_file(corpus):
    g = corpus("fig4a").graph
    assert g.graph_class is GraphClass.PAG
    assert g.edge_between("V1", "X").mark_at("V1") is Mark.CIRCLE
    assert g.edge_between("V1", "X").mark_at("X") is Mark.ARROW
    assert g.edge_between("X", "Y") == Edge.directed("X", "Y")
    assert len(g.edges) == 8


def test_all_edge_operators():
    g = ca.parse_graph("graph pag { A -> B C <-> D E o-o F G o-> H I <-o J }")
    assert Edge.directed("A", "B") in g.edges
    assert Edge.bidirected("C", "D") in g.edges
    assert Edge.undirected("E", "F") in g.edges
    assert Edge.partial("G", "H") in g.edges
    assert Edge.partial("J", "I") in g.edges


def test_circle_marks_rejected_in_mag():
    with pytest.raises(MarkNotAllowedError):
        ca.parse_graph("graph mag { X o-> Y }")


def test_undirected_alias_only_in_cpdag():
    g = ca.parse_graph("graph cpdag { X -- Y }")
    assert g.edges == frozenset({Edge.undirected("X", "Y")})
    with pytest.raises(MarkNotAllowedError):
        ca.parse_graph("graph pag { X -- Y }")


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdgeError):
        ca.parse_graph("graph pag { X -> Y Y <-> X }")


def test_comments_and_whitespace_insensitivity():
    text = "graph dag{X->Y # inline comment\n  Y->Z}query{X=X;Y=Z}"
    doc = ca.parse_document(text)
    assert doc.graph.nodes == ("X", "Y", "Z")
    assert doc.query == Query(x=("X",), y=("Z",), z=None)


def test_syntax_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        ca.parse_graph("graph dag { X -> }")
    assert exc.value.line == 1 and exc.value.col == 18

    with pytest.raises(ParseError) as exc:
        ca.parse_graph("graph dog { X -> Y }")
    assert exc.value.expected == "dag|cpdag|mag|pag"

    with pytest.raises(ParseError):
        ca.parse_graph("graph dag { X -> Y ")  # missing brace

    with pytest.raises(ParseError):
        ca.parse_graph("graph dag { graph -> Y }")  # reserved node name

    with pytest.raises(ParseError):
        ca.parse_graph("graph dag { X -> Y } trailing")

    with pytest.raises(ParseError) as exc:
        ca.parse_graph("graph dag { X ~> Y }")
    assert exc.value.line == 1


def test_query_block_parsing():
    doc = ca.parse_document("graph dag { X -> Y } query { X = X; Y = Y; Z = }")
    assert doc.query == Query(x=("X",), y=("Y",), z=())
    doc = ca.parse_document("graph dag { A -> B } query { X = A; Y = B }")
    assert doc.query.z is None
    with pytest.raises(ParseError):
        ca.parse_document("graph dag { X -> Y } query { X = X; X = Y }")
    with pytest.raises(ParseError):
        ca.parse_document("graph dag { X -> Y } query { W = X }")


@pytest.mark.parametrize("text, col", [
    ("graph dag { X -> Y } query { X = X Y }", 36),
    ("graph dag { X -> Y } query { X = X Y = Y }", 36),
    ("graph dag { X -> Y } query { X = X Y; }", 36),
])
def test_query_part_ends_at_a_separator(text, col):
    """After a name, a query part goes on at ',' or ends at ';' or '}':
    a second name is an error, not one more member of the set."""
    with pytest.raises(ParseError) as exc:
        ca.parse_document(text)
    assert (exc.value.line, exc.value.col) == (1, col)
    assert str(exc.value) == f"1:{col}: unexpected 'Y' (expected ',', ';' or '}}')"
    # the separators themselves still work, trailing ones included
    doc = ca.parse_document("graph dag { X -> Y } query { X = X, Y, ; Z = }")
    assert doc.query == Query(x=("X", "Y"), z=())


def test_isolated_nodes_and_declaration_order():
    g = ca.parse_graph("graph dag { B A A -> B }")
    assert g.nodes == ("B", "A")


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_round_trip_on_corpus(corpus, name):
    doc = corpus(name)
    text = ca.serialize_document(doc)
    again = ca.parse_document(text)
    assert again.graph == doc.graph
    assert again.query == doc.query
    # serialization is canonical: a second round trip is byte-identical
    assert ca.serialize_document(again) == text


def test_build_serialize_parse_identity():
    g = ca.build_graph(
        GraphClass.MAG,
        ["S", "T", "U"],
        [Edge.directed("S", "T"), Edge.bidirected("T", "U")],
    )
    again = ca.parse_graph(ca.serialize_graph(g))
    assert again == g


def test_serializer_never_emits_reversed_operators():
    g = ca.build_graph(GraphClass.PAG, ["B", "A"], [Edge.partial("B", "A")])
    text = ca.serialize_graph(g)
    assert "<-o" not in text and "B o-> A" in text


# ------------------------------------------------- straight into the mark table


@pytest.mark.parametrize("cls", ["dag", "cpdag", "mag", "pag"])
def test_parsed_graph_equals_the_constructed_one(cls):
    """The graph parsed from a serialized graph is the one `Graph(...)`
    builds from its edges, in equality, hash, mark table, edges and copies."""
    for g in class_graphs(cls, 3, 30):
        built = Graph(g.graph_class, g.nodes, g.edges)
        parsed = ca.parse_graph(ca.serialize_graph(g))
        assert "edges" not in vars(parsed)  # derived on first use
        assert parsed._marks == built._marks
        assert parsed.edges == built.edges == g.edges
        assert parsed == built and hash(parsed) == hash(built)
        for twin in (copy.copy(parsed), copy.deepcopy(parsed), pickle.loads(pickle.dumps(parsed))):
            assert twin == built and hash(twin) == hash(built)
            assert twin._marks == built._marks


def test_constructed_graph_keeps_its_edge_set():
    edges = frozenset({Edge.directed("A", "B")})
    assert Graph(GraphClass.DAG, ("A", "B"), edges).edges is edges


def test_repeated_identical_edge_parses():
    for text in ("graph dag { A -> B A -> B }", "graph pag { A o-> B B <-o A }"):
        g = ca.parse_graph(text)
        assert len(g.edges) == 1
        assert g == Graph(g.graph_class, ("A", "B"), g.edges)


@pytest.mark.parametrize("text, error, message", [
    ("graph pag { X -> Y Y <-> X }", DuplicateEdgeError, "more than one edge between X and Y"),
    ("graph mag { Y o-> X }", MarkNotAllowedError, "edge X <-o Y not allowed in a mag"),
    # several faults: the first in name order, whatever the text order
    ("graph dag { C <-> D B -> A A -> B }", DuplicateEdgeError,
     "more than one edge between A and B"),
    ("graph dag { D -> C C -> D A <-> B }", MarkNotAllowedError,
     "edge A <-> B not allowed in a dag"),
])
def test_edge_faults_keep_their_messages(text, error, message):
    with pytest.raises(error) as exc:
        ca.parse_graph(text)
    assert type(exc.value) is error and str(exc.value) == message
    # a bad character anywhere is still reported first
    with pytest.raises(ParseError, match="unexpected character '@'"):
        ca.parse_document(text + " query { X = @ }")


def _wide_text(n, seed):
    """A seeded text of `n` nodes with about 1.2n edges of every PAG operator."""
    rng = random.Random(seed)
    nodes = [f"V{i}" for i in range(n)]
    pairs = sorted(_ALLOWED_MARKS[GraphClass.PAG], key=lambda p: (p[0].value, p[1].value))
    edges = {}
    while len(edges) < int(1.2 * n):
        a, b = rng.sample(nodes, 2)
        edges[frozenset((a, b))] = Edge(a, b, *rng.choice(pairs))
    return ca.serialize_graph(Graph(GraphClass.PAG, nodes, frozenset(edges.values())))


def test_parsing_builds_no_edge_objects(monkeypatch):
    """A work count, not a timing: parsing fills the mark table without
    one `Edge`; reading `edges` afterwards builds them."""
    texts = [(CORPUS_DIR / f"{name}.cg").read_text(encoding="utf-8") for name in CORPUS_NAMES]
    texts.append(_wide_text(100, "no-edge-objects"))
    built = collections.Counter()
    init = Edge.__init__

    def counting_init(self, *args):
        built["edges"] += 1
        init(self, *args)

    monkeypatch.setattr(Edge, "__init__", counting_init)
    docs = [ca.parse_document(text) for text in texts]
    assert built["edges"] == 0
    assert sum(len(doc.graph.edges) for doc in docs) == built["edges"] > 120


# a MAG with a bidirected edge, so the almost directed cycle check has one to try
BIDIRECTED_MAG = "graph mag { V <-> X X -> Y W -> Y } query { X = X; Y = Y }"


@pytest.mark.parametrize("command", ["check", "amenable", "forbidden", "backdoor", "list"])
def test_mag_commands_build_no_edge_objects(command, tmp_path, monkeypatch, capsys):
    """The class check of a parsed MAG (ancestral, maximal) and the
    decision read the mark table: no `Edge` is built."""
    (tmp_path / "bidirected.cg").write_text(BIDIRECTED_MAG, encoding="utf-8")
    files = [CORPUS_DIR / "fig3b.cg", CORPUS_DIR / "fig3c.cg", tmp_path / "bidirected.cg"]
    built = collections.Counter()
    init = Edge.__init__

    def counting_init(self, *args):
        built["edges"] += 1
        init(self, *args)

    monkeypatch.setattr(Edge, "__init__", counting_init)
    for path in files:
        assert run_command([command, "--graph", str(path)]) in (0, 1)
    capsys.readouterr()
    assert built["edges"] == 0


def test_parsed_graph_holds_one_string_per_node():
    """Every mention of a name is the object of its first mention, so a
    parsed graph keeps one `str` per node, not one per mention."""
    texts = [(CORPUS_DIR / f"{name}.cg").read_text(encoding="utf-8") for name in CORPUS_NAMES]
    texts.append(_wide_text(100, "one-string-per-node"))
    for text in texts:
        g = ca.parse_graph(text)
        by_name = {v: v for v in g.nodes}
        for v, row in g._marks.items():
            assert v is by_name[v]
            assert all(w is by_name[w] for w in row)


# ------------------------------------------------- against the reference parser

# Characters the mutations draw from: the format's operators, punctuation,
# comment and whitespace, name characters, and a few it does not accept.
MUTATION_ALPHABET = "XYZVAo_9-<>{}=,;# \n\t\rgqdpm~!é"


def _outcome(parse, text):
    """The parsed document, or the error's type, message and position."""
    try:
        return parse(text)
    except GraphError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None),
                getattr(exc, "expected", None))


def _mutate(rng, text):
    """`text` with zero to three random single-character inserts, deletes
    or replaces."""
    chars = list(text)
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(chars) + 1)
        op = rng.choice(("insert", "delete", "replace")) if i < len(chars) else "insert"
        if op == "insert":
            chars.insert(i, rng.choice(MUTATION_ALPHABET))
        elif op == "delete":
            del chars[i]
        else:
            chars[i] = rng.choice(MUTATION_ALPHABET)
    return "".join(chars)


# Texts that fail: a second edge between A and B, a circle mark in a MAG,
# the CPDAG-only "--" in a PAG, and each reserved word as a node name.
REJECTED = [
    "graph pag { A -> B B <-> A C o-> A }\nquery { X = A; Y = B; Z = }",
    "graph mag { A -> B\n  B o-> C }",
    "graph pag { A -> B # comment\n B -- C }",
    *(f"graph dag {{ A -> {word} }}" for word in ("graph", "query", "dag", "cpdag", "mag", "pag")),
]


def _seed_texts():
    texts = [(CORPUS_DIR / f"{name}.cg").read_text(encoding="utf-8") for name in CORPUS_NAMES]
    texts += REJECTED
    for cls, count in (("dag", 30), ("cpdag", 20), ("mag", 25), ("pag", 12)):
        for g in class_graphs(cls, 1, count):
            names = g.nodes
            query = Query(x=names[:1], y=names[1:2], z=names[2:3] if len(g.edges) % 2 else ())
            texts.append(ca.serialize_graph(g, query if len(g.edges) % 3 else None))
    return texts


def test_parser_agrees_with_reference_on_mutated_texts():
    rng = random.Random(2015)
    texts = _seed_texts()
    kinds = collections.Counter()
    mismatches = []
    for i in range(20_000):
        text = _mutate(rng, texts[i % len(texts)])
        got = _outcome(ca.parse_document, text)
        want = _outcome(oracles.parse_document_reference, text)
        if got != want:
            mismatches.append((text, got, want))
        kinds[want[0].__name__ if isinstance(want, tuple) else "parsed"] += 1
    assert mismatches == []
    # the mutations reach the documents and every kind of rejection
    assert kinds["parsed"] >= 5_000 and kinds["ParseError"] >= 5_000
    for error in ("MarkNotAllowedError", "DuplicateEdgeError"):
        assert kinds[error] >= 50, kinds


# ------------------------------------------------------------ round trip


def _random_name(rng, taken):
    first = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"
    rest = first + "0123456789"
    while True:
        name = rng.choice(first) + "".join(rng.choice(rest) for _ in range(rng.randint(0, 5)))
        if name not in taken and name not in ("graph", "query", "dag", "cpdag", "mag", "pag"):
            taken.add(name)
            return name


def _gap(rng):
    """Whitespace, sometimes with a comment, between two tokens."""
    return rng.choice([" ", "  ", "\n", "\t", " \n\t ", " # note -> X { }\n", "#\n"])


def _statement(rng, e, cls):
    """The edge as a statement, written from either end where an operator exists."""
    a, b, ma, mb = e.a, e.b, e.mark_a, e.mark_b
    if rng.random() < 0.5:
        a, b, ma, mb = b, a, mb, ma
    ops = {(Mark.TAIL, Mark.ARROW): ["->"], (Mark.ARROW, Mark.ARROW): ["<->"],
           (Mark.CIRCLE, Mark.CIRCLE): ["o-o", "--"] if cls is GraphClass.CPDAG else ["o-o"],
           (Mark.CIRCLE, Mark.ARROW): ["o->"], (Mark.ARROW, Mark.CIRCLE): ["<-o"]}
    if (ma, mb) not in ops:  # only a -> b is written from its tail
        a, b, ma, mb = b, a, mb, ma
    return [a, rng.choice(ops[(ma, mb)]), b]


@pytest.mark.parametrize("cls", ["dag", "cpdag", "mag", "pag"])
def test_round_trip_on_random_texts(cls):
    """Random names, statement order, whitespace, comments and query block:
    the parse is the graph written, and serializing is a fixed point."""
    rng = random.Random(f"round-trip-{cls}")
    for source in class_graphs(cls, 1, 12):
        taken = set()
        rename = {v: _random_name(rng, taken) for v in source.nodes}
        edges = [Edge(rename[e.a], rename[e.b], e.mark_a, e.mark_b) for e in source.edges]
        statements = [[rename[v]] for v in source.nodes if rng.random() < 0.5]
        statements += [_statement(rng, e, source.graph_class) for e in edges]
        statements += [[rename[v]] for v in source.nodes]  # every node is mentioned
        rng.shuffle(statements)
        tokens = ["graph", cls, "{"] + [t for st in statements for t in st] + ["}"]
        order = list(dict.fromkeys(t for st in statements for t in st[::2]))
        query = None
        if rng.random() < 0.7:
            names = list(order)
            rng.shuffle(names)
            k = rng.randint(1, len(names) - 2)
            query = Query(x=tuple(names[:k]), y=tuple(names[k:k + 1]),
                          z=rng.choice([None, (), tuple(names[k + 1:])]))
            # a ";" ends each part, except that the last may end at the "}"
            parts = [[key, "=", *", ".join(value).split(), ";"]
                     for key, value in (("X", query.x), ("Y", query.y), ("Z", query.z))
                     if value is not None]
            rng.shuffle(parts)
            if rng.random() < 0.5:
                parts[-1].pop()
            tokens += ["query", "{", *(t for part in parts for t in part), "}"]
        text = _gap(rng) + "".join(t + _gap(rng) for t in tokens)
        doc = ca.parse_document(text)
        assert doc.graph == ca.Graph(source.graph_class, tuple(order), frozenset(edges))
        assert doc.query == query
        canonical = ca.serialize_document(doc)
        again = ca.parse_document(canonical)
        assert again == doc
        assert ca.serialize_document(again) == canonical


# ------------------------------------------------------ the two token routes

# Pieces of fuzzed texts: whole tokens; whitespace that `str.split` and
# the `\s` of a regular expression both know, besides the ASCII kinds
# (NBSP, U+2028, U+0085, U+3000, U+001C); comments; and pieces that are
# no token or that glue to their neighbours: a BOM, U+200B (no
# whitespace to either), a lone "-", "<" or ">", and so on.
FUZZ_TOKENS = ["graph", "query", "dag", "pag", "A", "B7", "_z", "o", "X", "Y",
               "->", "<->", "o-o", "o->", "<-o", "--", "{", "}", "=", ",", ";"]
FUZZ_SPACES = [" ", " ", " ", "\n", "\t", "\r\n", "\xa0", "\u2028", "\x85", "\u3000",
               "\x1c", "\x0b"]
FUZZ_OTHERS = ["# note -> {", "#", "# x\r\n", "\ufeff", "\u200b", "-", "<", ">", "@", "é", "9"]
FUZZ_PIECES = FUZZ_TOKENS + FUZZ_SPACES + FUZZ_OTHERS
FUZZ_WEIGHTS = [6] * len(FUZZ_TOKENS) + [10] * len(FUZZ_SPACES) + [1] * len(FUZZ_OTHERS)


def _regex_tokens(text):
    """`re.findall(_TOKEN, text)` up to and with its first empty text."""
    tokens = re.findall(cgtext._TOKEN, text)
    return tokens[:tokens.index("") + 1]


def test_split_route_agrees_with_the_token_regex_on_fuzzed_texts():
    """Wherever the whitespace split gives tokens, they are the regular
    expression's; texts it refuses go to the regular expression."""
    rng = random.Random("split-route")
    routes = collections.Counter()
    covered = collections.Counter()
    mismatches = []
    for _ in range(100_000):
        text = "".join(rng.choices(FUZZ_PIECES, FUZZ_WEIGHTS, k=rng.randint(1, 24)))
        split = cgtext._split_tokens(text)
        if split is None:
            routes["regex"] += 1
            continue
        routes["split"] += 1
        if split != _regex_tokens(text):
            mismatches.append(text)
        covered.update(piece for piece in ("\xa0", "\u2028", "\x85", "\r\n", "#") if piece in text)
    assert mismatches == []
    assert routes["split"] >= 30_000 and routes["regex"] >= 30_000, routes
    assert min(covered[piece] for piece in ("\xa0", "\u2028", "\x85", "\r\n", "#")) >= 1_000, covered
    # a BOM, U+200B or a stray character sends a text to the regular
    # expression; so does an operator glued to a name
    for text in ("\ufeffgraph dag { }", "graph dag { A\u200b }", "graph dag { A ~> B }",
                 "graph dag { A->B }", "graph dag { A o->B }", "graph dag { A@ }"):
        assert cgtext._split_tokens(text) is None, text


def test_split_route_takes_corpus_and_serialized_texts():
    texts = [(CORPUS_DIR / f"{name}.cg").read_text(encoding="utf-8") for name in CORPUS_NAMES]
    texts.append(_wide_text(100, "split-route"))
    for cls in ("dag", "cpdag", "mag", "pag"):
        for g in class_graphs(cls, 1, 30):
            names = g.nodes
            texts.append(ca.serialize_graph(g))
            texts.append(ca.serialize_graph(g, Query(x=names[:1], y=names[1:2], z=names[2:])))
    for text in texts:
        assert cgtext._split_tokens(text) == _regex_tokens(text), text


def _two_pass(text):
    """The graph of a valid `text` by two passes: its edge rows in text
    order, then `Graph._from_rows` over its names in order of first
    mention, each name the object of its first mention."""
    tokens = re.findall(cgtext._TOKEN, text)
    names, rows = {}, []
    i = 3
    while tokens[i] != "}":
        a = names.setdefault(tokens[i], tokens[i])
        marks = cgtext._EDGE_OPS.get(tokens[i + 1])
        if marks is None:
            i += 1
        else:
            rows.append((a, names.setdefault(tokens[i + 2], tokens[i + 2]), *marks))
            i += 3
    return Graph._from_rows(GraphClass(tokens[1]), tuple(names), rows)


@pytest.mark.parametrize("cls", ["dag", "cpdag", "mag", "pag"])
def test_one_pass_table_follows_first_mention(cls):
    """What graph equality cannot see: the table's nodes and each row's
    neighbours are in order of first mention in the text, as the two-pass
    route enters them, and each node is one `str` object."""
    rng = random.Random(f"first-mention-{cls}")
    routes = collections.Counter()
    for k, g in enumerate(class_graphs(cls, 2, 40)):
        statements = [_statement(rng, e, g.graph_class) for e in g.edges]
        statements += [rng.choice(statements) for _ in range(len(statements) // 3)]  # repeats
        statements += [[v] for v in g.nodes]
        rng.shuffle(statements)
        words = ["graph", cls, "{", *(w for st in statements for w in st), "}"]
        # in every other text the operators are glued to their names where
        # that keeps the tokens (A->B, A o->B), which sends the text to the
        # regular expression
        text = "".join(w + ("" if k % 2 and (w in cgtext._EDGE_OPS or after[:1] in "<-")
                            else _gap(rng))
                       for w, after in zip(words, words[1:] + ["}"]))
        routes["split" if cgtext._split_tokens(text) else "regex"] += 1
        parsed, want = ca.parse_graph(text), _two_pass(text)
        assert parsed == want and parsed.nodes == want.nodes
        assert list(parsed._marks) == list(want._marks) == list(parsed.nodes)
        for v, row in want._marks.items():
            assert list(parsed._marks[v].items()) == list(row.items())
        by_name = {v: v for v in parsed.nodes}
        for v, row in parsed._marks.items():
            assert v is by_name[v] and all(w is by_name[w] for w in row)
    assert routes["split"] >= 20 and routes["regex"] >= 15, routes
