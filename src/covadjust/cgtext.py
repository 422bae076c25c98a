"""The .cg graph text format.

    graph pag {
        V1            # bare name declares an isolated node / fixes order
        V1 o-> X
        X -> Y        # comment to end of line
    }
    query { X = X; Y = Y; Z = V1 }

Edge operators: ->, <->, o-o, o-> and <-o, plus -- as a CPDAG-only alias
of o-o.  Node names match [A-Za-z_][A-Za-z0-9_]*; the keywords graph,
query, dag, cpdag, mag and pag are reserved.  Whitespace and newlines are
interchangeable.  Parsing checks structure and mark vocabulary; the
class-level graph invariants are checked by `covadjust.validate_graph`.

`parse_document` makes one pass: one regular expression yields
`(kind, text, offset)` token tuples, and the statements go straight into
the `Graph`.  Errors report the line and column of their token, and a
character that starts no token is reported before any syntax error.
"""

from __future__ import annotations

import re

from .errors import MarkNotAllowedError, ParseError
from .graphs import Edge, Graph, GraphClass, Mark, _Record, _set

_EDGE_OPS = {
    "->": (Mark.TAIL, Mark.ARROW),
    "<->": (Mark.ARROW, Mark.ARROW),
    "o-o": (Mark.CIRCLE, Mark.CIRCLE),
    "o->": (Mark.CIRCLE, Mark.ARROW),
    "<-o": (Mark.ARROW, Mark.CIRCLE),
    "--": (Mark.CIRCLE, Mark.CIRCLE),  # CPDAG alias of o-o
}
_RESERVED = {"graph", "query", "dag", "cpdag", "mag", "pag"}
# Whitespace and comments, then one token: an operator, a name, a
# punctuation mark, the end of the text or, failing all of those, one
# bad character.  The match always succeeds, so `finditer` walks the
# whole text without gaps and its last match is the end.
_TOKEN_RE = re.compile(
    r"(?:\s+|#[^\n]*)*"
    r"(?:(?P<op><->|o->|<-o|o-o|->|--)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[{}=,;])"
    r"|(?P<eof>\Z)|(?P<bad>.))",
    re.DOTALL,
)


class Query(_Record):
    """The optional query block: node name tuples for X, Y and Z.

    A present-but-empty Z (``Z =``) is the empty set; an absent key is None.
    """

    __slots__ = _fields = ("x", "y", "z")

    def __init__(self, x: tuple | None = None, y: tuple | None = None, z: tuple | None = None):
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "z", z)


class GraphDocument(_Record):
    __slots__ = _fields = ("graph", "query")

    def __init__(self, graph: Graph, query: Query | None = None):
        _set(self, "graph", graph)
        _set(self, "query", query)


def _position(text: str, offset: int) -> tuple:
    """1-based (line, column) of `offset` in `text`."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _unexpected(text: str, token: tuple, expected: str) -> ParseError:
    word = token[1]
    message = f"unexpected {word!r}" if word else "unexpected end of input"
    return ParseError(message, *_position(text, token[2]), expected)


def _expect(text: str, token: tuple, word: str, expected: str | None = None) -> None:
    if token[1] != word:
        raise _unexpected(text, token, expected or word)


def _node_name(text: str, token: tuple) -> str:
    kind, word, offset = token
    if kind != "name":
        raise _unexpected(text, token, "a node name")
    if word in _RESERVED:
        raise ParseError(f"{word!r} is a reserved word", *_position(text, offset), "a node name")
    return word


def parse_document(text: str) -> GraphDocument:
    """Parse a .cg document into a graph and its optional query block."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}",
                             *_position(text, m.start(kind)))
        tokens.append((kind, m[kind], m.start(kind)))

    # Token texts of different kinds never coincide, so comparing the text
    # alone also checks the kind; the end of the text has the empty text.
    _expect(text, tokens[0], "graph", "'graph'")
    kind, word, offset = tokens[1]
    if kind != "name":
        raise _unexpected(text, tokens[1], "a graph class (dag|cpdag|mag|pag)")
    try:
        graph_class = GraphClass(word)
    except ValueError:
        raise ParseError(f"unknown graph class {word!r}", *_position(text, offset),
                         "dag|cpdag|mag|pag") from None
    _expect(text, tokens[2], "{")
    nodes = {}  # insertion-ordered set: the first mention fixes the order
    edges = []
    i = 3
    while tokens[i][1] != "}":
        first = _node_name(text, tokens[i])
        nodes[first] = None
        op = tokens[i + 1][1]
        if op not in _EDGE_OPS:
            i += 1
            continue
        if op == "--" and graph_class is not GraphClass.CPDAG:
            line, col = _position(text, tokens[i + 1][2])
            raise MarkNotAllowedError(f"{line}:{col}: '--' is only allowed in CPDAG files")
        second = _node_name(text, tokens[i + 2])
        if second == first:
            raise ParseError("self loop", *_position(text, tokens[i + 2][2]))
        nodes[second] = None
        edges.append(Edge(first, second, *_EDGE_OPS[op]))
        i += 3
    graph = Graph(graph_class, tuple(nodes), frozenset(edges))

    query = None
    i += 1
    if tokens[i][1] == "query":
        query, i = _parse_query(text, tokens, i + 1)
    if tokens[i][1]:
        raise _unexpected(text, tokens[i], "end of input")
    return GraphDocument(graph, query)


def _parse_query(text: str, tokens: list, i: int) -> tuple:
    """The query block whose '{' is expected at `tokens[i]`, and the index
    of the token after its '}'."""
    _expect(text, tokens[i], "{")
    i += 1
    parts: dict = {}
    while True:
        kind, key, offset = tokens[i]
        if key == "}":
            return Query(x=parts.get("X"), y=parts.get("Y"), z=parts.get("Z")), i + 1
        if key == ";":
            i += 1
            continue
        if kind != "name":
            raise _unexpected(text, tokens[i], "X, Y or Z")
        if key not in ("X", "Y", "Z"):
            raise ParseError(f"unknown query key {key!r}", *_position(text, offset), "X, Y or Z")
        if key in parts:
            raise ParseError(f"duplicate query key {key}", *_position(text, offset))
        _expect(text, tokens[i + 1], "=")
        i += 2
        names = []
        while tokens[i][0] == "name" and tokens[i][1] not in _RESERVED:
            names.append(tokens[i][1])
            i += 1
            if tokens[i][1] == ",":
                i += 1
        parts[key] = tuple(names)


def parse_graph(text: str) -> Graph:
    return parse_document(text).graph


def _edge_statement(e: Edge, g: Graph) -> str:
    idx = g.node_index
    if idx[e.a] <= idx[e.b]:
        p, q, mp, mq = e.a, e.b, e.mark_a, e.mark_b
    else:
        p, q, mp, mq = e.b, e.a, e.mark_b, e.mark_a
    # normalize so the operator reads left to right: -> not <-, o-> not <-o
    if (mp, mq) in ((Mark.ARROW, Mark.TAIL), (Mark.ARROW, Mark.CIRCLE)):
        p, q, mp, mq = q, p, mq, mp
    if (mp, mq) == (Mark.TAIL, Mark.ARROW):
        op = "->"
    elif (mp, mq) == (Mark.ARROW, Mark.ARROW):
        op = "<->"
    elif (mp, mq) == (Mark.CIRCLE, Mark.CIRCLE):
        op = "--" if g.graph_class is GraphClass.CPDAG else "o-o"
    else:
        op = "o->"
    return f"{p} {op} {q}"


def serialize_graph(g: Graph, query: Query | None = None) -> str:
    """Canonical text form; `parse_document` of the result is the identity
    on (class, node order, edges, query)."""
    lines = [f"graph {g.graph_class.value} {{"]
    for n in g.nodes:
        lines.append(f"  {n}")
    idx = g.node_index
    for e in sorted(g.edges, key=lambda e: (idx[e.a], idx[e.b])):
        lines.append(f"  {_edge_statement(e, g)}")
    lines.append("}")
    if query is not None:
        parts = []
        for key, val in (("X", query.x), ("Y", query.y), ("Z", query.z)):
            if val is not None:
                parts.append(f"{key} = {', '.join(val)}")
        lines.append(f"query {{ {'; '.join(parts)} }}")
    return "\n".join(lines) + "\n"


def serialize_document(doc: GraphDocument) -> str:
    return serialize_graph(doc.graph, doc.query)
