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
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<comment>#[^\n]*)|(?P<op><->|o->|<-o|o-o|->|--)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[{}=,;])"
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


class _Token(_Record):
    __slots__ = _fields = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        _set(self, "kind", kind)  # "op" | "name" | "punct" | "eof"
        _set(self, "text", text)
        _set(self, "line", line)
        _set(self, "col", col)


def _tokenize(text: str):
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind=None, text=None, expected=None) -> _Token:
        tok = self.tokens[self.pos]
        if (kind and tok.kind != kind) or (text and tok.text != text):
            raise ParseError(
                f"unexpected {tok.text!r}" if tok.text else "unexpected end of input",
                tok.line,
                tok.col,
                expected=expected or text or kind,
            )
        self.pos += 1
        return tok

    def take_name(self, expected="a node name") -> _Token:
        tok = self.take("name", expected=expected)
        if tok.text in _RESERVED:
            raise ParseError(f"{tok.text!r} is a reserved word", tok.line, tok.col, expected)
        return tok

    def parse_document(self) -> GraphDocument:
        self.take("name", "graph", expected="'graph'")
        cls_tok = self.take("name", expected="a graph class (dag|cpdag|mag|pag)")
        try:
            graph_class = GraphClass(cls_tok.text)
        except ValueError:
            raise ParseError(
                f"unknown graph class {cls_tok.text!r}",
                cls_tok.line,
                cls_tok.col,
                expected="dag|cpdag|mag|pag",
            ) from None
        self.take("punct", "{")
        nodes: list = []
        edges: list = []
        seen = set()

        def declare(name):
            if name not in seen:
                seen.add(name)
                nodes.append(name)

        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.text == "}":
                self.take()
                break
            first = self.take_name()
            declare(first.text)
            nxt = self.peek()
            if nxt.kind == "op":
                op = self.take()
                if op.text == "--" and graph_class is not GraphClass.CPDAG:
                    raise MarkNotAllowedError(
                        f"{op.line}:{op.col}: '--' is only allowed in CPDAG files"
                    )
                second = self.take_name()
                if second.text == first.text:
                    raise ParseError("self loop", second.line, second.col)
                declare(second.text)
                mark_first, mark_second = _EDGE_OPS[op.text]
                edges.append(Edge(first.text, second.text, mark_first, mark_second))
        graph = Graph(graph_class, tuple(nodes), frozenset(edges))

        query = None
        tok = self.peek()
        if tok.kind == "name" and tok.text == "query":
            query = self.parse_query()
        self.take("eof", expected="end of input")
        return GraphDocument(graph, query)

    def parse_query(self) -> Query:
        self.take("name", "query")
        self.take("punct", "{")
        parts: dict = {}
        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.text == "}":
                self.take()
                break
            if tok.kind == "punct" and tok.text == ";":
                self.take()
                continue
            key = self.take("name", expected="X, Y or Z")
            if key.text not in ("X", "Y", "Z"):
                raise ParseError(
                    f"unknown query key {key.text!r}", key.line, key.col, expected="X, Y or Z"
                )
            if key.text in parts:
                raise ParseError(f"duplicate query key {key.text}", key.line, key.col)
            self.take("punct", "=")
            names = []
            while self.peek().kind == "name" and self.peek().text not in _RESERVED:
                names.append(self.take_name().text)
                if self.peek().kind == "punct" and self.peek().text == ",":
                    self.take()
            parts[key.text] = tuple(names)
        return Query(x=parts.get("X"), y=parts.get("Y"), z=parts.get("Z"))


def parse_document(text: str) -> GraphDocument:
    """Parse a .cg document into a graph and its optional query block."""
    return _Parser(text).parse_document()


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
