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

`parse_document` makes one pass from text to the graph's mark table.
Text with whitespace between its tokens is cut by `str.split`, once each
line is cut at `#` and `{ } = , ;` are padded with spaces.  Text that
leaves a word which is not a whole token (`A->B`, a stray character) is
cut by `_TOKEN`, which gives the same tokens.  Each edge statement
writes its two marks straight into the table: no `Edge` is built.
Positions are computed only for an error, by scanning the text again up
to the failing token.  Errors report the line and column of their
token, and a character that starts no token is reported before any
syntax error.

Valid text runs this module alone.  A fault is raised as
``errors._Fault`` at its token and located by ``errors._located``: that
path and the exception types live in the deferred module
`covadjust.errors`, whose code runs on the first fault.  The writer,
`serialize_graph` and `serialize_document`, reads `Edge`s and runs in
the deferred module `covadjust.graphs`; this module serves both names
from there, so parsing alone never runs `graphs`.
"""

import re

from . import errors, graphs  # deferred (see `covadjust/__init__.py`): the fault path, the writer
from .model import _ALLOWED_MARKS, Graph, GraphClass, Mark, _Record, _set

_EDGE_OPS = {
    "->": (Mark.TAIL, Mark.ARROW),
    "<->": (Mark.ARROW, Mark.ARROW),
    "o-o": (Mark.CIRCLE, Mark.CIRCLE),
    "o->": (Mark.CIRCLE, Mark.ARROW),
    "<-o": (Mark.ARROW, Mark.CIRCLE),
    "--": (Mark.CIRCLE, Mark.CIRCLE),  # CPDAG alias of o-o
}
_RESERVED = frozenset({"graph", "query", "dag", "cpdag", "mag", "pag"})
_CLASSES = {c.value: c for c in GraphClass}
# class -> the operators whose marks it allows, with those marks
_CLASS_OPS = {
    c: {op: marks for op, marks in _EDGE_OPS.items()
        if marks in _ALLOWED_MARKS[c] and (op != "--" or c is GraphClass.CPDAG)}
    for c in GraphClass
}
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# A token is a node name iff it is none of these and its first character
# is in `_NAME_START`.  Test these first: the operators o-o and o-> start
# with a name letter, and the end of the text has no first character.
_NOT_NODES = frozenset({*_RESERVED, *_EDGE_OPS, ""})
# Whitespace and comments, then one token: an operator, a name, a
# punctuation mark, the end of the text or, failing all of those, one
# bad character.  The match always succeeds, so `findall` walks the whole
# text without gaps and returns each token's text; the end of the text
# is the empty text, and every other text names its kind; `re` compiles
# it on first use.
_TOKEN = r"(?s)\s*(?:#[^\n]*\s*)*(<->|o->|<-o|o-o|->|--|[A-Za-z_][A-Za-z0-9_]*|[{}=,;]|\Z|.)"
_PUNCTUATION = "{}=,;"
# The one-character texts of valid tokens; any other one is a bad character.
_ONE_CHAR_TOKENS = _NAME_START | frozenset(_PUNCTUATION)
# The whole tokens besides the names (ASCII identifiers)
_FIXED_TOKENS = frozenset({*_EDGE_OPS, *_PUNCTUATION})


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


def _is_name(word: str) -> bool:
    return word[:1] in _NAME_START and word not in _EDGE_OPS


def _split_tokens(text: str) -> list | None:
    """`re.findall(_TOKEN, text)` up to its first empty text, the end, cut
    by whitespace instead; None if a word is not a whole token."""
    words = text
    if "#" in words:  # a comment runs to the next "\n", as in `_TOKEN`
        words = "\n".join([line.partition("#")[0] for line in words.split("\n")])
    for mark in _PUNCTUATION:
        if mark in words:
            words = words.replace(mark, f" {mark} ")
    at = words.find("-")  # an operator's; it ends one place on, unless glued (A->B)
    if at >= 0 and words[at + 2:at + 3].strip():
        return None
    words = words.split()
    for word in set(words):
        if word not in _FIXED_TOKENS and not (word.isascii() and word.isidentifier()):
            return None
    words.append("")
    return words


def parse_document(text: str) -> GraphDocument:
    """Parse a .cg document into a graph and its optional query block."""
    tokens = _split_tokens(text) or re.findall(_TOKEN, text)
    try:
        return _parse_tokens(tokens)
    except errors._Fault as fault:
        raise errors._located(text, tokens, fault) from None
    except errors.GraphError:  # a fault of the edges, found at the closing '}'
        error = errors._located(text, tokens, None)
        if error is None:
            raise
        raise error from None


def _parse_tokens(tokens: list) -> GraphDocument:
    if tokens[0] != "graph":
        raise errors._unexpected(tokens, 0, "'graph'")
    word = tokens[1]
    graph_class = _CLASSES.get(word)
    if graph_class is None:
        if _is_name(word):
            raise errors._Fault(1, f"unknown graph class {word!r}", "dag|cpdag|mag|pag")
        raise errors._unexpected(tokens, 1, "a graph class (dag|cpdag|mag|pag)")
    if tokens[2] != "{":
        raise errors._unexpected(tokens, 2, "{")
    ops = _CLASS_OPS[graph_class]
    # `marks` becomes `Graph._marks`.  `held` maps a name to its first
    # mention, which stands for every later one (one string per node),
    # and to its row; a name in `held` was checked when it was entered.
    # `refused` holds edge faults, raised once the block's syntax holds.
    marks = {}
    held = {}
    refused = []
    i = 3
    first = tokens[3]
    while first != "}":
        entry = held.get(first)
        if entry is None:
            if first in _NOT_NODES or first[0] not in _NAME_START:
                raise errors._not_a_node(tokens, i)
            row = marks[first] = {}
            held[first] = first, row
        else:
            first, row = entry
        op = tokens[i + 1]
        pair = ops.get(op)
        if pair is None and op not in _EDGE_OPS:
            i += 1
        else:
            if pair is None and op == "--":
                raise errors._Fault(i + 1, "'--' is only allowed in CPDAG files",
                                    error=errors.MarkNotAllowedError)
            second = tokens[i + 2]
            entry = held.get(second)
            if entry is None:
                if second in _NOT_NODES or second[0] not in _NAME_START:
                    raise errors._not_a_node(tokens, i + 2)
                other = marks[second] = {}
                held[second] = second, other
            elif entry[0] is first:
                raise errors._Fault(i + 2, "self loop")
            else:
                second, other = entry
            if pair is None:
                refused.append((first, second, *_EDGE_OPS[op]))
            else:
                mark = row.get(second)
                if mark is None:
                    row[second], other[first] = pair
                elif mark is not pair[0] or other[first] is not pair[1]:
                    refused.append((first, second, *pair))
            i += 3
        first = tokens[i]
    if refused:  # each is a fault: raise the first in name order, as `Graph(...)` does
        entered = [(v, w, m, marks[w][v]) for v, row in marks.items() for w, m in row.items()]
        Graph._from_rows(graph_class, tuple(marks), entered + refused)
    graph = Graph.__new__(Graph)
    _set(graph, "graph_class", graph_class)
    _set(graph, "nodes", tuple(marks))
    _set(graph, "_marks", marks)

    query = None
    i += 1
    if tokens[i] == "query":
        query, i = _parse_query(tokens, i + 1)
    if tokens[i]:
        raise errors._unexpected(tokens, i, "end of input")
    return GraphDocument(graph, query)


def _parse_query(tokens: list, i: int) -> tuple:
    """The query block whose '{' is expected at `tokens[i]`, and the index
    of the token after its '}'.  A part is a key, '=' and node names
    separated by ','; it ends at ';' or '}'."""
    if tokens[i] != "{":
        raise errors._unexpected(tokens, i, "{")
    i += 1
    parts: dict = {}
    while True:
        key = tokens[i]
        if key == "}":
            return Query(x=parts.get("X"), y=parts.get("Y"), z=parts.get("Z")), i + 1
        if key == ";":
            i += 1
            continue
        if not _is_name(key):
            raise errors._unexpected(tokens, i, "X, Y or Z")
        if key not in ("X", "Y", "Z"):
            raise errors._Fault(i, f"unknown query key {key!r}", "X, Y or Z")
        if key in parts:
            raise errors._Fault(i, f"duplicate query key {key}")
        if tokens[i + 1] != "=":
            raise errors._unexpected(tokens, i + 1, "=")
        i += 2
        names = []
        word = tokens[i]
        while word not in _NOT_NODES and word[0] in _NAME_START:
            names.append(word)
            i += 1
            word = tokens[i]
            if word == ",":
                i += 1
                word = tokens[i]
            elif word != ";" and word != "}":
                raise errors._unexpected(tokens, i, "',', ';' or '}'")
        parts[key] = tuple(names)


def __getattr__(name):
    # the writer, which runs in `graphs` beside `Edge`
    if name in ("serialize_graph", "serialize_document"):
        return getattr(graphs, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def parse_graph(text: str) -> Graph:
    return parse_document(text).graph
