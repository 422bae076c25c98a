"""Partial mixed graphs with per-endpoint edge marks.

A graph here is one of four classes: DAG, CPDAG, MAG or PAG.  Each edge
carries a mark (tail, arrowhead or circle) at each endpoint, so a directed
edge X -> Y is (tail at X, arrow at Y), a bidirected edge X <-> Y is
(arrow, arrow), a non-directed edge X o-o Y is (circle, circle) and a
partially directed edge X o-> Y is (circle, arrow).  CPDAG undirected
edges are stored as (circle, circle); tail-tail and tail-circle edges are
rejected everywhere because selection variables are out of scope.

Graphs are immutable after construction and all operations are pure
functions, so everything in this package is safe for concurrent reads.

This module is the model alone: the marks, the classes, the records, and
the graph's data, its mark table `Graph._marks` and the accessors that
read it.  It is all that parsing and writing .cg text need, so it runs on
``import covadjust``.  The tables the searches read (the step masks, the
sinks-first order, the neighbour order, the visibility table) are built
on first use by the deferred module `covadjust.graphs`, which also holds
the closures, the cycle finders and the class checks.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum
from functools import cached_property
from operator import attrgetter

from . import graphs  # deferred (see `covadjust/__init__.py`): runs on a graph's first table
from .errors import DuplicateEdgeError, MarkNotAllowedError, UnknownNodeError

Node = str


class Mark(Enum):
    """Edge mark at one endpoint: tail, arrowhead or circle (unknown)."""

    TAIL = "-"
    ARROW = ">"
    CIRCLE = "o"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality and avoids the Python-level `Enum.__hash__`.
    __hash__ = object.__hash__


class GraphClass(Enum):
    DAG = "dag"
    CPDAG = "cpdag"
    MAG = "mag"
    PAG = "pag"

    __hash__ = object.__hash__


# Mark pairs allowed per class, as unordered {frozenset of (mark_a, mark_b)}.
_DIRECTED = frozenset({(Mark.TAIL, Mark.ARROW), (Mark.ARROW, Mark.TAIL)})
_BIDIRECTED = frozenset({(Mark.ARROW, Mark.ARROW)})
_NONDIRECTED = frozenset({(Mark.CIRCLE, Mark.CIRCLE)})
_PARTIAL = frozenset({(Mark.CIRCLE, Mark.ARROW), (Mark.ARROW, Mark.CIRCLE)})

_ALLOWED_MARKS = {
    GraphClass.DAG: _DIRECTED,
    GraphClass.CPDAG: _DIRECTED | _NONDIRECTED,
    GraphClass.MAG: _DIRECTED | _BIDIRECTED,
    GraphClass.PAG: _DIRECTED | _BIDIRECTED | _NONDIRECTED | _PARTIAL,
}


_set = object.__setattr__  # how a record's `__init__` stores its fields


class _Record:
    """Base of the package's immutable records.

    A subclass names its fields, in constructor order, in `__slots__` and
    `_fields` (two or more), and stores each one with `_set` in its own
    `__init__`.  The base supplies the rest without generating code:
    equality and hashing over the field tuple (`NotImplemented` against
    any other type), the repr ``Name(field=value, ...)``, an
    `AttributeError` on assigning or deleting an attribute, and copy and
    pickle by calling the class on the field values again, which reruns
    the checks of `__init__`.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls._fields)  # instance -> field tuple
        cls.__match_args__ = cls._fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Edge(_Record):
    """One edge with a mark at each endpoint.

    Endpoints are stored in lexicographic order so that the same edge
    written in either direction compares equal.
    """

    __slots__ = _fields = ("a", "b", "mark_a", "mark_b")

    def __init__(self, a: Node, b: Node, mark_a: Mark, mark_b: Mark):
        if a == b:
            raise MarkNotAllowedError(f"self loop at {a}")
        if a > b:
            a, b, mark_a, mark_b = b, a, mark_b, mark_a
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "mark_a", mark_a)
        _set(self, "mark_b", mark_b)

    # Written out rather than inherited: every graph hashes its edges into
    # its edge set, and plain attribute reads beat the generic getter.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.mark_a, self.mark_b) == (
                other.a, other.b, other.mark_a, other.mark_b)
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.mark_a, self.mark_b))

    @staticmethod
    def directed(tail: Node, head: Node) -> "Edge":
        """tail -> head"""
        return Edge(tail, head, Mark.TAIL, Mark.ARROW)

    @staticmethod
    def bidirected(a: Node, b: Node) -> "Edge":
        """a <-> b"""
        return Edge(a, b, Mark.ARROW, Mark.ARROW)

    @staticmethod
    def undirected(a: Node, b: Node) -> "Edge":
        """a o-o b (also the storage for CPDAG undirected edges)"""
        return Edge(a, b, Mark.CIRCLE, Mark.CIRCLE)

    @staticmethod
    def partial(circle: Node, head: Node) -> "Edge":
        """circle o-> head"""
        return Edge(circle, head, Mark.CIRCLE, Mark.ARROW)

    def mark_at(self, node: Node) -> Mark:
        if node == self.a:
            return self.mark_a
        if node == self.b:
            return self.mark_b
        raise UnknownNodeError(f"{node} is not an endpoint of {self.a}-{self.b}")

    def other(self, node: Node) -> Node:
        return self.b if node == self.a else self.a

    def is_directed(self) -> bool:
        ma, mb = self.mark_a, self.mark_b
        return (ma is Mark.TAIL and mb is Mark.ARROW) or (ma is Mark.ARROW and mb is Mark.TAIL)

    def is_bidirected(self) -> bool:
        return self.mark_a is Mark.ARROW and self.mark_b is Mark.ARROW

    def tail_node(self) -> Node:
        """Source of a directed edge."""
        if not self.is_directed():
            raise MarkNotAllowedError(f"{self} is not a directed edge")
        return self.a if self.mark_a is Mark.TAIL else self.b


class Graph(_Record):
    """Immutable partial mixed graph with a class tag.

    Construction checks structural invariants only (distinct node names,
    known endpoints, one edge per pair, class mark vocabulary).  The
    class-level invariants that need graph algorithms (acyclicity,
    ancestrality, maximality, equivalence-class round trips) are enforced
    by :func:`build_graph`.

    Node order is the declaration order and is used to sort every
    set-valued output deterministically.  Every search reads the mark
    table `_marks`.  A graph built by ``Graph(graph_class, nodes, edges)``
    keeps the edge set it was given; one parsed from text holds only the
    mark table, and its `edges` are derived from it on first use.
    """

    _fields = ("graph_class", "nodes", "edges")
    # the dict holds `edges`, the mark table and the cached tables
    __slots__ = ("graph_class", "nodes", "__dict__")

    def __init__(self, graph_class: GraphClass, nodes: tuple, edges: frozenset):
        edges = frozenset(edges)
        rows = [*map(Edge._values, edges)]  # (a, b, mark_a, mark_b) of each edge
        self._enter(graph_class, tuple(nodes), rows)
        _set(self, "edges", edges)

    @classmethod
    def _from_rows(cls, graph_class: GraphClass, nodes: tuple, rows: list) -> "Graph":
        """The graph of ``(a, b, mark_a, mark_b)`` edge rows, checked as
        ``Graph(...)`` checks its edges; an identical repeated row counts
        once.  No `Edge` is built until `edges` is read."""
        g = cls.__new__(cls)
        g._enter(graph_class, nodes, rows)
        return g

    def _enter(self, graph_class: GraphClass, nodes: tuple, rows: list) -> None:
        """Check the rows and store the class, the nodes and the mark table."""
        # `_marks[v][w]` is the mark at `v` of the edge v-w.  Since
        # tail-tail and tail-circle edges are rejected, a tail at `v` means
        # the edge is v -> w.
        marks = {n: {} for n in nodes}
        if len(marks) != len(nodes):
            dup = sorted({n for n in nodes if nodes.count(n) > 1})
            raise DuplicateEdgeError(f"duplicate node declaration: {', '.join(dup)}")
        try:
            _fill_marks(marks, rows, graph_class)
        except (UnknownNodeError, DuplicateEdgeError, MarkNotAllowedError):
            # the rows come in set or text order: report the first fault in name order
            by_name = sorted(((a, b, ma, mb) if a < b else (b, a, mb, ma) for a, b, ma, mb in rows),
                             key=lambda r: (r[0], r[1], r[2].value, r[3].value))
            _fill_marks({n: {} for n in nodes}, by_name, graph_class)
            raise
        _set(self, "graph_class", graph_class)
        _set(self, "nodes", nodes)
        _set(self, "_marks", marks)

    @cached_property
    def edges(self) -> frozenset:
        marks = self._marks
        return frozenset(Edge(a, b, m, marks[b][a])
                         for a, row in marks.items() for b, m in row.items() if a < b)

    @cached_property
    def node_index(self) -> dict:
        return {n: i for i, n in enumerate(self.nodes)}

    # The tables of the searches, each built by its namesake in `graphs`.

    @cached_property
    def _ordered_neighbors(self) -> dict:
        return graphs._ordered_neighbors(self)

    @cached_property
    def _steps(self) -> dict:
        return graphs._steps(self)

    @cached_property
    def _sinks_first(self) -> list:
        return graphs._sinks_first(self)

    @cached_property
    def _visible_tails(self) -> list:
        return graphs._visible_tails(self)

    def neighbors(self, node: Node) -> frozenset:
        self._require(node)
        return frozenset(self._marks[node])

    # The accessors below look the pair up once; only a pair without an
    # edge pays for checking that both are nodes.

    def adjacent(self, a: Node, b: Node) -> bool:
        if b in self._marks.get(a, ()):
            return True
        self._require(a, b)
        return False

    def edge_between(self, a: Node, b: Node):
        """The edge a-b, equal to the one in `edges`, or None."""
        mark = self._marks.get(a, {}).get(b)
        if mark is None:
            self._require(a, b)
            return None
        return Edge(a, b, mark, self._marks[b][a])

    def mark_at(self, near: Node, far: Node) -> Mark:
        """Mark at the `near` endpoint of the edge near-far."""
        m = self._marks.get(near, {}).get(far)
        if m is None:
            self._require(near, far)
            raise UnknownNodeError(f"no edge between {near} and {far}")
        return m

    def sort_nodes(self, nodes: Iterable[Node]) -> tuple:
        """Sort by declaration order (the deterministic reporting order)."""
        return tuple(sorted(nodes, key=self.node_index.__getitem__))

    def _require(self, *nodes: Node):
        for n in nodes:
            if n not in self.node_index:
                raise UnknownNodeError(f"unknown node: {n}")


def _fill_marks(marks: dict, rows, graph_class: GraphClass) -> None:
    """Enter each ``(a, b, mark_a, mark_b)`` row in `marks`; a row the
    table already holds is skipped.  Raises on the first faulty row."""
    allowed = _ALLOWED_MARKS[graph_class]
    for a, b, ma, mb in rows:
        row_a = marks.get(a)
        row_b = marks.get(b)
        if row_a is None or row_b is None:
            raise UnknownNodeError(f"edge endpoint not declared: {a}-{b}")
        held = row_a.get(b)
        if held is not None:
            if held is ma and row_b[a] is mb:
                continue
            raise DuplicateEdgeError(f"more than one edge between {a} and {b}")
        if (ma, mb) not in allowed:
            raise MarkNotAllowedError(
                f"edge {a} {_edge_glyph(ma, mb)} {b} not allowed in a {graph_class.value}"
            )
        row_a[b] = ma
        row_b[a] = mb


def _edge_glyph(mark_a: Mark, mark_b: Mark) -> str:
    left = {Mark.TAIL: "-", Mark.ARROW: "<", Mark.CIRCLE: "o"}[mark_a]
    right = {Mark.TAIL: "-", Mark.ARROW: ">", Mark.CIRCLE: "o"}[mark_b]
    return f"{left}-{right}"
