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
read it.  With the parser it is all that ``import covadjust`` runs, and
all that parsing valid .cg text needs.  The rest runs on first use in
deferred modules.  `covadjust.kernel` builds the tables the searches
read (the step masks, the sinks-first order, the neighbour order), each
a one-line call from the `cached_property` of its name here.
`covadjust.graphs` holds the `Edge` record, the checks that enter edges
into a graph (``Graph(...)``, `Graph._from_rows`), the edge set of a
parsed graph, the .cg writer, the closures, the cycle finders and the
class checks.  `covadjust.errors` runs only on a fault, such as an
unknown node.  ``covadjust.model.Edge`` still names the edge record,
which pickles written when it lived here name.
"""

from collections.abc import Iterable
from enum import Enum
from functools import cached_property
from operator import attrgetter

from . import errors, graphs, kernel  # deferred (see `covadjust/__init__.py`): run on first use

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
    mark table, and its `edges` are derived from it on first use.  Edge
    entry, the edge set and `edge_between` are one-line calls into
    `covadjust.graphs`, which holds `Edge`; the search tables are
    one-line calls into `covadjust.kernel`.
    """

    _fields = ("graph_class", "nodes", "edges")
    # the dict holds `edges`, the mark table and the cached tables
    __slots__ = ("graph_class", "nodes", "__dict__")

    def __init__(self, graph_class: GraphClass, nodes: tuple, edges: frozenset):
        graphs._enter_edges(self, graph_class, nodes, edges)

    @classmethod
    def _from_rows(cls, graph_class: GraphClass, nodes: tuple, rows: list) -> "Graph":
        """The graph of ``(a, b, mark_a, mark_b)`` edge rows, checked as
        ``Graph(...)`` checks its edges; an identical repeated row counts
        once.  No `Edge` is built until `edges` is read."""
        g = cls.__new__(cls)
        graphs._enter(g, graph_class, nodes, rows)
        return g

    @cached_property
    def edges(self) -> frozenset:
        return graphs._edges(self)

    @cached_property
    def node_index(self) -> dict:
        return {n: i for i, n in enumerate(self.nodes)}

    # The tables of the searches, each but the last built by its namesake
    # in `kernel`.

    @cached_property
    def _ordered_neighbors(self) -> dict:
        return kernel._ordered_neighbors(self)

    @cached_property
    def _steps(self) -> dict:
        return kernel._steps(self)

    @cached_property
    def _sinks_first(self) -> list:
        return kernel._sinks_first(self)

    @cached_property
    def _visible_tails(self) -> list:
        """The visibility table of a MAG or PAG, read and filled by
        `criteria._visible_tails`: per node position, None until asked,
        then the mask of the heads of the visible edges out of that node."""
        return [None] * len(self.nodes)

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
        return graphs._edge_between(self, a, b)

    def mark_at(self, near: Node, far: Node) -> Mark:
        """Mark at the `near` endpoint of the edge near-far."""
        m = self._marks.get(near, {}).get(far)
        if m is None:
            self._require(near, far)
            raise errors.UnknownNodeError(f"no edge between {near} and {far}")
        return m

    def sort_nodes(self, nodes: Iterable[Node]) -> tuple:
        """Sort by declaration order (the deterministic reporting order)."""
        return tuple(sorted(nodes, key=self.node_index.__getitem__))

    def _require(self, *nodes: Node):
        for n in nodes:
            if n not in self.node_index:
                raise errors.UnknownNodeError(f"unknown node: {n}")


def __getattr__(name):  # `Edge`, which pickles written when it was defined here name
    if name != "Edge":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return graphs.Edge
