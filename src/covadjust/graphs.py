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

Every search reads the mark table `Graph._marks`.  The closures (the
ancestors, descendants and their possible forms) run on one more table,
built from it on first use: for each kind of step `_reach` takes, one
bit mask per node of the nodes one step away, where bit i stands for
the node at position i of `Graph.nodes`.  A closure is then a fixpoint
over integers, and the criteria keep their closures as masks.

That fixpoint is the one traversal.  It runs in breadth-first rounds,
and the rounds are layers: round k holds the nodes k steps from the
seeds.  A witness path is read off the layers of the closure the
decision has already run, by descending from its first node one layer
at a time (`_descend`).  Acyclicity is the sinks-first (Kahn) order over
the same masks, `_sinks_first`, and a directed cycle is a walk through
the nodes it leaves out.

The visibility of a MAG's or PAG's directed edges is memoized too, but
one edge at a time: `Graph._visible` keeps the verdict of each edge the
first time it is asked.  Like the tables it is a cache in the manner of
`functools.cached_property`: concurrent readers at worst compute and
store one value twice, and equality, hashing and pickling read only the
class, the nodes and the edges, never a cache.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum
from functools import cached_property
from operator import attrgetter

from .errors import (
    AlmostDirectedCycleError,
    ClassMismatchError,
    DirectedCycleError,
    DuplicateEdgeError,
    EmptyXOrYError,
    MarkNotAllowedError,
    SetsNotDisjointError,
    UnknownNodeError,
)

Node = str
NodeSet = frozenset


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

    @cached_property
    def _ordered_neighbors(self) -> dict:
        """Each node's neighbours in declaration order."""
        key = self.node_index.__getitem__
        return {n: tuple(sorted(row, key=key)) for n, row in self._marks.items()}

    @cached_property
    def _steps(self) -> dict:
        """The one-step masks of `_reach`: ``_steps[directed, reverse][i]``
        has bit j set when one step of that kind leads from the node at
        position i to the node at position j."""
        index = self.node_index
        n = len(self.nodes)
        forward, backward = [0] * n, [0] * n  # directed steps
        possible, possible_back = [0] * n, [0] * n
        circles = False
        for v, row in self._marks.items():
            i = index[v]
            bit_v = 1 << i
            for w, m in row.items():
                if m is Mark.ARROW:
                    continue
                j = index[w]
                possible[i] |= 1 << j
                possible_back[j] |= bit_v
                if m is Mark.TAIL:
                    forward[i] |= 1 << j
                    backward[j] |= bit_v
                else:
                    circles = True
        if not circles:  # every possibly directed step is directed: share the lists
            possible, possible_back = forward, backward
        return {(True, False): forward, (True, True): backward,
                (False, False): possible, (False, True): possible_back}

    @cached_property
    def _visible(self) -> dict:
        """The memo of `criteria.is_visible` on a MAG or PAG: (x, y) maps to
        the visibility of the edge x -> y, entered the first time it is asked."""
        return {}

    def neighbors(self, node: Node) -> frozenset:
        self._require(node)
        return frozenset(self._marks[node])

    def adjacent(self, a: Node, b: Node) -> bool:
        return b in self._marks[a]

    def edge_between(self, a: Node, b: Node):
        """The edge a-b, equal to the one in `edges`, or None."""
        mark = self._marks[a].get(b)
        return None if mark is None else Edge(a, b, mark, self._marks[b][a])

    def mark_at(self, near: Node, far: Node) -> Mark:
        """Mark at the `near` endpoint of the edge near-far."""
        m = self._marks[near].get(far)
        if m is None:
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


def _as_set(g: Graph, nodes) -> frozenset:
    """`nodes`, one name or an iterable of names, as a node set.

    Raises `UnknownNodeError` naming the first unknown name in argument
    order, or the smallest one if `nodes` is a set, whose iteration order
    follows the hash seed of the process.
    """
    if isinstance(nodes, str):
        nodes = (nodes,)
    elif iter(nodes) is nodes:  # a one-pass iterator: keep its names for the message
        nodes = tuple(nodes)
    s = frozenset(nodes)
    if not g.node_index.keys() >= s:
        unknown = [v for v in nodes if v not in g.node_index]
        g._require(min(unknown, key=str) if isinstance(nodes, (set, frozenset)) else unknown[0])
    return s


def _disjoint_sets(g: Graph, x, y, z=()):
    """`x`, `y` and `z` as node sets; raises unless `x` and `y` are
    non-empty and the three are pairwise disjoint."""
    x, y, z = _as_set(g, x), _as_set(g, y), _as_set(g, z)
    if not x or not y:
        raise EmptyXOrYError("X and Y must be non-empty")
    for a, b in ((x, y), (x, z), (y, z)):
        if a & b:
            raise SetsNotDisjointError(f"sets overlap: {sorted(a & b)}")
    return x, y, z


def _bits(g: Graph, nodes) -> int:
    """The mask of `nodes`: bit i for the node at position i."""
    index = g.node_index
    mask = 0
    for v in nodes:
        mask |= 1 << index[v]
    return mask


def _nodes(g: Graph, mask: int) -> frozenset:
    """The nodes of `mask`."""
    nodes = g.nodes
    out = []
    while mask:
        low = mask & -mask
        out.append(nodes[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


def _reach_bits(g: Graph, seeds: int, *, directed: bool, reverse: bool = False,
                avoid: int = 0, layers: list | None = None) -> int:
    """`_reach` on masks.  A `layers` list gets the mask each round
    expands appended: round k holds the nodes k steps from the seeds."""
    step = g._steps[directed, reverse]
    seen = seeds | avoid
    todo = seeds
    while todo:
        if layers is not None:
            layers.append(todo)
        new = 0
        while todo:
            low = todo & -todo
            new |= step[low.bit_length() - 1]
            todo ^= low
        todo = new & ~seen
        seen |= todo
    return seen & ~avoid


def _reach(g: Graph, seeds, *, directed: bool, reverse: bool = False, avoid=frozenset()) -> frozenset:
    """Nodes reached from `seeds` along directed or possibly directed paths.

    A forward step v -> w reads the mark at v of the edge v-w: it must be a
    tail on a directed path (the edge is then v -> w) and anything but an
    arrowhead on a possibly directed path.  With `reverse` the paths run
    into the seeds, so the step reads the mark at w.  The search expands
    every seed and enters no node of `avoid`; the result holds the seeds
    and every node reached, minus `avoid`.

    The steps come from the graph's table `Graph._steps`, one mask per
    node and kind of step, and the search is a fixpoint on masks
    (`_reach_bits`): one round ORs the step masks of the nodes still to
    expand, taken lowest bit first, and the nodes of that union not yet
    seen are the ones the next round expands.
    """
    return _nodes(g, _reach_bits(g, _bits(g, seeds), directed=directed, reverse=reverse,
                                 avoid=_bits(g, avoid)))


def _descend(g: Graph, start: int, layers: list, directed: bool) -> tuple:
    """The path from the node at position `start` into the seeds of a
    reverse closure whose rounds are `layers`, as a tuple of names.  Each
    step goes forward to the lowest position one round down, so the path
    is the shortest one and, among those, the first in declaration order;
    `start` must lie in some round."""
    step = g._steps[directed, False]
    nodes = g.nodes
    k = next(k for k, layer in enumerate(layers) if layer >> start & 1)
    path = [nodes[start]]
    for layer in reversed(layers[:k]):
        down = step[start] & layer
        start = (down & -down).bit_length() - 1
        path.append(nodes[start])
    return tuple(path)


def parents(g: Graph, s) -> frozenset:
    """Nodes W with a directed edge W -> v into some v in `s`."""
    s = _as_set(g, s)
    marks = g._marks
    return frozenset(w for v in s for w in marks[v] if marks[w][v] is Mark.TAIL)


def children(g: Graph, s) -> frozenset:
    """Nodes W with a directed edge v -> W out of some v in `s`."""
    s = _as_set(g, s)
    marks = g._marks
    return frozenset(w for v in s for w, m in marks[v].items() if m is Mark.TAIL)


def descendants(g: Graph, s) -> frozenset:
    """Directed-edge reachability from `s`, including `s`.  DAG/MAG only."""
    if g.graph_class not in (GraphClass.DAG, GraphClass.MAG):
        raise ClassMismatchError("descendants is defined for DAGs and MAGs only")
    return _reach(g, _as_set(g, s), directed=True)


def ancestors(g: Graph, s) -> frozenset:
    """Directed-edge reachability into `s`, including `s`.  DAG/MAG only."""
    if g.graph_class not in (GraphClass.DAG, GraphClass.MAG):
        raise ClassMismatchError("ancestors is defined for DAGs and MAGs only")
    return _reach(g, _as_set(g, s), directed=True, reverse=True)


def possible_descendants(g: Graph, s) -> frozenset:
    """Possibly-directed-path reachability from `s`, including `s`.

    A path is possibly directed when no edge on it has an arrowhead at the
    endpoint nearer the start, so the traversal follows any edge whose
    near-side mark is not an arrow.
    """
    return _reach(g, _as_set(g, s), directed=False)


def possible_ancestors(g: Graph, s) -> frozenset:
    """Nodes with a possibly directed path into `s`, including `s`."""
    return _reach(g, _as_set(g, s), directed=False, reverse=True)


def _sinks_first(g: Graph) -> list:
    """Node positions in an order that puts every child before its
    parents: Kahn's algorithm from the sinks, over the directed step masks.
    A node on a directed cycle, or with a directed path into one, is never
    freed and is left out, so the order holds every position iff the graph
    has no directed cycle."""
    children, parents = g._steps[True, False], g._steps[True, True]
    left = [kids.bit_count() for kids in children]
    order = [i for i, count in enumerate(left) if not count]
    for j in order:  # grows while it is read
        todo = parents[j]
        while todo:
            low = todo & -todo
            todo ^= low
            i = low.bit_length() - 1
            left[i] -= 1
            if not left[i]:
                order.append(i)
    return order


def _find_directed_cycle(g: Graph):
    """Return a node list forming a directed cycle, or None.

    The nodes `_sinks_first` leaves out each have a child left out too.
    The walk from the first of them to its first such child, and on, ends
    on a node it has passed: the cycle is the walk from there, the one a
    depth-first search taking roots and children in declaration order
    meets first.
    """
    order = _sinks_first(g)
    if len(order) == len(g.nodes):
        return None
    left = (1 << len(g.nodes)) - 1
    for i in order:
        left ^= 1 << i
    children = g._steps[True, False]
    walk = []
    at = {}  # position -> its place in the walk
    v = (left & -left).bit_length() - 1
    while v not in at:
        at[v] = len(walk)
        walk.append(v)
        kids = children[v] & left
        v = (kids & -kids).bit_length() - 1
    return [g.nodes[i] for i in walk[at[v]:]]


def _find_almost_directed_cycle(g: Graph):
    """Return a directed path A..B with B <-> A present, or None.

    The bidirected edges are tried by the declaration position of their
    name-smaller endpoint, then of the other, and each from that endpoint
    first.  The path is the shortest, first in declaration order, read
    off the rounds of the directed closure into its last node."""
    marks, index = g._marks, g.node_index
    pairs = sorted(((a, b) for a, row in marks.items() for b, m in row.items()
                    if a < b and m is Mark.ARROW and marks[b][a] is Mark.ARROW),
                   key=lambda p: (index[p[0]], index[p[1]]))
    closures = {}  # position -> its directed ancestors and the rounds that reached them
    for a, b in pairs:
        for src, dst in ((index[a], index[b]), (index[b], index[a])):
            if dst not in closures:
                layers = []
                closures[dst] = (_reach_bits(g, 1 << dst, directed=True, reverse=True,
                                             layers=layers), layers)
            reach, layers = closures[dst]
            if reach >> src & 1:
                return _descend(g, src, layers, directed=True)
    return None


def validate_graph(g: Graph) -> None:
    """Check the class invariants that go beyond mark vocabulary.

    DAG: no directed cycles.  MAG: ancestral and maximal.  CPDAG and PAG:
    validated by the equivalence-class round trip (enumerate members and
    require their mark union to reproduce the input; a CPDAG's directed
    edges must also be covered in no member).  Raises the specific error
    naming the violated invariant, with a witness where one exists.
    """
    if g.graph_class is GraphClass.DAG:
        cycle = _find_directed_cycle(g)
        if cycle:
            raise DirectedCycleError(cycle)
    elif g.graph_class is GraphClass.MAG:
        validate_ancestral(g)
        from .paths import require_maximal

        require_maximal(g)
    elif g.graph_class is GraphClass.CPDAG:
        from .mec import enumerate_dags

        enumerate_dags(g)
    elif g.graph_class is GraphClass.PAG:
        from .mec import enumerate_mags

        enumerate_mags(g)


def validate_ancestral(g: Graph) -> None:
    """Raise unless the graph has no directed and no almost directed cycle."""
    cycle = _find_directed_cycle(g)
    if cycle:
        raise DirectedCycleError(cycle)
    almost = _find_almost_directed_cycle(g)
    if almost:
        raise AlmostDirectedCycleError(almost)


def build_graph(graph_class: GraphClass, nodes, edges) -> Graph:
    """Construct and fully validate a graph of the given class.

    `nodes` fixes the declaration order; `edges` is any iterable of
    :class:`Edge`.  Returns the validated immutable graph or raises the
    error naming the violated class invariant.
    """
    g = Graph(graph_class, tuple(nodes), frozenset(edges))
    validate_graph(g)
    return g
