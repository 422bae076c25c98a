"""Edges and their entry into a graph, the .cg writer, the public
closures, the cycle finders and the class checks over
`covadjust.model.Graph`.

This module is deferred: ``import covadjust`` registers it, and its code
runs on first use, such as building a graph from edges, reading its
`edges`, writing it as .cg text, a public closure or a class check.  It
holds the `Edge` record and re-exports the model's names (`Graph`,
`Mark`, `GraphClass`), so ``covadjust.graphs.Graph`` is
``covadjust.model.Graph``.  The search tables, the node masks and the
one closure they run are the deferred `covadjust.kernel`, which the
decisions run without this module.

Edge entry checks ``(a, b, mark_a, mark_b)`` rows into the mark table
(`_enter`): ``Graph(...)`` enters the rows of its `Edge` set, and
`Graph._from_rows` takes rows as they are.  The parser writes its marks
into the table itself and calls `Graph._from_rows` only to report a
faulty edge.  The writer (`serialize_graph`) reads the edges back out of
the table.

The closures (`ancestors`, `possible_descendants`, ...) are the kernel's
`_reach` on checked node sets.  Acyclicity is the kernel's sinks-first
order, `Graph._sinks_first`, and a directed cycle is a walk through the
nodes it leaves out; an almost directed cycle is read off the rounds of
a directed closure (`kernel._descend`).
"""

from . import errors, kernel, mec, paths  # deferred; mec and paths: the class checks
from .cgtext import _CLASS_OPS, GraphDocument, Query
from .model import _ALLOWED_MARKS, Graph, GraphClass, Mark, Node, _Record, _set  # noqa: F401


class Edge(_Record):
    """One edge with a mark at each endpoint.

    Endpoints are stored in lexicographic order so that the same edge
    written in either direction compares equal.
    """

    __slots__ = _fields = ("a", "b", "mark_a", "mark_b")

    def __init__(self, a: Node, b: Node, mark_a: Mark, mark_b: Mark):
        if a == b:
            raise errors.MarkNotAllowedError(f"self loop at {a}")
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
        raise errors.UnknownNodeError(f"{node} is not an endpoint of {self.a}-{self.b}")

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
            raise errors.MarkNotAllowedError(f"{self} is not a directed edge")
        return self.a if self.mark_a is Mark.TAIL else self.b


def _enter_edges(g: Graph, graph_class: GraphClass, nodes, edges) -> None:
    """``Graph(graph_class, nodes, edges)``: enter the rows of the edge set
    and keep the set as the graph's `edges`."""
    edges = frozenset(edges)
    _enter(g, graph_class, tuple(nodes), [*map(Edge._values, edges)])
    _set(g, "edges", edges)


def _enter(g: Graph, graph_class: GraphClass, nodes: tuple, rows: list) -> None:
    """Check the rows and store the class, the nodes and the mark table."""
    # `_marks[v][w]` is the mark at `v` of the edge v-w.  Since
    # tail-tail and tail-circle edges are rejected, a tail at `v` means
    # the edge is v -> w.
    marks = {n: {} for n in nodes}
    if len(marks) != len(nodes):
        dup = sorted({n for n in nodes if nodes.count(n) > 1})
        raise errors.DuplicateEdgeError(f"duplicate node declaration: {', '.join(dup)}")
    try:
        _fill_marks(marks, rows, graph_class)
    except (errors.UnknownNodeError, errors.DuplicateEdgeError, errors.MarkNotAllowedError):
        # the rows come in set or text order: report the first fault in name order
        by_name = sorted(((a, b, ma, mb) if a < b else (b, a, mb, ma) for a, b, ma, mb in rows),
                         key=lambda r: (r[0], r[1], r[2].value, r[3].value))
        _fill_marks({n: {} for n in nodes}, by_name, graph_class)
        raise
    _set(g, "graph_class", graph_class)
    _set(g, "nodes", nodes)
    _set(g, "_marks", marks)


def _fill_marks(marks: dict, rows, graph_class: GraphClass) -> None:
    """Enter each ``(a, b, mark_a, mark_b)`` row in `marks`; a row the
    table already holds is skipped.  Raises on the first faulty row."""
    allowed = _ALLOWED_MARKS[graph_class]
    for a, b, ma, mb in rows:
        row_a = marks.get(a)
        row_b = marks.get(b)
        if row_a is None or row_b is None:
            raise errors.UnknownNodeError(f"edge endpoint not declared: {a}-{b}")
        held = row_a.get(b)
        if held is not None:
            if held is ma and row_b[a] is mb:
                continue
            raise errors.DuplicateEdgeError(f"more than one edge between {a} and {b}")
        if (ma, mb) not in allowed:
            raise errors.MarkNotAllowedError(
                f"edge {a} {_edge_glyph(ma, mb)} {b} not allowed in a {graph_class.value}"
            )
        row_a[b] = ma
        row_b[a] = mb


def _edge_glyph(mark_a: Mark, mark_b: Mark) -> str:
    left = {Mark.TAIL: "-", Mark.ARROW: "<", Mark.CIRCLE: "o"}[mark_a]
    right = {Mark.TAIL: "-", Mark.ARROW: ">", Mark.CIRCLE: "o"}[mark_b]
    return f"{left}-{right}"


def _edges(g: Graph) -> frozenset:
    """`Graph.edges` of a graph that holds only its mark table."""
    marks = g._marks
    return frozenset(Edge(a, b, m, marks[b][a])
                     for a, row in marks.items() for b, m in row.items() if a < b)


def _edge_between(g: Graph, a: Node, b: Node):
    """`Graph.edge_between`: the pair is looked up once; only a pair
    without an edge pays for checking that both are nodes."""
    mark = g._marks.get(a, {}).get(b)
    if mark is None:
        g._require(a, b)
        return None
    return Edge(a, b, mark, g._marks[b][a])


def _edge_statements(g: Graph) -> list:
    """The statement of each edge, edges ordered by the declaration
    positions of their name-ordered endpoints."""
    idx = g.node_index
    ops = {marks: op for op, marks in _CLASS_OPS[g.graph_class].items()}  # CPDAG: o-o is --
    statements = []
    for e in sorted(g.edges, key=lambda e: (idx[e.a], idx[e.b])):
        p, q, mp, mq = e.a, e.b, e.mark_a, e.mark_b
        if idx[p] > idx[q]:
            p, q, mp, mq = q, p, mq, mp
        if mp is Mark.ARROW and mq is not Mark.ARROW:  # -> not <-, o-> not <-o
            p, q, mp, mq = q, p, mq, mp
        statements.append(f"{p} {ops[mp, mq]} {q}")
    return statements


def serialize_graph(g: Graph, query: Query | None = None) -> str:
    """Canonical text form; `parse_document` of the result is the identity
    on (class, node order, edges, query)."""
    lines = [f"graph {g.graph_class.value} {{", *(f"  {n}" for n in g.nodes),
             *(f"  {statement}" for statement in _edge_statements(g)), "}"]
    if query is not None:
        parts = [f"{key} = {', '.join(val)}"
                 for key, val in (("X", query.x), ("Y", query.y), ("Z", query.z)) if val is not None]
        lines.append(f"query {{ {'; '.join(parts)} }}")
    return "\n".join(lines) + "\n"


def serialize_document(doc: GraphDocument) -> str:
    return serialize_graph(doc.graph, doc.query)


def parents(g: Graph, s) -> frozenset:
    """Nodes W with a directed edge W -> v into some v in `s`."""
    s = kernel._as_set(g, s)
    marks = g._marks
    return frozenset(w for v in s for w in marks[v] if marks[w][v] is Mark.TAIL)


def children(g: Graph, s) -> frozenset:
    """Nodes W with a directed edge v -> W out of some v in `s`."""
    s = kernel._as_set(g, s)
    marks = g._marks
    return frozenset(w for v in s for w, m in marks[v].items() if m is Mark.TAIL)


def descendants(g: Graph, s) -> frozenset:
    """Directed-edge reachability from `s`, including `s`.  DAG/MAG only."""
    if g.graph_class not in (GraphClass.DAG, GraphClass.MAG):
        raise errors.ClassMismatchError("descendants is defined for DAGs and MAGs only")
    return kernel._reach(g, kernel._as_set(g, s), directed=True)


def ancestors(g: Graph, s) -> frozenset:
    """Directed-edge reachability into `s`, including `s`.  DAG/MAG only."""
    if g.graph_class not in (GraphClass.DAG, GraphClass.MAG):
        raise errors.ClassMismatchError("ancestors is defined for DAGs and MAGs only")
    return kernel._reach(g, kernel._as_set(g, s), directed=True, reverse=True)


def possible_descendants(g: Graph, s) -> frozenset:
    """Possibly-directed-path reachability from `s`, including `s`.

    A path is possibly directed when no edge on it has an arrowhead at the
    endpoint nearer the start, so the traversal follows any edge whose
    near-side mark is not an arrow.
    """
    return kernel._reach(g, kernel._as_set(g, s), directed=False)


def possible_ancestors(g: Graph, s) -> frozenset:
    """Nodes with a possibly directed path into `s`, including `s`."""
    return kernel._reach(g, kernel._as_set(g, s), directed=False, reverse=True)


def _find_directed_cycle(g: Graph):
    """Return a node list forming a directed cycle, or None.

    The nodes `_sinks_first` leaves out each have a child left out too.
    The walk from the first of them to its first such child, and on, ends
    on a node it has passed: the cycle is the walk from there, the one a
    depth-first search taking roots and children in declaration order
    meets first.
    """
    order = g._sinks_first
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
                closures[dst] = (kernel._reach_bits(g, 1 << dst, directed=True, reverse=True,
                                             layers=layers), layers)
            reach, layers = closures[dst]
            if reach >> src & 1:
                return kernel._descend(g, src, layers, directed=True)
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
            raise errors.DirectedCycleError(cycle)
    elif g.graph_class is GraphClass.MAG:
        validate_ancestral(g)
        paths.require_maximal(g)
    else:
        mec._class_of(g)


def validate_ancestral(g: Graph) -> None:
    """Raise unless the graph has no directed and no almost directed cycle."""
    cycle = _find_directed_cycle(g)
    if cycle:
        raise errors.DirectedCycleError(cycle)
    almost = _find_almost_directed_cycle(g)
    if almost:
        raise errors.AlmostDirectedCycleError(almost)


def build_graph(graph_class: GraphClass, nodes, edges) -> Graph:
    """Construct and fully validate a graph of the given class.

    `nodes` fixes the declaration order; `edges` is any iterable of
    :class:`Edge`.  Returns the validated immutable graph or raises the
    error naming the violated class invariant.
    """
    g = Graph(graph_class, tuple(nodes), frozenset(edges))
    validate_graph(g)
    return g
