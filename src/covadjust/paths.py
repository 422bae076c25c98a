"""Definite status, blocking and m-connection.

A path is a sequence of distinct nodes in which successive nodes are
adjacent.  An interior node is a collider when both incident path edges
have arrowheads at it; it is a definite non-collider when some incident
path edge has a tail at it, or both marks at it are circles and its path
neighbours are non-adjacent (unshielded).  A path is of definite status
when every interior node is one or the other.

A definite status path is m-connecting given Z when no definite
non-collider on it is in Z and every collider on it has a descendant in
Z; otherwise it is blocked given Z.  The collider condition uses
directed-edge reachability in every graph class (circles never count),
following the standard definite-status m-separation for partial graphs.

`_open_walk` is the one m-connection search, polynomial in the graph:
a breadth-first search over (previous node, current node) states that
reads every mark from the graph's mark table.  For each dequeued state
it looks up the marks at the current node and whether that node is in Z
or has a descendant in Z once, which fixes the marks on the next edge
that leave the node open.  `m_connected`, `find_open_definite_path`
(which rebuilds its witness from the parent pointers), `require_maximal`
and the `mec` fingerprints and projection run on it.  The test suite
checks it against exhaustive enumeration of definite status paths,
classified and tested for blocking by `tests/oracles.py` alone.
"""

from __future__ import annotations

from collections import deque

from .errors import NoPathWitnessError
from .graphs import Graph, Mark, _bits, _disjoint_sets, _nodes, _reach_bits


def _open_walk(g: Graph, x, y, z, exempt=None, *, an_z=None):
    """Shortest open definite status walk from `x` to `y` given `z`, or None.

    Breadth-first search over (previous, current) edge states: a state is
    entered at most once, and a step is taken when the local triple rules
    leave its middle node open.  The walk never re-enters `x` and stops at
    its first node of `y`.  `exempt`, if given, maps each node of `x` to
    the mask of the nodes its walks may not step to first.
    Neighbours are expanded in declaration order, so the walk rebuilt from
    the parent pointers is the lexicographically first shortest one.
    `an_z` is the mask of An(z); it is computed when not given.  Only its
    nodes outside `x` and `y` are read.
    """
    if an_z is None:
        an_z = _reach_bits(g, _bits(g, z), directed=True, reverse=True)
    index = g.node_index
    marks = g._marks
    order = g._ordered_neighbors
    arrow, tail, circle = Mark.ARROW, Mark.TAIL, Mark.CIRCLE
    parent = {}
    queue = deque()
    for s in g.sort_nodes(x):
        skip = exempt[s] if exempt else 0
        for w in order[s]:
            if w in x or skip >> index[w] & 1:
                continue
            parent[(s, w)] = None
            if w in y:
                return _rebuild(parent, (s, w))
            queue.append((s, w))
    while queue:
        state = queue.popleft()
        u, v = state
        mv = marks[v]
        m_in = mv[u]
        # The triple rules at v, settled once per state: which mark at v on
        # the next edge leaves v open.  Two arrowheads make a collider, open
        # iff v is in An(z); a tail makes a non-collider, open iff v is not
        # in z; two circles do too if u and the next node are non-adjacent.
        # An arrowhead against a circle is not of definite status.
        non_collider = v not in z
        if m_in is arrow:
            open_arrow, open_tail, open_circle = an_z >> index[v] & 1, non_collider, False
        elif m_in is tail:
            open_arrow = open_tail = open_circle = non_collider
        else:
            open_arrow, open_tail, open_circle = False, non_collider, non_collider
        if not (open_arrow or open_tail or open_circle):
            continue
        shielded = marks[u] if m_in is circle else ()
        for w in order[v]:
            if w == u or w in x:
                continue
            m = mv[w]
            if m is arrow:
                if not open_arrow:
                    continue
            elif m is tail:
                if not open_tail:
                    continue
            elif not open_circle or w in shielded:
                continue
            nxt = (v, w)
            if nxt in parent:
                continue
            parent[nxt] = state
            if w in y:
                return _rebuild(parent, nxt)
            queue.append(nxt)
    return None


def _rebuild(parent, state) -> tuple:
    nodes = [state[1]]
    while state is not None:
        nodes.append(state[0])
        state = parent[state]
    return tuple(reversed(nodes))


def m_connected(g: Graph, x, y, z=()) -> bool:
    """Whether some definite status path between `x` and `y` is open given `z`."""
    x, y, z = _disjoint_sets(g, x, y, z)
    return _open_walk(g, x, y, z) is not None


def find_open_definite_path(g: Graph, x, y, z):
    """Shortest open definite status path from `x` to `y` given `z`, or None.

    Only the first node of the path is in `x`.  The result is the shortest
    path, ties broken by declaration order.  The sets are checked as in
    `m_connected`: `x` and `y` non-empty, all three pairwise disjoint.
    The adjustment criteria run the same search through `_open_path`, with
    the first edges of proper possibly causal paths (GAC) or the visible
    edges out of `x` (back-door) exempt, as one mask per node of `x`.

    The search runs over (previous, current) edge states in polynomial
    time and finds the shortest open walk.  In DAGs and MAGs that walk is
    a path: a loop in it could be cut, leaving a shorter open walk.  In
    CPDAGs and PAGs a walk may need its loop to stay open; where the
    shortest one revisits a node, NoPathWitnessError is raised rather than
    a walk returned.  The differential tests check that this does not
    happen under the preconditions of the adjustment criteria.
    """
    x, y, z = _disjoint_sets(g, x, y, z)
    return _open_path(g, x, y, z)


def _open_path(g: Graph, x, y, z, exempt=None):
    """`find_open_definite_path` on checked sets, with `exempt` as `_open_walk` takes it."""
    walk = _open_walk(g, x, y, z, exempt)
    if walk is not None and len(set(walk)) < len(walk):
        raise NoPathWitnessError(walk)
    return walk


def require_maximal(g: Graph) -> None:
    """Raise unless every non-adjacent pair can be m-separated by some set.

    `g` must be ancestral.  Then non-adjacent a and b are m-separable iff
    Z = An({a, b}) minus {a, b} separates them (Richardson & Spirtes 2002),
    so each pair takes one search.  An(Z) and An({a, b}) hold the same
    nodes outside {a, b}, since every ancestor of a or b other than a and
    b is in Z, so the search is handed An({a, b}).
    """
    from .errors import NotMaximalError

    nodes = g.nodes
    for i, a in enumerate(nodes):
        for j in range(i + 1, len(nodes)):
            b = nodes[j]
            if g.adjacent(a, b):
                continue
            ab = 1 << i | 1 << j
            an = _reach_bits(g, ab, directed=True, reverse=True)
            z = _nodes(g, an & ~ab)
            if _open_walk(g, frozenset([a]), frozenset([b]), z, an_z=an) is not None:
                raise NotMaximalError((a, b))
