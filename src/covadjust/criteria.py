"""Covariate adjustment criteria for DAGs, CPDAGs, MAGs and PAGs.

`satisfies_gac` decides the generalized adjustment criterion: (0) the
graph is adjustment amenable for (X, Y), (1) Z avoids every possible
descendant of a non-X node on a proper possibly causal path from X to Y
(the forbidden set), and (2) Z blocks every proper definite status
non-causal path from X to Y.  A set passing all three is a valid
adjustment set in every graph of the represented class, and every valid
adjustment set passes.

`satisfies_ac` is the DAG/MAG special case (descendants and causal paths
instead of their "possible" versions), and
`satisfies_generalized_backdoor` implements the earlier, sufficient-only
back-door style criterion for comparison.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .errors import (
    ClassMismatchError,
    EmptyXOrYError,
    NotDirectedEdgeError,
    SetsNotDisjointError,
)
from .graphs import Edge, Graph, GraphClass, Mark, _as_set, _reach
from .paths import find_open_definite_path


@dataclass(frozen=True)
class AdjustmentQuery:
    """Disjoint node sets (X, Y, Z) with X and Y non-empty."""

    graph: Graph
    x: frozenset
    y: frozenset
    z: frozenset = frozenset()

    def __post_init__(self):
        g = self.graph
        object.__setattr__(self, "x", _as_set(g, self.x))
        object.__setattr__(self, "y", _as_set(g, self.y))
        object.__setattr__(self, "z", _as_set(g, self.z))
        if not self.x or not self.y:
            raise EmptyXOrYError("X and Y must be non-empty")
        for a, b in ((self.x, self.y), (self.x, self.z), (self.y, self.z)):
            if a & b:
                raise SetsNotDisjointError(f"sets overlap: {sorted(a & b)}")


@dataclass(frozen=True)
class AdjustmentVerdict:
    """Pass/fail with the first violated condition and a checkable witness.

    `failed_condition` is "Cond0" (amenability), "Cond1" (forbidden set)
    or "Cond2" (an unblocked path); the witness is a path (tuple of node
    names) for Cond0/Cond2 and a node name for Cond1.
    """

    passed: bool
    failed_condition: str | None = None
    witness: tuple | str | None = None

    def __bool__(self):
        return self.passed


def is_visible(g: Graph, e: Edge) -> bool:
    """Whether a directed edge X -> Y is visible.

    In DAGs and CPDAGs all directed edges are visible.  In MAGs and PAGs
    the edge is visible when some node V not adjacent to Y reaches X
    through a collider path into X whose interior nodes are all parents
    of Y (a single edge into X is the trivial such path).  A visible edge
    is guaranteed free of latent confounding between its endpoints.
    """
    if not e.is_directed():
        raise NotDirectedEdgeError(f"{e.a}-{e.b} is not a directed edge")
    if g.graph_class in (GraphClass.DAG, GraphClass.CPDAG):
        return True
    x = e.tail_node()
    y = e.other(x)
    marks = g._marks
    pa_y = {w for w in marks[y] if marks[w][y] is Mark.TAIL}
    # the last nodes a collider path into x can step onto from outside:
    # x and the parents of y joined to x by a <-> chain through parents of y
    chain = {x}
    stack = [x]
    while stack:
        b = stack.pop()
        for w, m in marks[b].items():
            if m is Mark.ARROW and w in pa_y and w not in chain and marks[w][b] is Mark.ARROW:
                chain.add(w)
                stack.append(w)
    at_y = marks[y]
    return any(
        v != y and m is Mark.ARROW and v not in at_y
        for b in chain
        for v, m in marks[b].items()
    )


def _possibly_directed_reach_to(g: Graph, y: frozenset, avoid: frozenset) -> frozenset:
    """Nodes outside `avoid` with a possibly directed path to `y` that stays
    outside `avoid` (zero-length paths included)."""
    return _reach(g, y - avoid, directed=False, reverse=True, avoid=avoid)


def _shortest_possibly_directed_path(g: Graph, x_node, first, y: frozenset, avoid: frozenset):
    """Shortest possibly directed path x_node, first, ..., ending in `y`."""
    if first in y:
        return (x_node, first)
    marks = g._marks
    order = g._ordered_neighbors
    prev = {first: None}
    queue = deque([first])
    while queue:
        v = queue.popleft()
        mv = marks[v]
        for w in order[v]:
            if w in prev or w in avoid or w == x_node:
                continue
            if mv[w] is not Mark.ARROW:
                prev[w] = v
                if w in y:
                    path = [w]
                    while path[-1] is not None and path[-1] != first:
                        path.append(prev[path[-1]])
                    path.append(x_node)
                    return tuple(path[::-1])
                queue.append(w)
    return None


def _checked_sets(g: Graph, x, y):
    x = _as_set(g, x)
    y = _as_set(g, y)
    if not x or not y:
        raise EmptyXOrYError("X and Y must be non-empty")
    if x & y:
        raise SetsNotDisjointError(f"sets overlap: {sorted(x & y)}")
    return x, y


def find_amenability_violation(g: Graph, x, y):
    """Shortest proper possibly directed path from `x` to `y` that does not
    start with a visible directed edge out of `x`, or None if amenable."""
    x, y = _checked_sets(g, x, y)
    return _amenability_violation(g, x, y, _possibly_directed_reach_to(g, y, avoid=x))


def _amenability_violation(g: Graph, x: frozenset, y: frozenset, suffix: frozenset):
    """`find_amenability_violation` given `suffix`, the possibly directed
    closure `_possibly_directed_reach_to(g, y, avoid=x)`."""
    marks = g._marks
    violations = []
    for x_node in g.sort_nodes(x):
        at_x = marks[x_node]
        for u in g._ordered_neighbors[x_node]:
            m = at_x[u]
            if u in x or m is Mark.ARROW:
                continue
            if u not in suffix:
                continue  # no proper possibly directed continuation to y
            if m is Mark.TAIL and is_visible(g, g.edge_between(x_node, u)):
                continue
            witness = _shortest_possibly_directed_path(g, x_node, u, y, avoid=x)
            if witness:
                violations.append(witness)
    if not violations:
        return None
    return min(violations, key=lambda p: (len(p), tuple(g.node_index[n] for n in p)))


def is_amenable(g: Graph, x, y) -> bool:
    """Whether every proper possibly directed path from `x` to `y` starts
    with a visible edge out of `x`.  Every DAG is amenable."""
    return find_amenability_violation(g, x, y) is None


def forbidden_set(g: Graph, x, y) -> frozenset:
    """Possible descendants of non-X nodes on proper possibly causal paths
    from `x` to `y`: the nodes that no adjustment set may contain."""
    x, y = _checked_sets(g, x, y)
    return _forbidden_set(g, x, _possibly_directed_reach_to(g, y, avoid=x))


def _forbidden_set(g: Graph, x: frozenset, reach: frozenset) -> frozenset:
    """`forbidden_set` given `reach`, the possibly directed closure
    `_possibly_directed_reach_to(g, y, avoid=x)`."""
    on_paths = _reach(g, x, directed=False, avoid=x) & reach
    return _reach(g, on_paths, directed=False)


def _proper_backdoor_exemption(g: Graph, reach: frozenset):
    """`skip_first` for Cond2: exempts the first edges of proper possibly
    causal paths from X to Y, leaving the proper back-door graph.  `reach`
    is the possibly directed closure `_possibly_directed_reach_to(g, Y,
    avoid=X)`.

    For an amenable graph and Z outside the forbidden set, Z blocks every
    proper definite status non-causal path iff it blocks every proper
    definite status path in that graph (Perković et al., JMLR 2018).
    """
    marks = g._marks
    return lambda start, first: first in reach and marks[start][first] is not Mark.ARROW


def satisfies_gac(query: AdjustmentQuery) -> AdjustmentVerdict:
    """Decide the generalized adjustment criterion for the query.

    Conditions are reported in order, with the first failure and a
    witness: a violating possibly directed path for Cond0, a forbidden
    node in Z for Cond1, an open proper definite status non-causal path
    for Cond2.
    """
    g, x, y, z = query.graph, query.x, query.y, query.z
    reach = _possibly_directed_reach_to(g, y, avoid=x)
    violation = _amenability_violation(g, x, y, reach)
    if violation is not None:
        return AdjustmentVerdict(False, "Cond0", violation)
    bad = z & _forbidden_set(g, x, reach)
    if bad:
        return AdjustmentVerdict(False, "Cond1", g.sort_nodes(bad)[0])
    open_path = find_open_definite_path(
        g, x, y, z, skip_first=_proper_backdoor_exemption(g, reach)
    )
    if open_path is not None:
        return AdjustmentVerdict(False, "Cond2", open_path)
    return AdjustmentVerdict(True)


def satisfies_ac(g: Graph, x, y, z) -> AdjustmentVerdict:
    """Decide the adjustment criterion for a DAG or MAG.

    Same shape as the generalized criterion but with plain descendants of
    nodes on proper causal (directed) paths, and blocking of all proper
    non-causal paths (every path in a DAG or MAG is of definite status).
    """
    if g.graph_class not in (GraphClass.DAG, GraphClass.MAG):
        raise ClassMismatchError("the adjustment criterion applies to DAGs and MAGs")
    query = AdjustmentQuery(g, frozenset(x), frozenset(y), frozenset(z))
    x, y, z = query.x, query.y, query.z
    reach = _possibly_directed_reach_to(g, y, avoid=x)
    violation = _amenability_violation(g, x, y, reach)
    if violation is not None:
        return AdjustmentVerdict(False, "Cond0", violation)
    on_causal = _reach(g, x, directed=True, avoid=x) & _reach(
        g, y, directed=True, reverse=True, avoid=x
    )
    bad = z & _reach(g, on_causal, directed=True)
    if bad:
        return AdjustmentVerdict(False, "Cond1", g.sort_nodes(bad)[0])
    open_path = find_open_definite_path(
        g, x, y, z, skip_first=_proper_backdoor_exemption(g, reach)
    )
    if open_path is not None:
        return AdjustmentVerdict(False, "Cond2", open_path)
    return AdjustmentVerdict(True)


def satisfies_generalized_backdoor(g: Graph, x, y, z) -> AdjustmentVerdict:
    """Decide the generalized back-door criterion.

    Z must contain no possible descendant of X, and for every x in X the
    set Z together with the other intervention nodes must block every
    definite status path from x to Y that does not start with a visible
    edge out of x.  Sufficient but not necessary for adjustment; compare
    with `satisfies_gac`.
    """
    query = AdjustmentQuery(g, frozenset(x), frozenset(y), frozenset(z))
    x, y, z = query.x, query.y, query.z
    bad = z & _reach(g, x, directed=False)
    if bad:
        return AdjustmentVerdict(False, "Cond1", g.sort_nodes(bad)[0])
    marks = g._marks

    def first_edge_exempt(start, first):
        # a tail at start makes the edge start -> first
        return marks[start][first] is Mark.TAIL and is_visible(g, g.edge_between(start, first))

    for x_node in g.sort_nodes(x):
        cond = z | (x - {x_node})
        open_path = find_open_definite_path(
            g, frozenset([x_node]), y, cond, skip_first=first_edge_exempt
        )
        if open_path is not None:
            return AdjustmentVerdict(False, "Cond2", open_path)
    return AdjustmentVerdict(True)


def list_adjustment_sets(g: Graph, x, y, *, minimal_only=False, max_size=None):
    """All GAC-satisfying sets for (x, y), smallest first.

    Candidates exclude X, Y and the forbidden set (anything else fails
    condition (1) outright).  With `minimal_only`, keeps only sets no
    proper subset of which also satisfies the criterion.  Returns an
    empty list when the graph is not amenable: no adjustment set exists.
    """
    query = AdjustmentQuery(g, frozenset(x), frozenset(y))
    x, y = query.x, query.y
    reach = _possibly_directed_reach_to(g, y, avoid=x)
    if _amenability_violation(g, x, y, reach) is not None:
        return []
    forb = _forbidden_set(g, x, reach)
    candidates = [n for n in g.nodes if n not in x and n not in y and n not in forb]
    limit = len(candidates) if max_size is None else min(max_size, len(candidates))
    exempt = _proper_backdoor_exemption(g, reach)
    passing = []
    for size in range(limit + 1):
        for combo in itertools.combinations(candidates, size):
            z = frozenset(combo)
            if find_open_definite_path(g, x, y, z, skip_first=exempt) is None:
                passing.append(z)
    if minimal_only:
        passing = [z for z in passing if not any(other < z for other in passing)]
    return passing
