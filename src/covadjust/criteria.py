"""Covariate adjustment criteria for DAGs, CPDAGs, MAGs and PAGs.

`satisfies_gac` decides the generalized adjustment criterion: (0) the
graph is adjustment amenable for (X, Y), (1) Z avoids every possible
descendant of a non-X node on a proper possibly causal path from X to Y
(the forbidden set), and (2) every proper definite status non-causal
path from X to Y is blocked given Z.  A set passing all three is a valid
adjustment set in every graph of the represented class, and every valid
adjustment set passes.

In a DAG or MAG there are no circle marks, so every possibly directed
path is directed and the criterion is the adjustment criterion (AC) of
those classes.  `satisfies_generalized_backdoor` implements the earlier,
sufficient-only back-door style criterion for comparison.
"""

import itertools

from . import errors, paths  # deferred: run on a fault and on the first Cond2 search
from .kernel import _bits, _descend, _disjoint_sets, _nodes, _reach_bits
from .model import Graph, GraphClass, Mark, _Record, _set


class AdjustmentQuery(_Record):
    """Disjoint node sets (X, Y, Z) with X and Y non-empty."""

    __slots__ = _fields = ("graph", "x", "y", "z")

    def __init__(self, graph: Graph, x: frozenset, y: frozenset, z: frozenset = frozenset()):
        x, y, z = _disjoint_sets(graph, x, y, z)
        _set(self, "graph", graph)
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "z", z)


class AdjustmentVerdict(_Record):
    """Pass/fail with the first violated condition and a checkable witness.

    `failed_condition` is "Cond0" (amenability), "Cond1" (forbidden set)
    or "Cond2" (an unblocked path); the witness is a path (tuple of node
    names) for Cond0/Cond2 and a node name for Cond1.
    """

    __slots__ = _fields = ("passed", "failed_condition", "witness")

    def __init__(self, passed: bool, failed_condition: str | None = None,
                 witness: tuple | str | None = None):
        _set(self, "passed", passed)
        _set(self, "failed_condition", failed_condition)
        _set(self, "witness", witness)

    def __bool__(self):
        return self.passed


def is_visible(g: Graph, x, y) -> bool:
    """Whether the directed edge x -> y is visible.

    In DAGs and CPDAGs all directed edges are visible.  In MAGs and PAGs
    the edge is visible when some node V not adjacent to y reaches x
    through a collider path into x whose interior nodes are all parents
    of y (a single edge into x is the trivial such path).  A visible edge
    is guaranteed free of latent confounding between its endpoints.
    Raises `UnknownNodeError` for an unknown node and
    `NotDirectedEdgeError` unless x -> y is an edge, on every call.

    The answer is read off the graph's visibility table, which a MAG or
    PAG fills for all the edges out of x the first time x is asked about.
    """
    marks = g._marks
    if x not in marks or y not in marks:
        g._require(x, y)
    if marks[x].get(y) is not Mark.TAIL:
        raise errors.NotDirectedEdgeError(f"{x} -> {y} is not an edge")
    index = g.node_index
    return bool(_visible_tails(g, index[x]) >> index[y] & 1)


def _visible_tails(g: Graph, i: int) -> int:
    """The mask of the heads of the visible edges out of the node at
    position i: every directed edge of a DAG or CPDAG, and in a MAG or PAG
    the entry of the table `Graph._visible_tails`, filled on first use."""
    if g.graph_class in (GraphClass.DAG, GraphClass.CPDAG):
        return g._steps[True, False][i]
    table = g._visible_tails
    if table[i] is None:
        table[i] = _visible_heads(g, i)
    return table[i]


def _visible_heads(g: Graph, i: int) -> int:
    """One entry of the visibility table: the mask of the children y of
    the node at position i for which some node not adjacent to y has an
    arrowhead into the <-> chain through pa(y) that starts at i."""
    steps = g._steps
    into, possible, possible_back = steps["into"], steps[False, False], steps[False, True]
    parents = steps[True, True]
    visible = 0
    todo = steps[True, False][i]
    while todo:
        low = todo & -todo
        todo ^= low
        y = low.bit_length() - 1
        # the closure of i over <-> edges into pa(y): a neighbour with an
        # arrowhead at b is joined to b by <-> unless its own mark is not one
        chain = frontier = 1 << i
        arrows = 0  # the nodes with an arrowhead into the chain
        while frontier:
            b = (frontier & -frontier).bit_length() - 1
            arrows |= into[b]
            new = into[b] & ~possible_back[b] & parents[y] & ~chain
            chain |= new
            frontier = (frontier & (frontier - 1)) | new
        # y is not in `arrows`: the chain's edges to y all have a tail there
        if arrows & ~(possible[y] | into[y]):
            visible |= low
    return visible


def _possibly_directed_reach_to(g: Graph, y: frozenset, avoid: frozenset, layers=None) -> int:
    """The mask of the nodes outside `avoid` with a possibly directed path
    to `y` that stays outside `avoid` (zero-length paths included).  A
    `layers` list gets the closure's rounds, as `_reach_bits` gives them."""
    return _reach_bits(g, _bits(g, y - avoid), directed=False, reverse=True,
                       avoid=_bits(g, avoid), layers=layers)


def find_amenability_violation(g: Graph, x, y):
    """Shortest proper possibly directed path from `x` to `y` that does not
    start with a visible directed edge out of `x`, or None if amenable.
    Ties go to the path first in declaration order."""
    x, y, _ = _disjoint_sets(g, x, y)
    layers = []
    reach = _possibly_directed_reach_to(g, y, avoid=x, layers=layers)
    return _amenability_violation(g, x, reach, layers)


def _amenability_violation(g: Graph, x: frozenset, suffix: int, layers: list):
    """`find_amenability_violation` given `suffix`, the possibly directed
    closure `_possibly_directed_reach_to(g, y, avoid=x)`, and `layers`, its
    rounds."""
    index = g.node_index
    possible = g._steps[False, False]
    starts = []  # (x node, the mask of the first steps of its violating paths)
    for x_node in g.sort_nodes(x):
        i = index[x_node]
        # the first steps of proper possibly directed paths to y (`suffix`
        # holds no node of x) that are no visible edge
        firsts = possible[i] & suffix & ~_visible_tails(g, i)
        if firsts:
            starts.append((x_node, firsts))
    if not starts:
        return None
    # the shortest violation steps first into the lowest round that holds a
    # first step; ties go to the first x node, then to its first such step
    for layer in layers:
        for x_node, firsts in starts:
            hit = firsts & layer
            if hit:
                u = (hit & -hit).bit_length() - 1
                return (x_node, *_descend(g, u, layers, directed=False))


def is_amenable(g: Graph, x, y) -> bool:
    """Whether every proper possibly directed path from `x` to `y` starts
    with a visible edge out of `x`.  Every DAG is amenable."""
    return find_amenability_violation(g, x, y) is None


def forbidden_set(g: Graph, x, y) -> frozenset:
    """Possible descendants of non-X nodes on proper possibly causal paths
    from `x` to `y`: the nodes that no adjustment set may contain."""
    x, y, _ = _disjoint_sets(g, x, y)
    return _nodes(g, _forbidden_set(g, x, _possibly_directed_reach_to(g, y, avoid=x)))


def _forbidden_set(g: Graph, x: frozenset, reach: int) -> int:
    """The mask of `forbidden_set` given `reach`, the possibly directed
    closure `_possibly_directed_reach_to(g, y, avoid=x)`."""
    x = _bits(g, x)
    on_paths = _reach_bits(g, x, directed=False, avoid=x) & reach
    return _reach_bits(g, on_paths, directed=False)


def _first(g: Graph, mask: int):
    """The first node of a non-empty mask in declaration order."""
    return g.nodes[(mask & -mask).bit_length() - 1]


def _proper_backdoor_exemption(g: Graph, x: frozenset, reach: int) -> dict:
    """The exempt first steps of Cond2, per node of `x`: the first edges of
    proper possibly causal paths from X to Y, leaving the proper back-door
    graph.  `reach` is the possibly directed closure
    `_possibly_directed_reach_to(g, Y, avoid=X)`.

    For an amenable graph and Z outside the forbidden set, every proper
    definite status non-causal path is blocked given Z iff every proper
    definite status path in that graph is (Perković et al., JMLR 2018).
    """
    index, possible = g.node_index, g._steps[False, False]
    return {s: possible[index[s]] & reach for s in x}


def satisfies_gac(query: AdjustmentQuery) -> AdjustmentVerdict:
    """Decide the generalized adjustment criterion for the query.

    Conditions are reported in order, with the first failure and a
    witness: a violating possibly directed path for Cond0, a forbidden
    node in Z for Cond1, an open proper definite status non-causal path
    for Cond2.
    """
    g, x, y, z = query.graph, query.x, query.y, query.z
    layers = []
    reach = _possibly_directed_reach_to(g, y, avoid=x, layers=layers)
    violation = _amenability_violation(g, x, reach, layers)
    if violation is not None:
        return AdjustmentVerdict(False, "Cond0", violation)
    bad = _bits(g, z) & _forbidden_set(g, x, reach)
    if bad:
        return AdjustmentVerdict(False, "Cond1", _first(g, bad))
    open_path = paths._open_path(g, x, y, z, _proper_backdoor_exemption(g, x, reach))
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
    x, y, z = _disjoint_sets(g, x, y, z)
    bad = _bits(g, z) & _reach_bits(g, _bits(g, x), directed=False)
    if bad:
        return AdjustmentVerdict(False, "Cond1", _first(g, bad))
    index = g.node_index
    for x_node in g.sort_nodes(x):
        cond = z | (x - {x_node})
        exempt = {x_node: _visible_tails(g, index[x_node])}
        open_path = paths._open_path(g, frozenset([x_node]), y, cond, exempt)
        if open_path is not None:
            return AdjustmentVerdict(False, "Cond2", open_path)
    return AdjustmentVerdict(True)


def list_adjustment_sets(g: Graph, x, y, *, minimal_only=False, max_size=None):
    """All GAC-satisfying sets for (x, y), smallest first.

    Candidates exclude X, Y and the forbidden set (anything else fails
    condition (1) outright).  With `minimal_only`, keeps only sets no
    proper subset of which also satisfies the criterion: since every
    proper subset comes earlier, a candidate holding a set already kept
    is skipped unsearched, and one that passes is minimal.  Returns an
    empty list when the graph is not amenable: no adjustment set exists.
    Raises `ValueError` for a negative `max_size`, which no set meets.
    """
    if max_size is not None and max_size < 0:
        raise ValueError(f"max_size must be at least 0, got {max_size}")
    x, y, _ = _disjoint_sets(g, x, y)
    layers = []
    reach = _possibly_directed_reach_to(g, y, avoid=x, layers=layers)
    if _amenability_violation(g, x, reach, layers) is not None:
        return []
    excluded = _forbidden_set(g, x, reach) | _bits(g, x) | _bits(g, y)
    candidates = [n for i, n in enumerate(g.nodes) if not excluded >> i & 1]
    limit = len(candidates) if max_size is None else min(max_size, len(candidates))
    exempt = _proper_backdoor_exemption(g, x, reach)
    passing = []
    for size in range(limit + 1):
        for combo in itertools.combinations(candidates, size):
            z = frozenset(combo)
            if minimal_only and any(kept <= z for kept in passing):
                continue
            if paths._open_path(g, x, y, z, exempt) is None:
                passing.append(z)
    return passing
