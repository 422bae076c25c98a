"""The mask kernel: the search tables of a `covadjust.model.Graph`, node
sets as bit masks, and the one closure over them.

This module is deferred: ``import covadjust`` registers it, and its code
runs on first use, such as a graph's first table or the first decision.
The decisions (`criteria`, `paths`) run on it alone, so a decision on a
CPDAG or PAG never runs `covadjust.graphs`, which holds `Edge`, the
writer, the public closures and the class checks.

Every search reads the mark table `Graph._marks`.  The closures (the
ancestors, descendants and their possible forms) run on one more table,
built from it on first use (`_steps`): for each kind of step `_reach`
takes, one bit mask per node of the nodes one step away, where bit i
stands for the node at position i of `Graph.nodes`.  A closure is then a
fixpoint over integers, and the criteria keep their closures as masks.

That fixpoint is the one traversal.  It runs in breadth-first rounds,
and the rounds are layers: round k holds the nodes k steps from the
seeds.  A witness path is read off the layers of the closure the
decision has already run, by descending from its first node one layer
at a time (`_descend`).  Acyclicity is the sinks-first (Kahn) order over
the same masks, `_sinks_first`.

`Graph` keeps each table as a `functools.cached_property` whose body is
one call to the function of its name here: concurrent readers at worst
compute and store one value twice, and equality, hashing and pickling
read only the class, the nodes and the edges, never a table.
"""

from . import errors  # deferred: runs only on a fault
from .model import Graph, Mark


def _ordered_neighbors(g: Graph) -> dict:
    """Each node's neighbours in declaration order."""
    key = g.node_index.__getitem__
    return {n: tuple(sorted(row, key=key)) for n, row in g._marks.items()}


def _steps(g: Graph) -> dict:
    """The one-step masks of `_reach`: ``_steps[directed, reverse][i]``
    has bit j set when one step of that kind leads from the node at
    position i to the node at position j.  ``_steps["into"][i]`` has bit
    j set when the edge i-j has an arrowhead at i: the other neighbours
    of i are ``_steps[False, False][i]``."""
    index = g.node_index
    n = len(g.nodes)
    forward, backward = [0] * n, [0] * n  # directed steps
    possible, possible_back = [0] * n, [0] * n
    into = [0] * n
    arrow, tail = Mark.ARROW, Mark.TAIL
    circles = False
    for v, row in g._marks.items():
        i = index[v]
        bit_v = 1 << i
        out = kids = heads = 0  # row i of `possible`, `forward` and `into`
        for w, m in row.items():
            j = index[w]
            if m is arrow:
                heads |= 1 << j
                continue
            out |= 1 << j
            possible_back[j] |= bit_v
            if m is tail:
                kids |= 1 << j
                backward[j] |= bit_v
            else:
                circles = True
        possible[i], forward[i], into[i] = out, kids, heads
    if not circles:  # every possibly directed step is directed: share the lists
        possible, possible_back = forward, backward
    return {(True, False): forward, (True, True): backward,
            (False, False): possible, (False, True): possible_back, "into": into}


def _sinks_first(g: Graph) -> list:
    """Node positions in an order that puts every child before its
    parents: Kahn's algorithm from the sinks, over the directed step
    masks.  A node on a directed cycle, or with a directed path into
    one, is never freed and is left out, so the order holds every
    position iff the graph has no directed cycle.  Shared: read it,
    never change it."""
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
        raise errors.EmptyXOrYError("X and Y must be non-empty")
    for a, b in ((x, y), (x, z), (y, z)):
        if a & b:
            raise errors.SetsNotDisjointError(f"sets overlap: {sorted(a & b)}")
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
