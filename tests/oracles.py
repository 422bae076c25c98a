"""Independent reference implementations and random-instance generators.

Everything here exists to cross-check the library through a different
route than the one under test: moralization instead of path blocking,
explicit path sums instead of matrix inverses, exhaustive orientation
sweeps instead of class-aware enumeration.
"""

import functools
import itertools
import random
import re
from collections import deque, namedtuple

from covadjust.cgtext import GraphDocument, Query
from covadjust.criteria import AdjustmentVerdict
from covadjust.errors import MarkNotAllowedError, NotMaximalError, ParseError
from covadjust.graphs import Edge, Graph, GraphClass, Mark, _Record, _set
from covadjust.mec import _mark_union, separation_fingerprint, unshielded_colliders


# id(g) -> (g, edge_table(g)) for the last `_EDGE_TABLE_SIZE` graphs
# entered, oldest first.  Keyed on identity, not equality: an equality
# key makes each lookup of a new graph compare its edge set with that of
# every equal graph held.  Holding `g` keeps its id from being reused.
_EDGE_TABLES = {}
_EDGE_TABLE_SIZE = 1024


def edge_table(g):
    """`edge_table(g)[v]` maps each neighbour w of v, in declaration order,
    to the edge object v-w.  Built from `g.edges`, so the oracles do not
    read the library's mark table."""
    held = _EDGE_TABLES.get(id(g))
    if held is None:
        idx = {n: i for i, n in enumerate(g.nodes)}
        table = {n: [] for n in g.nodes}
        for e in g.edges:
            table[e.a].append((e.b, e))
            table[e.b].append((e.a, e))
        if len(_EDGE_TABLES) >= _EDGE_TABLE_SIZE:
            del _EDGE_TABLES[next(iter(_EDGE_TABLES))]
        held = _EDGE_TABLES[id(g)] = g, {
            n: dict(sorted(row, key=lambda item: idx[item[0]])) for n, row in table.items()}
    return held[1]


def directed_pairs(g):
    """(tail, head) for every directed edge, read off the raw marks."""
    out = []
    for e in g.edges:
        if e.mark_a is Mark.TAIL and e.mark_b is Mark.ARROW:
            out.append((e.a, e.b))
        elif e.mark_b is Mark.TAIL and e.mark_a is Mark.ARROW:
            out.append((e.b, e.a))
    return out


def moral_d_separated(dag, x, y, z):
    """Textbook d-separation oracle: ancestral subgraph, moralize, then
    undirected connectivity avoiding z."""
    x, y, z = set(x), set(y), set(z)
    arrows = directed_pairs(dag)
    anc = set(x | y | z)
    changed = True
    while changed:
        changed = False
        for tail, head in arrows:
            if head in anc and tail not in anc:
                anc.add(tail)
                changed = True
    und = {n: set() for n in anc}
    parents_of = {n: set() for n in anc}
    for tail, head in arrows:
        if tail in anc and head in anc:
            und[tail].add(head)
            und[head].add(tail)
            parents_of[head].add(tail)
    for ps in parents_of.values():
        for p1, p2 in itertools.combinations(sorted(ps), 2):
            und[p1].add(p2)
            und[p2].add(p1)
    stack = list(x)
    seen = set(x)
    while stack:
        v = stack.pop()
        if v in y:
            return False
        for w in und.get(v, ()):
            if w not in seen and w not in z:
                seen.add(w)
                stack.append(w)
    return True


def path_sum_total_effect(sem, x, y):
    """Total effects as explicit sums of edge-coefficient products over
    directed paths, after severing the edges into the intervened nodes;
    integers for the integer weights of a `LinearSEM`."""
    g = sem.graph
    idx = g.node_index
    children = {n: [] for n in g.nodes}
    for tail, head in directed_pairs(g):
        if head not in x:
            children[tail].append(head)
    totals = []
    for s in sorted(x, key=idx.__getitem__):
        acc = 0
        stack = [(s, 1)]
        while stack:
            v, prod = stack.pop()
            if v == y:
                acc += prod
                continue
            for w in children[v]:
                stack.append((w, prod * sem.coeffs[idx[v]][idx[w]]))
        totals.append(acc)
    return totals


def is_subsequence(sub, seq):
    it = iter(seq)
    return all(s in it for s in sub)


def random_dag(rng, n, p, prefix="N"):
    """Random DAG: random topological order, independent edges."""
    names = tuple(f"{prefix}{i}" for i in range(n))
    order = list(names)
    rng.shuffle(order)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append(Edge.directed(order[i], order[j]))
    return Graph(GraphClass.DAG, names, frozenset(edges))


@functools.lru_cache(maxsize=None)
def class_graphs(cls, seed, count):
    """`count` seeded random graphs of class `cls` ("dag", "cpdag", "mag"
    or "pag"): DAGs of 4-7 nodes and their CPDAGs, MAGs projected from
    5-7-node DAGs and the PAGs of those with at most 7 edges."""
    import covadjust as ca

    rng = random.Random(f"{cls}-{seed}")
    out = []
    while len(out) < count:
        if cls in ("dag", "cpdag"):
            d = random_dag(rng, rng.randint(4, 7), 0.4)
            out.append(d if cls == "dag" else cpdag_of(d))
            continue
        d = random_dag(rng, rng.randint(5, 7), 0.45)
        observed = [n for n in d.nodes if rng.random() < 0.8]
        if len(observed) < 3:
            continue
        m = ca.latent_project(d, observed)
        if cls == "mag":
            out.append(m)
        elif len(m.edges) <= 7:
            out.append(pag_of(m))
    return tuple(out)


def cpdag_of(dag):
    """The CPDAG of a DAG by exhaustive orientation sweep: all acyclic
    same-skeleton orientations with the same unshielded colliders."""
    pairs = sorted((e.a, e.b) for e in dag.edges)
    target = unshielded_colliders(dag)
    members = []
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        edges = [
            Edge.directed(a, b) if bit == 0 else Edge.directed(b, a)
            for bit, (a, b) in zip(bits, pairs)
        ]
        g = Graph(GraphClass.DAG, dag.nodes, frozenset(edges))
        if directed_cycle(g) is None and unshielded_colliders(g) == target:
            members.append(g)
    return _mark_union(members, GraphClass.CPDAG, dag.nodes)


def mag_class_of(mag):
    """All valid MAGs Markov equivalent to `mag`, by exhaustive sweep over
    the three orientations of every skeleton edge."""
    pairs = sorted((e.a, e.b) for e in mag.edges)
    target_uc = unshielded_colliders(mag)
    target_fp = separation_fingerprint(mag)
    members = []
    for combo in itertools.product(("ab", "ba", "bi"), repeat=len(pairs)):
        edges = []
        for state, (a, b) in zip(combo, pairs):
            if state == "ab":
                edges.append(Edge.directed(a, b))
            elif state == "ba":
                edges.append(Edge.directed(b, a))
            else:
                edges.append(Edge.bidirected(a, b))
        g = Graph(GraphClass.MAG, mag.nodes, frozenset(edges))
        if unshielded_colliders(g) != target_uc:
            continue
        if directed_cycle(g) is not None or almost_directed_cycle(g) is not None:
            continue
        if separation_fingerprint(g) == target_fp:
            members.append(g)
    return members


def pag_of(mag):
    """The PAG of a MAG: mark union over its whole equivalence class."""
    return _mark_union(mag_class_of(mag), GraphClass.PAG, mag.nodes)


def dag_classes_on_skeleton(nodes, pairs):
    """Every Markov equivalence class of DAGs on the skeleton `pairs`, by
    exhaustive orientation sweep: its CPDAG (the mark union of its
    members) mapped to the set of its members' edge sets.  Acyclic
    orientations are grouped by unshielded colliders, as in `cpdag_of`."""
    groups = {}
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        edges = frozenset(
            Edge.directed(a, b) if bit == 0 else Edge.directed(b, a)
            for bit, (a, b) in zip(bits, pairs)
        )
        g = Graph(GraphClass.DAG, nodes, edges)
        if directed_cycle(g) is None:
            groups.setdefault(unshielded_colliders(g), []).append(g)
    return {
        _mark_union(members, GraphClass.CPDAG, nodes): {m.edges for m in members}
        for members in groups.values()
    }


def all_pairs_fingerprint(g):
    """All m-separated triples (a, b, conditioning set), a < b by name: every
    pair of nodes, adjacent or not, against every set of the other nodes,
    decided by `m_connected_enumeration`."""
    out = set()
    names = sorted(g.nodes)
    for a, b in itertools.combinations(names, 2):
        rest = [n for n in names if n not in (a, b)]
        for r in range(len(rest) + 1):
            for z in itertools.combinations(rest, r):
                if not m_connected_enumeration(g, {a}, {b}, frozenset(z)):
                    out.add((a, b, frozenset(z)))
    return frozenset(out)


def small_queries(nodes, max_xy=2, max_z=None):
    """All disjoint (X, Y, Z) over `nodes` with |X|, |Y| bounded."""
    nodes = list(nodes)
    for kx in range(1, max_xy + 1):
        for x in itertools.combinations(nodes, kx):
            rest1 = [n for n in nodes if n not in x]
            for ky in range(1, max_xy + 1):
                for y in itertools.combinations(rest1, ky):
                    rest2 = [n for n in rest1 if n not in y]
                    top = len(rest2) if max_z is None else min(max_z, len(rest2))
                    for kz in range(top + 1):
                        for z in itertools.combinations(rest2, kz):
                            yield frozenset(x), frozenset(y), frozenset(z)


def edge_mark(adj, near, far):
    """Mark at `near` of the edge near-far in the table `adj` of
    `edge_table`, read off the raw edge object."""
    return adj[near][far].mark_at(near)


def _triple_open(adj, left, mid, right, z, an_z):
    """Whether `mid` is open between `left` and `right` given `z`: a
    collider with a descendant in `z`, or a definite non-collider outside
    `z`.  Marks come from the raw edge objects of `adj`."""
    m_left = edge_mark(adj, mid, left)
    m_right = edge_mark(adj, mid, right)
    if m_left is Mark.ARROW and m_right is Mark.ARROW:
        return mid in an_z
    if m_left is Mark.TAIL or m_right is Mark.TAIL:
        return mid not in z
    if m_left is Mark.CIRCLE and m_right is Mark.CIRCLE and right not in adj[left]:
        return mid not in z
    return False


PathKind = namedtuple("PathKind", "possibly_causal causal proper_wrt_x definite_status")


def classify_path(g, nodes, x=()):
    """The kind of the path `nodes`, read off the raw edge objects: no
    arrowhead towards the start (possibly causal), every edge pointing
    away from it (causal), only its first node in `x` (proper) and every
    interior triple of definite status.  A triple is of definite status
    iff `_triple_open` leaves it open given an empty Z with every node in
    An(Z).  Raises ValueError unless the nodes are at least two, distinct
    and successively adjacent."""
    adj = edge_table(g)
    nodes = tuple(nodes)
    if len(nodes) < 2 or len(set(nodes)) < len(nodes):
        raise ValueError(f"not at least two distinct nodes: {nodes}")
    for a, b in zip(nodes, nodes[1:]):
        if b not in adj.get(a, ()):
            raise ValueError(f"{a} and {b} are not adjacent")
    steps = [(edge_mark(adj, a, b), edge_mark(adj, b, a)) for a, b in zip(nodes, nodes[1:])]
    return PathKind(
        all(near is not Mark.ARROW for near, _ in steps),
        all(near is Mark.TAIL and far is Mark.ARROW for near, far in steps),
        nodes[0] in x and not any(n in x for n in nodes[1:]),
        all(_triple_open(adj, *nodes[i - 1:i + 2], (), adj) for i in range(1, len(nodes) - 1)),
    )


def path_open(g, nodes, z):
    """Whether the path `nodes` is open given `z`: every interior triple
    passes `_triple_open`, so a path not of definite status is never
    open.  Raises ValueError when `z` holds an endpoint."""
    if nodes[0] in z or nodes[-1] in z:
        raise ValueError(f"an endpoint of {nodes} is in Z")
    adj = edge_table(g)
    an_z = directed_closure(g, frozenset(z), reverse=True)
    return all(_triple_open(adj, *nodes[i - 1:i + 2], z, an_z) for i in range(1, len(nodes) - 1))


def enumerate_paths(g, x, y, *, possibly_causal=None, causal=None, proper=None,
                    definite_status=None):
    """All simple paths from a node of `x` to a node of `y` matching the mask,
    as node tuples in lexicographic order of node declaration indices.
    Each filter flag is True (require), False (forbid) or None (ignore)."""
    mask = {"possibly_causal": possibly_causal, "causal": causal, "proper_wrt_x": proper,
            "definite_status": definite_status}
    found = []
    adj = edge_table(g)

    def extend(path):
        if path[-1] in y and len(path) > 1:
            kind = classify_path(g, path, x)
            if all(want is None or getattr(kind, k) is want for k, want in mask.items()):
                found.append(path)
        for nxt in adj[path[-1]]:
            if nxt not in path:
                extend(path + (nxt,))

    for start in g.sort_nodes(x):
        extend((start,))
    return found


def m_connected_enumeration(g, x, y, z):
    """m-connection by its definition: some simple path from `x` to `y` has
    every interior node open given `z`, by depth-first search."""
    an_z = directed_closure(g, frozenset(z), reverse=True)
    adj = edge_table(g)

    def extend(path):
        return path[-1] in y or any(
            extend(path + (nxt,)) for nxt in adj[path[-1]]
            if nxt not in path and (len(path) < 2 or _triple_open(adj, *path[-2:], nxt, z, an_z))
        )

    return any(extend((s,)) for s in x)


def simple_path_search(g, x, y, z, *, proper=False, require_non_causal=False, skip_first=None):
    """Shortest open definite status simple path from `x` to `y` given `z`.

    Breadth-first search over whole simple paths (exponential in the
    worst case).  With `proper`, nodes of `x` appear only in first
    position; with `require_non_causal`, the path must carry an arrowhead
    back towards its start somewhere; `skip_first(start, first)` exempts
    first edges.  Ties are broken by declaration order.
    """
    an_z = directed_closure(g, frozenset(z), reverse=True)
    adj = edge_table(g)
    queue = deque(((s,), False) for s in g.sort_nodes(x))
    while queue:
        path, non_causal = queue.popleft()
        cur = path[-1]
        if cur in y and len(path) >= 2 and (non_causal or not require_non_causal):
            return path
        for nxt in adj[cur]:
            if nxt in path or (proper and nxt in x):
                continue
            if len(path) == 1 and skip_first is not None and skip_first(cur, nxt):
                continue
            if len(path) >= 2 and not _triple_open(adj, path[-2], cur, nxt, z, an_z):
                continue
            queue.append((path + (nxt,), non_causal or edge_mark(adj, cur, nxt) is Mark.ARROW))
    return None


def is_visible_dfs(g, e):
    """Visibility of the directed edge `e` by depth-first search over
    collider paths V *-> W1 <-> ... <-> X whose interior nodes are all
    parents of Y, from every V not adjacent to Y."""
    if g.graph_class in (GraphClass.DAG, GraphClass.CPDAG):
        return True
    x = e.tail_node()
    y = e.other(x)
    adj = edge_table(g)
    pa_y = {tail for tail, head in directed_pairs(g) if head == y}
    for v in g.nodes:
        if v == y or v == x or v in adj[y]:
            continue
        stack = [(v, (v,))]
        while stack:
            cur, path = stack.pop()
            for w, ew in adj[cur].items():
                if w in path:
                    continue
                if ew.mark_at(w) is not Mark.ARROW:
                    continue
                if cur != v and ew.mark_at(cur) is not Mark.ARROW:
                    continue
                if w == x:
                    return True
                if w in pa_y:
                    stack.append((w, path + (w,)))
    return False


# ------------------------------------------------- closures over edge objects
# The library's closures read its mark table; these are the edge-object
# loops they replaced.


def _directed_edge(e, tail, head):
    return e.mark_at(tail) is Mark.TAIL and e.mark_at(head) is Mark.ARROW


def parents_loop(g, s):
    adj = edge_table(g)
    return frozenset(w for v in s for w, e in adj[v].items() if _directed_edge(e, w, v))


def children_loop(g, s):
    adj = edge_table(g)
    return frozenset(w for v in s for w, e in adj[v].items() if _directed_edge(e, v, w))


def closure_loop(g, seeds, *, directed, reverse=False, avoid=frozenset()):
    """The contract of `graphs._reach` over edge objects: every seed is
    expanded, no node of `avoid` is entered, and the result holds the
    seeds and the nodes reached, minus `avoid`.  A step v -> w takes a
    directed edge v -> w (`directed`) or an edge with no arrowhead at v;
    with `reverse` the edge is read the other way round."""
    adj = edge_table(g)
    seen = set(seeds) | set(avoid)
    stack = list(seeds)
    while stack:
        v = stack.pop()
        for w, e in adj[v].items():
            if w in seen:
                continue
            near, far = (w, v) if reverse else (v, w)
            if _directed_edge(e, near, far) if directed else e.mark_at(near) is not Mark.ARROW:
                seen.add(w)
                stack.append(w)
    return frozenset(seen.difference(avoid))


def directed_closure(g, s, reverse=False):
    """Reachability along directed edges, into `s` with `reverse`; includes `s`."""
    return closure_loop(g, s, directed=True, reverse=reverse)


def possible_descendants_loop(g, s):
    return closure_loop(g, s, directed=False)


def possible_ancestors_loop(g, s):
    return closure_loop(g, s, directed=False, reverse=True)


def _reach_from(g, x, step):
    """Non-X nodes reached from `x` by proper paths whose edges pass `step`."""
    adj = edge_table(g)
    reach = set()
    queue = deque()
    for s in x:
        for u, e in adj[s].items():
            if u not in x and u not in reach and step(e, s, u):
                reach.add(u)
                queue.append(u)
    while queue:
        v = queue.popleft()
        for w, e in adj[v].items():
            if w not in reach and w not in x and step(e, v, w):
                reach.add(w)
                queue.append(w)
    return frozenset(reach)


def _reach_to(g, y, avoid, step):
    """Nodes outside `avoid` with a path into `y` outside `avoid` whose
    edges pass `step`."""
    adj = edge_table(g)
    reach = set(y) - set(avoid)
    queue = deque(reach)
    while queue:
        w = queue.popleft()
        for v, e in adj[w].items():
            if v not in reach and v not in avoid and step(e, v, w):
                reach.add(v)
                queue.append(v)
    return frozenset(reach)


def _possibly_directed_step(e, v, w):
    return e.mark_at(v) is not Mark.ARROW


def possibly_directed_reach_from(g, x):
    return _reach_from(g, x, _possibly_directed_step)


def possibly_directed_reach_to(g, y, avoid):
    return _reach_to(g, y, avoid, _possibly_directed_step)


def directed_reach_from(g, x):
    return _reach_from(g, x, _directed_edge)


def directed_reach_to(g, y, avoid):
    return _reach_to(g, y, avoid, _directed_edge)


# ------------------------------------------- maximality and projection by subsets


def require_maximal_subsets(g):
    """Raise NotMaximalError unless every non-adjacent pair is m-separated
    by some subset of the other nodes (all 2^(n-2) subsets tried, each by
    `m_connected_enumeration`)."""
    adj = edge_table(g)
    for i, a in enumerate(g.nodes):
        for b in g.nodes[i + 1:]:
            if b in adj[a]:
                continue
            rest = [n for n in g.nodes if n not in (a, b)]
            if not any(
                not m_connected_enumeration(g, (a,), (b,), zc)
                for r in range(len(rest) + 1)
                for zc in itertools.combinations(rest, r)
            ):
                raise NotMaximalError((a, b))


def latent_project_subsets(d, observed):
    """The latent projection of a DAG: observed a and b are adjacent iff no
    subset of the other observed nodes d-separates them (by moralization);
    the mark at a is a tail iff a is an ancestor of b."""
    obs = [n for n in d.nodes if n in observed]
    edges = []
    for a, b in itertools.combinations(obs, 2):
        rest = [n for n in obs if n not in (a, b)]
        if any(
            moral_d_separated(d, {a}, {b}, set(z))
            for r in range(len(rest) + 1)
            for z in itertools.combinations(rest, r)
        ):
            continue
        mark_a = Mark.TAIL if b in directed_closure(d, {a}) else Mark.ARROW
        mark_b = Mark.TAIL if a in directed_closure(d, {b}) else Mark.ARROW
        edges.append(Edge(a, b, mark_a, mark_b))
    return Graph(GraphClass.MAG, tuple(obs), frozenset(edges))


# ------------------------------------------- the AC and the shortest-path searches


def satisfies_ac(g, x, y, z):
    """The adjustment criterion of a DAG or MAG from the edge-object
    closures: (0) every proper causal path from `x` to `y` starts with a
    visible edge, (1) `z` holds no descendant of a non-X node on one, and
    (2) `z` blocks every proper non-causal path (simple-path search)."""
    x, y, z = frozenset(x), frozenset(y), frozenset(z)
    to_y = directed_reach_to(g, y, x)
    for s in x:
        for u, e in edge_table(g)[s].items():
            if u in to_y and _directed_edge(e, s, u) and not is_visible_dfs(g, e):
                return AdjustmentVerdict(False, "Cond0", amenability_violation(g, x, y))
    bad = z and z & directed_closure(g, directed_reach_from(g, x) & to_y)
    if bad:
        return AdjustmentVerdict(False, "Cond1", g.sort_nodes(bad)[0])
    path = simple_path_search(g, x, y, z, proper=True, require_non_causal=True)
    return AdjustmentVerdict(True) if path is None else AdjustmentVerdict(False, "Cond2", path)


def directed_cycle(g):
    """A directed cycle as a node list, or None: the first back edge of a
    depth-first search that takes roots and children in declaration order."""
    adj = edge_table(g)
    color = {n: 0 for n in g.nodes}  # 0 unvisited, 1 on the stack, 2 done
    parent = {}

    def children(v):
        return (w for w, e in adj[v].items() if _directed_edge(e, v, w))

    for root in g.nodes:
        if color[root]:
            continue
        stack = [(root, children(root))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            for w in it:
                if color[w] == 1:
                    cycle = [v]
                    while cycle[-1] != w:
                        cycle.append(parent[cycle[-1]])
                    return cycle[::-1]
                if color[w] == 0:
                    color[w] = 1
                    parent[w] = v
                    stack.append((w, children(w)))
                    break
            else:
                color[v] = 2
                stack.pop()
    return None


def shortest_directed_path(g, src, dst):
    """Shortest directed path from `src` to `dst`, ties by declaration order."""
    adj = edge_table(g)
    prev = {src: None}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        if v == dst:
            path = []
            while v is not None:
                path.append(v)
                v = prev[v]
            return tuple(path[::-1])
        for w, e in adj[v].items():
            if w not in prev and _directed_edge(e, v, w):
                prev[w] = v
                queue.append(w)
    return None


def shortest_possibly_directed_path(g, x_node, first, y, avoid):
    """Shortest possibly directed path x_node, first, ..., ending in `y`,
    entering no node of `avoid`."""
    if first in y:
        return (x_node, first)
    adj = edge_table(g)
    prev = {first: None}
    queue = deque([first])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w in prev or w in avoid or w == x_node:
                continue
            if edge_mark(adj, v, w) is not Mark.ARROW:
                prev[w] = v
                if w in y:
                    path = [w]
                    while path[-1] != first:
                        path.append(prev[path[-1]])
                    path.append(x_node)
                    return tuple(path[::-1])
                queue.append(w)
    return None


def amenability_violation(g, x, y):
    """Shortest proper possibly directed path from `x` to `y`, then first
    in declaration order, whose first edge is not a visible edge out of
    `x`; None if there is none."""
    suffix = possibly_directed_reach_to(g, y, x)
    adj = edge_table(g)
    found = []
    for x_node in x:
        for u, e in adj[x_node].items():
            m = e.mark_at(x_node)
            if u in x or u not in suffix or m is Mark.ARROW:
                continue
            if m is Mark.TAIL and is_visible_dfs(g, e):
                continue
            found.append(shortest_possibly_directed_path(g, x_node, u, y, x))
    return min(found, key=lambda p: (len(p), [g.node_index[n] for n in p]), default=None)


def almost_directed_cycle(g):
    """The first edge a <-> b in declaration order with a directed path
    between its ends, as that shortest path; None if there is none."""
    for e in sorted(g.edges, key=lambda e: (g.node_index[e.a], g.node_index[e.b])):
        if e.mark_a is Mark.ARROW and e.mark_b is Mark.ARROW:
            for src, dst in ((e.a, e.b), (e.b, e.a)):
                path = shortest_directed_path(g, src, dst)
                if path:
                    return path
    return None


# ------------------------------------------------------- the .cg reference parser
# The record-per-token tokenizer and the recursive-descent parser that
# `covadjust.cgtext.parse_document` replaced, with the query grammar
# changed as in the library: after a name, a part goes on at "," or ends
# at ";" or "}".

_EDGE_OPS = {
    "->": (Mark.TAIL, Mark.ARROW),
    "<->": (Mark.ARROW, Mark.ARROW),
    "o-o": (Mark.CIRCLE, Mark.CIRCLE),
    "o->": (Mark.CIRCLE, Mark.ARROW),
    "<-o": (Mark.ARROW, Mark.CIRCLE),
    "--": (Mark.CIRCLE, Mark.CIRCLE),  # CPDAG alias of o-o
}
_RESERVED = {"graph", "query", "dag", "cpdag", "mag", "pag"}
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<comment>#[^\n]*)|(?P<op><->|o->|<-o|o-o|->|--)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[{}=,;])"
)


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
                nxt = self.peek()
                if nxt.kind == "punct" and nxt.text == ",":
                    self.take()
                elif not (nxt.kind == "punct" and nxt.text in (";", "}")):
                    raise ParseError(
                        f"unexpected {nxt.text!r}" if nxt.text else "unexpected end of input",
                        nxt.line,
                        nxt.col,
                        expected="',', ';' or '}'",
                    )
            parts[key.text] = tuple(names)
        return Query(x=parts.get("X"), y=parts.get("Y"), z=parts.get("Z"))


def parse_document_reference(text: str) -> GraphDocument:
    """Parse a .cg document into a graph and its optional query block."""
    return _Parser(text).parse_document()
