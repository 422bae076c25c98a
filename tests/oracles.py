"""Independent reference implementations and random-instance generators.

Everything here exists to cross-check the library through a different
route than the one under test: moralization instead of path blocking,
explicit path sums instead of matrix inverses, exhaustive orientation
sweeps instead of class-aware enumeration.
"""

import itertools
from collections import deque

from covadjust.errors import GraphError
from covadjust.graphs import (
    Edge,
    Graph,
    GraphClass,
    Mark,
    _directed_closure,
    _find_directed_cycle,
    parents,
    validate_ancestral,
)
from covadjust.mec import _mark_union, separation_fingerprint, unshielded_colliders
from covadjust.paths import _triple_open


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
    directed paths, after severing the edges into the intervened nodes."""
    g = sem.graph
    idx = g.node_index
    children = {n: [] for n in g.nodes}
    for tail, head in directed_pairs(g):
        if head not in x:
            children[tail].append(head)
    totals = []
    for s in sorted(x, key=idx.__getitem__):
        acc = 0.0
        stack = [(s, 1.0)]
        while stack:
            v, prod = stack.pop()
            if v == y:
                acc += prod
                continue
            for w in children[v]:
                stack.append((w, prod * sem.coeffs[idx[v], idx[w]]))
        totals.append(acc)
    return totals


def is_subsequence(sub, seq):
    it = iter(seq)
    return all(s in it for s in sub)


def concat_paths(p, q):
    """Concatenate two node sequences sharing an endpoint; cut at the
    first revisit and splice so the result is again a path."""
    assert p[-1] == q[0]
    out = []
    for v in list(p) + list(q[1:]):
        if v in out:
            out = out[: out.index(v) + 1]
        else:
            out.append(v)
    return tuple(out)


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
        if _find_directed_cycle(g) is None and unshielded_colliders(g) == target:
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
        try:
            validate_ancestral(g)
        except GraphError:
            continue
        if separation_fingerprint(g) == target_fp:
            members.append(g)
    return members


def pag_of(mag):
    """The PAG of a MAG: mark union over its whole equivalence class."""
    return _mark_union(mag_class_of(mag), GraphClass.PAG, mag.nodes)


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


def simple_path_search(g, x, y, z, *, proper=False, require_non_causal=False, skip_first=None):
    """Shortest open definite status simple path from `x` to `y` given `z`.

    Breadth-first search over whole simple paths (exponential in the
    worst case).  With `proper`, nodes of `x` appear only in first
    position; with `require_non_causal`, the path must carry an arrowhead
    back towards its start somewhere; `skip_first(start, first)` exempts
    first edges.  Ties are broken by declaration order.
    """
    an_z = _directed_closure(g, frozenset(z), reverse=True)
    queue = deque(((s,), False) for s in g.sort_nodes(x))
    while queue:
        path, non_causal = queue.popleft()
        cur = path[-1]
        if cur in y and len(path) >= 2 and (non_causal or not require_non_causal):
            return path
        for nxt in g.sort_nodes(g.neighbors(cur)):
            if nxt in path or (proper and nxt in x):
                continue
            if len(path) == 1 and skip_first is not None and skip_first(cur, nxt):
                continue
            if len(path) >= 2 and not _triple_open(g, path[-2], cur, nxt, z, an_z):
                continue
            queue.append((path + (nxt,), non_causal or g.mark_at(cur, nxt) is Mark.ARROW))
    return None


def is_visible_dfs(g, e):
    """Visibility of the directed edge `e` by depth-first search over
    collider paths V *-> W1 <-> ... <-> X whose interior nodes are all
    parents of Y, from every V not adjacent to Y."""
    if g.graph_class in (GraphClass.DAG, GraphClass.CPDAG):
        return True
    x = e.tail_node()
    y = e.other(x)
    pa_y = parents(g, [y])
    for v in g.nodes:
        if v == y or v == x or g.adjacent(v, y):
            continue
        stack = [(v, (v,))]
        while stack:
            cur, path = stack.pop()
            for w in g.sort_nodes(g.neighbors(cur)):
                if w in path:
                    continue
                ew = g.edge_between(cur, w)
                if ew.mark_at(w) is not Mark.ARROW:
                    continue
                if cur != v and ew.mark_at(cur) is not Mark.ARROW:
                    continue
                if w == x:
                    return True
                if w in pa_y:
                    stack.append((w, path + (w,)))
    return False
