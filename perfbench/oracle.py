"""Independent answers and properties the benchmark checks outputs against.

Nothing here calls the library under test.  DAG validity is decided with
networkx by the constructive back-door characterisation of the adjustment
criterion (van der Zander, Liskiewicz & Textor 2014): Z avoids the
forbidden set and d-separates X and Y in the proper back-door graph.
Class-level notions (possibly directed paths, forbidden set, visibility,
definite status, m-connection) are re-implemented from their definitions
over the mark table of ``gen.Mixed``.
"""

from __future__ import annotations

import itertools

import networkx as nx

from gen import Mixed, to_nx, v_structures


# ---------------------------------------------------------------- DAG oracle

class DagOracle:
    """Adjustment validity of Z for (X, Y) in one DAG."""

    def __init__(self, dag: Mixed):
        self.d = to_nx(dag)
        self._cache = {}

    def _forb_pbd(self, x, y):
        key = (x, y)
        if key not in self._cache:
            d = self.d
            rest = d.subgraph(set(d) - x)
            reach = set()
            for xi in x:
                for c in d.successors(xi):
                    if c not in x:
                        reach |= nx.descendants(rest, c) | {c}
            to_y = set()
            for yi in y:
                to_y |= nx.ancestors(rest, yi) | {yi}
            cn = reach & to_y
            forb = set(x)
            for w in cn:
                forb |= nx.descendants(d, w) | {w}
            pbd = d.copy()
            pbd.remove_edges_from([(xi, w) for xi in x for w in d.successors(xi) if w in cn])
            self._cache[key] = (frozenset(forb), pbd)
        return self._cache[key]

    def valid(self, x, y, z) -> bool:
        x, y, z = frozenset(x), frozenset(y), frozenset(z)
        forb, pbd = self._forb_pbd(x, y)
        return not (z & forb) and nx.is_d_separator(pbd, set(x), set(y), set(z))

    def backdoor(self, x_node, y, z) -> bool:
        """Pearl's back-door criterion for a single treatment."""
        d = self.d
        if set(z) & (nx.descendants(d, x_node) | {x_node}):
            return False
        cut = d.copy()
        cut.remove_edges_from(list(d.out_edges(x_node)))
        return nx.is_d_separator(cut, {x_node}, set(y), set(z))


def dag_members(c: Mixed, limit: int):
    """All DAGs of a CPDAG by the orientation sweep (acyclic, same
    v-structures), or None when it has more than `limit` undirected edges."""
    und = [(a, b) for a, b, ma, mb in c.edges() if ma == "o"]
    if len(und) > limit:
        return None
    target = v_structures(c)
    out = []
    for bits in itertools.product((0, 1), repeat=len(und)):
        g = c.copy("dag")
        for bit, (a, b) in zip(bits, und):
            if bit:
                a, b = b, a
            g.add(a, b, "-", ">")
        if nx.is_directed_acyclic_graph(to_nx(g)) and v_structures(g) == target:
            out.append(g)
    return out


def mark_union(members, cls, nodes) -> Mixed:
    u = Mixed.empty(cls, nodes)
    for a, b, _, _ in members[0].edges():
        ma = {g.m[b][a] for g in members}
        mb = {g.m[a][b] for g in members}
        u.add(a, b, ma.pop() if len(ma) == 1 else "o", mb.pop() if len(mb) == 1 else "o")
    return u


# ------------------------------------------------------- class-level notions

def _closure(g: Mixed, start, step):
    seen = set(start)
    stack = list(start)
    while stack:
        v = stack.pop()
        for w in g.adj(v):
            if w not in seen and step(v, w):
                seen.add(w)
                stack.append(w)
    return seen


def possibly_directed_step(g: Mixed, v, w) -> bool:
    """v-w may be traversed from v towards w on a possibly directed path:
    no arrowhead at v."""
    return g.m[w][v] != ">"


def possible_descendants(g, s):
    return _closure(g, s, lambda v, w: possibly_directed_step(g, v, w))


def possible_ancestors(g, s):
    return _closure(g, s, lambda v, w: possibly_directed_step(g, w, v))


def ancestors(g, s):
    return _closure(g, s, lambda v, w: g.directed(w, v))


def forbidden(g: Mixed, x, y) -> frozenset:
    """PossDe of the non-X nodes on proper possibly directed X-Y paths."""
    x = set(x)
    first = {u for xi in x for u in g.adj(xi) if u not in x and possibly_directed_step(g, xi, u)}
    from_x = _closure(g, first, lambda v, w: w not in x and possibly_directed_step(g, v, w))
    to_y = _closure(g, set(y) - x, lambda v, w: w not in x and possibly_directed_step(g, w, v))
    on = from_x & to_y
    return frozenset(possible_descendants(g, on)) if on else frozenset()


def canonical_set(g: Mixed, x, y) -> frozenset:
    """pAn(X u Y) minus (X u Y u Forb): valid whenever any set is, on an
    amenable graph (Perkovic et al. 2018)."""
    xy = set(x) | set(y)
    return frozenset(possible_ancestors(g, xy) - xy - forbidden(g, x, y))


def visible(g: Mixed, x, u) -> bool:
    """Is the directed edge x -> u visible?  (Zhang 2008, Lemma 3.3.1.)"""
    if g.cls in ("dag", "cpdag"):
        return True
    pa_u = {w for w in g.adj(u) if g.directed(w, u)}
    # interior nodes of collider paths into x: parents of u joined to x by
    # a bidirected path through parents of u
    inner = _closure(g, {w for w in pa_u if g.m[x].get(w) == ">" and g.m[w][x] == ">"},
                     lambda v, w: w in pa_u and g.m[v][w] == ">" and g.m[w][v] == ">")
    for t in [x] + sorted(inner):
        for v in g.adj(t):
            if v != u and v != x and not g.adjacent(v, u) and g.m[v][t] == ">":
                return True
    return False


def amenable(g: Mixed, x, y) -> bool:
    x = set(x)
    to_y = _closure(g, set(y) - x, lambda v, w: w not in x and possibly_directed_step(g, w, v))
    for xi in x:
        for u in g.adj(xi):
            if u in x or u not in to_y or not possibly_directed_step(g, xi, u):
                continue
            if not (g.directed(xi, u) and visible(g, xi, u)):
                return False
    return True


def triple_status(g: Mixed, a, b, c) -> str:
    ma, mc = g.m[a][b], g.m[c][b]
    if ma == ">" and mc == ">":
        return "collider"
    if ma == "-" or mc == "-" or (ma == "o" and mc == "o" and not g.adjacent(a, c)):
        return "non-collider"
    return "undetermined"


def path_problem(g: Mixed, path, x, y, z, *, non_causal) -> str | None:
    """Why `path` is not an open proper definite status path from X to Y
    given Z (and non-causal, if asked); None when it is one."""
    path = list(path)
    if len(path) < 2 or len(set(path)) != len(path):
        return "not a simple path"
    if any(not g.adjacent(a, b) for a, b in zip(path, path[1:])):
        return "consecutive nodes not adjacent"
    if path[0] not in x or any(v in x for v in path[1:]) or path[-1] not in y:
        return "not a proper path from X to Y"
    an_z = ancestors(g, set(z))
    for a, b, c in zip(path, path[1:], path[2:]):
        status = triple_status(g, a, b, c)
        if status == "undetermined":
            return f"{b} is not of definite status"
        if status == "collider" and b not in an_z:
            return f"collider {b} is not an ancestor of Z"
        if status == "non-collider" and b in z:
            return f"non-collider {b} is in Z"
    if non_causal and not any(g.m[b][a] == ">" for a, b in zip(path, path[1:])):
        return "path is possibly causal"
    return None


def possibly_directed_path_problem(g: Mixed, path, x, y) -> str | None:
    """Why `path` is not a proper possibly directed X-Y path whose first
    edge is not a visible edge out of X; None when it is one."""
    path = list(path)
    if len(path) < 2 or len(set(path)) != len(path):
        return "not a simple path"
    if any(not g.adjacent(a, b) for a, b in zip(path, path[1:])):
        return "consecutive nodes not adjacent"
    if path[0] not in x or any(v in x for v in path[1:]) or path[-1] not in y:
        return "not a proper path from X to Y"
    if not all(possibly_directed_step(g, a, b) for a, b in zip(path, path[1:])):
        return "not possibly directed"
    if g.directed(path[0], path[1]) and visible(g, path[0], path[1]):
        return "first edge is visible"
    return None


def minimal_elements(sets):
    sets = [frozenset(s) for s in sets]
    return {s for s in sets if not any(o < s for o in sets)}


def path_sum_effects(coeffs, nodes, x, y):
    """Total effect of each x (in `nodes` order) on y with all of X held
    fixed: sums of coefficient products over directed paths that do not
    pass through another X node.  `coeffs[i][j]` weighs nodes[i] -> nodes[j]."""
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    x = set(x)
    memo = {}

    def to_y(i):
        if i == idx[y]:
            return 1.0
        if i not in memo:
            memo[i] = sum(coeffs[i][j] * to_y(j) for j in range(n)
                          if coeffs[i][j] != 0.0 and nodes[j] not in x)
        return memo[i]

    return [to_y(idx[v]) for v in nodes if v in x]
