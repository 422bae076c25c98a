"""Seeded input generators, independent of the library under test.

Every class graph is derived from a hidden generating DAG:

* CPDAG: skeleton and v-structures of the DAG, closed under Meek's rules
  R1-R3 (complete when no background knowledge is given, Meek 1995).
* MAG: latent projection.  Observed a, b are adjacent iff they are not
  d-separated by (An({a, b}) & observed) - {a, b} (Richardson & Spirtes
  2002, Thm 4.2), decided with ``networkx.is_d_separator``; the mark at a
  is a tail iff a is an ancestor of b.
* PAG: Zhang's (2008) orientation rules applied to the MAG: R0 from its
  unshielded colliders, then R1-R4 and R8-R10 to a fixpoint, with R4
  reading collider status off the MAG.  R5-R7 only concern selection
  variables, which are out of scope.

A graph is a ``Mixed``: declaration-ordered node names and a mark table
``m[a][b]`` holding the mark at ``b`` of the edge a-b: "-" (tail), ">"
(arrowhead) or "o" (circle).
"""

from __future__ import annotations

import itertools
import random
import re

import networkx as nx


class Mixed:
    def __init__(self, cls, nodes, m):
        self.cls = cls
        self.nodes = tuple(nodes)
        self.m = m

    @classmethod
    def empty(cls_, cls, nodes):
        return cls_(cls, nodes, {v: {} for v in nodes})

    def add(self, a, b, mark_a, mark_b):
        self.m[a][b] = mark_b
        self.m[b][a] = mark_a

    def adj(self, a):
        return self.m[a].keys()

    def adjacent(self, a, b):
        return b in self.m[a]

    def directed(self, a, b):
        """a -> b"""
        return self.m[a].get(b) == ">" and self.m[b][a] == "-"

    def edges(self):
        idx = {v: i for i, v in enumerate(self.nodes)}
        for a in self.nodes:
            for b in self.m[a]:
                if idx[a] < idx[b]:
                    yield a, b, self.m[b][a], self.m[a][b]

    def copy(self, cls):
        """A copy with class tag `cls`."""
        return Mixed(cls, self.nodes, {v: dict(d) for v, d in self.m.items()})

    def key(self):
        """Hashable identity: class, node order and per-endpoint marks."""
        return (self.cls, self.nodes, frozenset(self.edges()))


_OPS = {("-", ">"): "->", (">", ">"): "<->", ("o", "o"): "o-o", ("o", ">"): "o->"}


def to_cg(g: Mixed, query=None) -> str:
    lines = [f"graph {g.cls} {{"]
    lines += [f"  {v}" for v in g.nodes]
    for a, b, ma, mb in g.edges():
        if (ma, mb) not in _OPS:
            a, b, ma, mb = b, a, mb, ma
        op = _OPS[(ma, mb)]
        if op == "o-o" and g.cls == "cpdag":
            op = "--"
        lines.append(f"  {a} {op} {b}")
    lines.append("}")
    if query is not None:
        parts = [f"{k} = {', '.join(v)}" for k, v in zip("XYZ", query) if v is not None]
        lines.append("query { " + "; ".join(parts) + " }")
    return "\n".join(lines) + "\n"


def from_cg_edges(cls, nodes, edge_statements) -> Mixed:
    """Inverse of the edge statements the CLI prints ("A -> B", ...)."""
    g = Mixed.empty(cls, nodes)
    inv = {op: marks for marks, op in _OPS.items()}
    inv["--"] = ("o", "o")
    for stmt in edge_statements:
        a, op, b = stmt.split()
        g.add(a, b, *inv[op])
    return g


def random_dag(rng: random.Random, n: int, n_edges: int, prefix="V") -> Mixed:
    """Uniform over DAGs with exactly `n_edges` edges consistent with a
    random topological order.  Declaration order is by name, so it is not
    a topological order."""
    names = [f"{prefix}{i}" for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    pairs = list(itertools.combinations(range(n), 2))
    g = Mixed.empty("dag", names)
    for i, j in rng.sample(pairs, min(n_edges, len(pairs))):
        g.add(order[i], order[j], "-", ">")
    return g


def to_nx(dag: Mixed) -> nx.DiGraph:
    d = nx.DiGraph()
    d.add_nodes_from(dag.nodes)
    d.add_edges_from((a, b) for a in dag.nodes for b in dag.m[a] if dag.directed(a, b))
    return d


def v_structures(g: Mixed):
    out = set()
    for c in g.nodes:
        for a, b in itertools.combinations(sorted(g.adj(c)), 2):
            if not g.adjacent(a, b) and g.m[a][c] == ">" and g.m[b][c] == ">":
                out.add((a, c, b))
    return out


def cpdag_of(dag: Mixed) -> Mixed:
    c = Mixed.empty("cpdag", dag.nodes)
    for a, b, _, _ in dag.edges():
        c.add(a, b, "o", "o")
    for a, m, b in v_structures(dag):
        c.add(a, m, "-", ">")
        c.add(b, m, "-", ">")
    meek(c)
    return c


def _undirected(g, a, b):
    return g.m[a].get(b) == "o" and g.m[b][a] == "o"


def meek(c: Mixed) -> None:
    """Close a pattern under Meek's rules R1-R3, in place."""
    changed = True
    while changed:
        changed = False
        for b in c.nodes:
            for x in list(c.adj(b)):
                if not _undirected(c, b, x):
                    continue
                # orient b -> x ?
                fire = False
                for a in c.adj(b):  # R1: a -> b - x, a, x non-adjacent
                    if a != x and c.directed(a, b) and not c.adjacent(a, x):
                        fire = True
                        break
                if not fire:  # R2: b -> w -> x and b - x
                    fire = any(c.directed(b, w) and c.directed(w, x) for w in c.adj(b))
                if not fire:  # R3: b - u -> x, b - w -> x, u, w non-adjacent
                    us = [u for u in c.adj(b) if _undirected(c, b, u) and c.directed(u, x)]
                    fire = any(not c.adjacent(u, w) for u, w in itertools.combinations(us, 2))
                if fire:
                    c.add(b, x, "-", ">")
                    changed = True


def latent_projection(dag: Mixed, observed) -> Mixed:
    """MAG of `dag` over `observed` by the ancestral-separator rule."""
    d = to_nx(dag)
    obs = [v for v in dag.nodes if v in set(observed)]
    obs_set = set(obs)
    anc = {v: nx.ancestors(d, v) | {v} for v in obs}
    mag = Mixed.empty("mag", obs)
    for a, b in itertools.combinations(obs, 2):
        if not dag.adjacent(a, b):
            sep = ((anc[a] | anc[b]) & obs_set) - {a, b}
            if nx.is_d_separator(d, {a}, {b}, sep):
                continue
        mag.add(a, b, "-" if a in anc[b] else ">", "-" if b in anc[a] else ">")
    return mag


def pag_of(mag: Mixed) -> Mixed:
    """PAG of the Markov equivalence class of `mag` (Zhang 2008)."""
    p = Mixed.empty("pag", mag.nodes)
    for a, b, _, _ in mag.edges():
        p.add(a, b, "o", "o")
    for a, c, b in v_structures(mag):
        p.m[a][c] = ">"
        p.m[b][c] = ">"
    while _zhang_step(p, mag):
        pass
    return p


def _set(p, a, b, mark):
    """Set the mark at b on a-b; True if it changed."""
    if p.m[a][b] == mark:
        return False
    p.m[a][b] = mark
    return True


def _zhang_step(p: Mixed, mag: Mixed) -> bool:
    m = p.m
    changed = False
    for b in p.nodes:
        for a in list(p.adj(b)):
            for c in list(p.adj(b)):
                if a == c:
                    continue
                # R1: a *-> b o-* c, a, c non-adjacent  =>  b -> c
                if m[a][b] == ">" and m[c][b] == "o" and not p.adjacent(a, c):
                    changed |= _set(p, c, b, "-") | _set(p, b, c, ">")
    for a in p.nodes:
        for c in list(p.adj(a)):
            if m[a][c] != "o":
                continue
            # R2: a -> b *-> c or a *-> b -> c, with a *-o c  =>  a *-> c
            for b in p.adj(a):
                if b != c and p.adjacent(b, c) and (
                    (p.directed(a, b) and m[b][c] == ">") or (m[a][b] == ">" and p.directed(b, c))
                ):
                    changed |= _set(p, a, c, ">")
                    break
    for b in p.nodes:
        nb = list(p.adj(b))
        for a, c in itertools.combinations(nb, 2):
            # R3: a *-> b <-* c, a *-o t o-* c, a, c non-adjacent, t *-o b  =>  t *-> b
            if p.adjacent(a, c) or m[a][b] != ">" or m[c][b] != ">":
                continue
            for t in nb:
                if t in (a, c) or m[t][b] != "o":
                    continue
                if p.adjacent(t, a) and p.adjacent(t, c) and m[a][t] == "o" and m[c][t] == "o":
                    changed |= _set(p, t, b, ">")
    changed |= _rule4(p, mag)
    for a in p.nodes:
        for c in list(p.adj(a)):
            # R8-R10 orient a o-> c as a -> c
            if m[c][a] != "o" or m[a][c] != ">":
                continue
            if _rule8(p, a, c) or _rule9(p, a, c) or _rule10(p, a, c):
                changed |= _set(p, c, a, "-")
    return changed


def _rule4(p: Mixed, mag: Mixed) -> bool:
    m = p.m
    changed = False
    for b in p.nodes:
        for c in list(p.adj(b)):
            if m[c][b] != "o":  # need b o-* c
                continue
            for a in p.adj(b):
                # path <..., a, b, c>: a collider on it (into a from b) and a -> c
                if a == c or m[b][a] != ">" or not p.directed(a, c):
                    continue
                if _discriminating(p, a, b, c):
                    if mag.m[a][b] == ">" and mag.m[c][b] == ">":
                        for u, v in ((a, b), (b, a), (c, b), (b, c)):
                            changed |= _set(p, u, v, ">")
                    else:
                        changed |= _set(p, c, b, "-") | _set(p, b, c, ">")
                    break
    return changed


def _discriminating(p: Mixed, a, b, c) -> bool:
    """Is there a discriminating path <t, ..., a, b, c> for b?  Every node
    from a back to (excluding) t is a collider on the path and a parent of
    c, and t is not adjacent to c."""
    m = p.m
    seen = {a, b, c}
    frontier = [a]
    while frontier:
        nxt = []
        for v in frontier:
            for w in p.adj(v):
                if w in seen or m[w][v] != ">":
                    continue  # the edge w-v must be into v (v is a collider)
                if not p.adjacent(w, c):
                    return True
                if p.directed(w, c) and m[v][w] == ">":
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return False


def _rule8(p, a, c) -> bool:
    return any(p.directed(a, b) and p.directed(b, c) for b in p.adj(a) if b != c)


def _pd_step(p, u, v) -> bool:
    """Edge u-v may start a potentially directed step u => v."""
    return p.m[v][u] != ">" and p.m[u][v] != "-"


def _uncovered_pd_ends(p, a, first, forbid):
    """Nodes reachable from `a` by an uncovered potentially directed simple
    path whose second node is `first`, avoiding `forbid`."""
    out = set()
    stack = [((a, first), {a, first})]
    while stack:
        path, on = stack.pop()
        out.add(path[-1])
        prev, cur = path[-2], path[-1]
        for w in p.adj(cur):
            if w in on or w in forbid or p.adjacent(prev, w) or not _pd_step(p, cur, w):
                continue
            stack.append((path + (w,), on | {w}))
    return out


def _rule9(p, a, c) -> bool:
    """An uncovered p.d. path <a, b, t, ..., c> with b, c non-adjacent."""
    for b in p.adj(a):
        if b == c or p.adjacent(b, c) or not _pd_step(p, a, b):
            continue
        stack = [((a, b), {a, b})]
        while stack:
            path, on = stack.pop()
            prev, cur = path[-2], path[-1]
            if cur != b and p.adjacent(cur, c) and _pd_step(p, cur, c) and not p.adjacent(prev, c):
                return True
            for w in p.adj(cur):
                if w in on or w == c or p.adjacent(prev, w) or not _pd_step(p, cur, w):
                    continue
                stack.append((path + (w,), on | {w}))
    return False


def _rule10(p, a, c) -> bool:
    into_c = [v for v in p.adj(c) if v != a and p.directed(v, c)]
    if len(into_c) < 2:
        return False
    firsts = [u for u in p.adj(a) if u != c and _pd_step(p, a, u)]
    reach = {u: _uncovered_pd_ends(p, a, u, {c}) for u in firsts}
    for b, t in itertools.combinations(into_c, 2):
        for mu, om in itertools.permutations(firsts, 2):
            if p.adjacent(mu, om):
                continue
            if b in reach[mu] and t in reach[om]:
                return True
    return False


_TOKEN = re.compile(r"\s+|#[^\n]*|(<->|o->|<-o|o-o|->|--|[{}=,;]|[A-Za-z_][A-Za-z0-9_]*)")
_READ = {"->": ("-", ">"), "<->": (">", ">"), "o-o": ("o", "o"), "--": ("o", "o"),
         "o->": ("o", ">"), "<-o": (">", "o")}


def parse_cg(text):
    """(graph, query) from .cg text; query is (X, Y, Z), each a list or None."""
    toks = [m.group(1) for m in _TOKEN.finditer(text) if m.group(1)]
    close = toks.index("}")
    body = toks[3:close]
    nodes, edges = [], []
    i = 0
    while i < len(body):
        if i + 1 < len(body) and body[i + 1] in _READ:
            edges.append((body[i], body[i + 2], *_READ[body[i + 1]]))
            named = (body[i], body[i + 2])
            i += 3
        else:
            named = (body[i],)
            i += 1
        nodes += [v for v in named if v not in nodes]
    g = Mixed.empty(toks[1], nodes)
    for a, b, ma, mb in edges:
        g.add(a, b, ma, mb)
    query, key = {}, None
    for prev, t in zip(toks[close + 3:], toks[close + 4:]):  # after "} query {"
        if t == "=":
            key = prev
            query[key] = []
        elif t == ";":
            key = None
        elif key and t not in (",", "}"):
            query[key].append(t)
    return g, (query.get("X"), query.get("Y"), query.get("Z"))
