"""Markov equivalence classes: enumeration, union representatives,
equivalence testing and latent projection.

A CPDAG describes the class of DAGs sharing its skeleton and unshielded
colliders; a PAG describes a class of Markov equivalent MAGs.  Members
are recovered by orienting the circle marks of the representative and
keeping the assignments that reproduce the class; the representative is
recovered from members as the per-endpoint mark union (circle wherever
members disagree).  Class enumeration is exact brute force at desk
scale: equivalence is decided by comparing complete m-separation
fingerprints.  Latent projection takes one d-separation search per pair.
"""

from __future__ import annotations

import itertools

from .errors import (
    AlmostDirectedCycleError,
    ClassMismatchError,
    DirectedCycleError,
    InvalidCpdagError,
    InvalidPagError,
    NodeSetMismatchError,
    NotEquivalentError,
    NotMaximalError,
    SizeCapExceededError,
    SkeletonMismatchError,
    UnknownNodeError,
)
from .graphs import (
    Edge,
    Graph,
    GraphClass,
    Mark,
    _find_directed_cycle,
    _reach,
    _Record,
    _set,
    validate_ancestral,
)
from .paths import _open_walk, require_maximal

DEFAULT_ORIENTATION_CAP = 20  # undirected edges in a CPDAG -> DAG search
DEFAULT_MARK_SLOT_CAP = 16  # circle marks in a PAG -> MAG search
DEFAULT_FINGERPRINT_NODE_CAP = 12


class EquivalenceClass(_Record):
    """A class representative together with the explicit member list."""

    __slots__ = _fields = ("representative", "members")

    def __init__(self, representative: Graph, members: tuple):
        _set(self, "representative", representative)
        _set(self, "members", members)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def unshielded_colliders(g: Graph) -> frozenset:
    """Triples (a, m, b), a < b, with arrowheads at m from both non-adjacent sides."""
    out = set()
    for m in g.nodes:
        nbrs = sorted(g.neighbors(m))
        for a, b in itertools.combinations(nbrs, 2):
            if g.adjacent(a, b):
                continue
            if g.mark_at(m, a) is Mark.ARROW and g.mark_at(m, b) is Mark.ARROW:
                out.add((a, m, b))
    return frozenset(out)


def separation_fingerprint(g: Graph) -> frozenset:
    """All m-separated triples (a, b, conditioning set), a < b by name."""
    cap = DEFAULT_FINGERPRINT_NODE_CAP
    if len(g.nodes) > cap:
        raise SizeCapExceededError(
            f"{len(g.nodes)} nodes exceeds the fingerprint cap of {cap}",
            cap="fingerprint_nodes", limit=cap, required=len(g.nodes),
        )
    out = set()
    names = sorted(g.nodes)
    for a, b in itertools.combinations(names, 2):
        rest = [n for n in names if n not in (a, b)]
        for r in range(len(rest) + 1):
            for z in itertools.combinations(rest, r):
                if _open_walk(g, frozenset([a]), frozenset([b]), frozenset(z)) is None:
                    out.add((a, b, frozenset(z)))
    return frozenset(out)


def markov_equivalent(g1: Graph, g2: Graph) -> bool:
    """Whether two DAGs (or two MAGs) encode identical m-separations."""
    if set(g1.nodes) != set(g2.nodes):
        raise NodeSetMismatchError("graphs are over different node sets")
    if g1.graph_class is not g2.graph_class or g1.graph_class not in (
        GraphClass.DAG,
        GraphClass.MAG,
    ):
        raise ClassMismatchError("markov_equivalent compares two DAGs or two MAGs")
    return separation_fingerprint(g1) == separation_fingerprint(g2)


def _skeleton(g: Graph) -> frozenset:
    return frozenset((e.a, e.b) for e in g.edges)


def _mark_union(members, graph_class: GraphClass, nodes) -> Graph:
    """Per-endpoint mark union; no equivalence verification."""
    edges = []
    for a, b in sorted(_skeleton(members[0])):
        marks_a = {m._marks[a][b] for m in members}
        marks_b = {m._marks[b][a] for m in members}
        mark_a = marks_a.pop() if len(marks_a) == 1 else Mark.CIRCLE
        mark_b = marks_b.pop() if len(marks_b) == 1 else Mark.CIRCLE
        edges.append(Edge(a, b, mark_a, mark_b))
    return Graph(graph_class, nodes, frozenset(edges))


def union_representative(members) -> Graph:
    """Mark union of a list of Markov equivalent same-skeleton graphs.

    DAG members give a CPDAG, MAG members give a PAG.
    """
    members = list(members)
    if not members:
        raise NotEquivalentError("no members given")
    classes = {m.graph_class for m in members}
    if classes == {GraphClass.DAG}:
        out_class = GraphClass.CPDAG
    elif classes == {GraphClass.MAG}:
        out_class = GraphClass.PAG
    else:
        raise ClassMismatchError("members must be all DAGs or all MAGs")
    skel = _skeleton(members[0])
    for m in members[1:]:
        if set(m.nodes) != set(members[0].nodes):
            raise NodeSetMismatchError("members are over different node sets")
        if _skeleton(m) != skel:
            raise SkeletonMismatchError("members differ in skeleton")
    fingerprints = {separation_fingerprint(m) for m in members}
    if len(fingerprints) > 1:
        raise NotEquivalentError("members are not Markov equivalent")
    return _mark_union(members, out_class, members[0].nodes)


def enumerate_dags(c: Graph) -> EquivalenceClass:
    """All DAGs in the class of a CPDAG.

    Orients every undirected edge both ways and keeps the acyclic results
    with unchanged unshielded colliders; the mark union of the survivors
    must reproduce the input, otherwise the input is not a valid CPDAG.
    """
    if c.graph_class is GraphClass.DAG:
        return EquivalenceClass(c, (c,))
    if c.graph_class is not GraphClass.CPDAG:
        raise ClassMismatchError("enumerate_dags expects a CPDAG")
    cap = DEFAULT_ORIENTATION_CAP
    undirected = sorted(
        (e for e in c.edges if not e.is_directed()),
        key=lambda e: (c.node_index[e.a], c.node_index[e.b]),
    )
    if len(undirected) > cap:
        raise SizeCapExceededError(
            f"{len(undirected)} undirected edges exceeds the cap of {cap}",
            cap="undirected_edges", limit=cap, required=len(undirected),
        )
    base = [e for e in c.edges if e.is_directed()]
    target_colliders = unshielded_colliders(c)
    members = []
    for bits in itertools.product((0, 1), repeat=len(undirected)):
        edges = list(base)
        for bit, e in zip(bits, undirected):
            edges.append(Edge.directed(e.a, e.b) if bit == 0 else Edge.directed(e.b, e.a))
        candidate = Graph(GraphClass.DAG, c.nodes, frozenset(edges))
        if _find_directed_cycle(candidate) is not None:
            continue
        if unshielded_colliders(candidate) != target_colliders:
            continue
        members.append(candidate)
    if not members:
        raise InvalidCpdagError("no acyclic orientation preserves the unshielded colliders")
    if _mark_union(members, GraphClass.CPDAG, c.nodes) != c:
        raise InvalidCpdagError("mark union of the oriented class differs from the input")
    return EquivalenceClass(c, tuple(members))


def enumerate_mags(p: Graph) -> EquivalenceClass:
    """All MAGs in the class of a PAG.

    Every circle mark is assigned a tail or an arrowhead (tail-tail edges
    are excluded: no selection variables).  Ancestral candidates are
    grouped by separation fingerprint; the group whose mark union equals
    the input is the class.  No such group, an ambiguous union, or a
    non-maximal result rejects the input as an invalid PAG.
    """
    if p.graph_class is GraphClass.MAG:
        return EquivalenceClass(p, (p,))
    if p.graph_class is not GraphClass.PAG:
        raise ClassMismatchError("enumerate_mags expects a PAG or MAG")
    cap = DEFAULT_MARK_SLOT_CAP
    slots = []
    fixed = []
    for e in sorted(p.edges, key=lambda e: (p.node_index[e.a], p.node_index[e.b])):
        if e.mark_a is Mark.CIRCLE or e.mark_b is Mark.CIRCLE:
            slots.append(e)
        else:
            fixed.append(e)
    n_marks = sum((e.mark_a is Mark.CIRCLE) + (e.mark_b is Mark.CIRCLE) for e in slots)
    if n_marks > cap:
        raise SizeCapExceededError(
            f"{n_marks} circle marks exceeds the cap of {cap}",
            cap="circle_marks", limit=cap, required=n_marks,
        )

    def assignments(edge):
        choices_a = (Mark.TAIL, Mark.ARROW) if edge.mark_a is Mark.CIRCLE else (edge.mark_a,)
        choices_b = (Mark.TAIL, Mark.ARROW) if edge.mark_b is Mark.CIRCLE else (edge.mark_b,)
        for ma, mb in itertools.product(choices_a, choices_b):
            if ma is Mark.TAIL and mb is Mark.TAIL:
                continue  # selection variables are out of scope
            yield Edge(edge.a, edge.b, ma, mb)

    # unshielded colliders are invariant across a class and fully arrowheaded
    # in its union, so candidates that change them cannot be members
    target_colliders = unshielded_colliders(p)
    groups = {}  # fingerprint -> list of candidates, insertion ordered
    for combo in itertools.product(*(tuple(assignments(e)) for e in slots)):
        candidate = Graph(GraphClass.MAG, p.nodes, frozenset(fixed) | frozenset(combo))
        if unshielded_colliders(candidate) != target_colliders:
            continue
        try:
            validate_ancestral(candidate)
        except (DirectedCycleError, AlmostDirectedCycleError):
            continue
        fp = separation_fingerprint(candidate)
        groups.setdefault(fp, []).append(candidate)

    matching = [
        members
        for members in groups.values()
        if _mark_union(members, GraphClass.PAG, p.nodes) == p
    ]
    if not matching:
        raise InvalidPagError("no Markov equivalence class of MAGs has this mark union")
    if len(matching) > 1:
        raise InvalidPagError("mark union is ambiguous between fingerprint groups")
    members = matching[0]
    # maximality is fingerprint-determined on a shared skeleton, so one check covers the group
    try:
        require_maximal(members[0])
    except NotMaximalError as exc:
        raise InvalidPagError(f"class members are not maximal: {exc}") from exc
    return EquivalenceClass(p, tuple(members))


def latent_project(d: Graph, observed) -> Graph:
    """Project a DAG onto `observed`, yielding the MAG that preserves the
    ancestral and m-separation relationships among the observed nodes.

    Two observed nodes are adjacent when no observed subset separates
    them in the DAG; the mark at A on an edge A-B is a tail exactly when
    A is an ancestor of B.
    """
    if d.graph_class is not GraphClass.DAG:
        raise ClassMismatchError("latent_project expects a DAG")
    observed = frozenset(observed)
    unknown = observed - set(d.nodes)
    if unknown:
        raise UnknownNodeError(f"observed nodes not in the graph: {sorted(unknown)}")
    obs = [n for n in d.nodes if n in observed]
    # a and b are adjacent iff (An({a, b}) & observed) minus {a, b} does
    # not d-separate them (Richardson & Spirtes 2002); the mark at a is a
    # tail iff a is an ancestor of b
    an = {v: _reach(d, frozenset([v]), directed=True, reverse=True) for v in obs}
    edges = []
    for a, b in itertools.combinations(obs, 2):
        z = ((an[a] | an[b]) & observed) - {a, b}
        if _open_walk(d, frozenset([a]), frozenset([b]), z) is None:
            continue
        mark_a = Mark.TAIL if a in an[b] else Mark.ARROW
        mark_b = Mark.TAIL if b in an[a] else Mark.ARROW
        edges.append(Edge(a, b, mark_a, mark_b))
    mag = Graph(GraphClass.MAG, tuple(obs), frozenset(edges))
    validate_ancestral(mag)
    return mag


def canonical_dag(m: Graph) -> Graph:
    """The minimal DAG a MAG represents: directed edges kept, each
    bidirected edge A <-> B replaced by a fresh latent parent of A and B.

    Projecting the result back onto the MAG's nodes returns the MAG.
    """
    if m.graph_class is not GraphClass.MAG:
        raise ClassMismatchError("canonical_dag expects a MAG")
    nodes = list(m.nodes)
    edges = []
    used = set(nodes)
    counter = 1
    for e in sorted(m.edges, key=lambda e: (m.node_index[e.a], m.node_index[e.b])):
        if e.is_directed():
            edges.append(e)
        else:
            name = f"L{counter}"
            while name in used:
                name = "_" + name
            used.add(name)
            counter += 1
            nodes.append(name)
            edges.append(Edge.directed(name, e.a))
            edges.append(Edge.directed(name, e.b))
    dag = Graph(GraphClass.DAG, tuple(nodes), frozenset(edges))
    cycle = _find_directed_cycle(dag)
    if cycle is not None:
        raise ClassMismatchError(f"input is not ancestral: directed cycle {cycle}")
    return dag
