"""Markov equivalence classes: enumeration, union representatives,
equivalence testing and latent projection.

A CPDAG represents a class of DAGs, a PAG a class of MAGs.  One brute-force
search, `_class_members`, orients the circle marks of either and keeps
the class; the representative is the members' per-endpoint mark union
(circle wherever members disagree).  Two DAGs are equivalent iff they
share skeleton and unshielded colliders (Verma & Pearl 1990); two MAGs
iff their m-separation fingerprints agree.  Latent projection takes one
d-separation search per pair.
"""

import itertools

from . import errors  # deferred: runs on the first fault
from .graphs import Edge, _find_directed_cycle, validate_ancestral
from .kernel import _as_set, _reach
from .model import _ALLOWED_MARKS, Graph, GraphClass, Mark, _Record, _set
from .paths import _open_walk, require_maximal

DEFAULT_ORIENTATION_CAP = 20  # undirected edges in a CPDAG -> DAG search
DEFAULT_MARK_SLOT_CAP = 16  # circle marks in a PAG -> MAG search
DEFAULT_FINGERPRINT_NODE_CAP = 12

# member class -> (representative class, the name of its error in
# `errors`, read only on a fault, cap name, cap limit, circle marks per
# unit the cap counts: two per CPDAG undirected edge)
_SEARCHES = {
    GraphClass.DAG: (GraphClass.CPDAG, "InvalidCpdagError", "undirected_edges",
                     DEFAULT_ORIENTATION_CAP, 2),
    GraphClass.MAG: (GraphClass.PAG, "InvalidPagError", "circle_marks", DEFAULT_MARK_SLOT_CAP, 1),
}


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
    marks = g._marks
    out = set()
    for m, row in marks.items():
        into = sorted(w for w, mark in row.items() if mark is Mark.ARROW)
        out.update((a, m, b) for a, b in itertools.combinations(into, 2) if b not in marks[a])
    return frozenset(out)


def separation_fingerprint(g: Graph) -> frozenset:
    """All m-separated triples (a, b, conditioning set), a < b by name."""
    cap = DEFAULT_FINGERPRINT_NODE_CAP
    if len(g.nodes) > cap:
        raise errors.SizeCapExceededError(
            f"{len(g.nodes)} nodes exceeds the fingerprint cap of {cap}",
            cap="fingerprint_nodes", limit=cap, required=len(g.nodes),
        )
    out = set()
    names = sorted(g.nodes)
    for a, b in itertools.combinations(names, 2):
        if g.adjacent(a, b):
            continue  # no set separates an edge's endpoints
        rest = [n for n in names if n not in (a, b)]
        for r in range(len(rest) + 1):
            for z in itertools.combinations(rest, r):
                if _open_walk(g, frozenset([a]), frozenset([b]), frozenset(z)) is None:
                    out.add((a, b, frozenset(z)))
    return frozenset(out)


def _skeleton(g: Graph) -> frozenset:
    return frozenset((e.a, e.b) for e in g.edges)


def _equivalence_key(g: Graph):
    """Equal for two DAGs, or two MAGs, iff they are Markov equivalent: skeleton
    and unshielded colliders for DAGs, the separation fingerprint for MAGs."""
    if g.graph_class is GraphClass.DAG:
        return _skeleton(g), unshielded_colliders(g)
    return separation_fingerprint(g)


def markov_equivalent(g1: Graph, g2: Graph) -> bool:
    """Whether two DAGs (or two MAGs) encode identical m-separations."""
    if set(g1.nodes) != set(g2.nodes):
        raise errors.NodeSetMismatchError("graphs are over different node sets")
    if g1.graph_class is not g2.graph_class or g1.graph_class not in _SEARCHES:
        raise errors.ClassMismatchError("markov_equivalent compares two DAGs or two MAGs")
    return _equivalence_key(g1) == _equivalence_key(g2)


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
        raise errors.NotEquivalentError("no members given")
    classes = {m.graph_class for m in members}
    if len(classes) > 1 or not classes <= _SEARCHES.keys():
        raise errors.ClassMismatchError("members must be all DAGs or all MAGs")
    skel = _skeleton(members[0])
    for m in members[1:]:
        if set(m.nodes) != set(members[0].nodes):
            raise errors.NodeSetMismatchError("members are over different node sets")
        if _skeleton(m) != skel:
            raise errors.SkeletonMismatchError("members differ in skeleton")
    if len({_equivalence_key(m) for m in members}) > 1:
        raise errors.NotEquivalentError("members are not Markov equivalent")
    return _mark_union(members, _SEARCHES[classes.pop()][0], members[0].nodes)


def _class_members(rep: Graph, member_class: GraphClass) -> tuple:
    """The members of the class `rep` represents, in candidate order.

    Every circle mark becomes a tail or an arrowhead, edges taken in
    declaration order, and an edge is kept when the member class allows
    its marks.  Candidates that keep the unshielded colliders of `rep`
    (invariant in a class, and arrowheaded in its union) and are ancestral
    are grouped by `_equivalence_key`.  The one group whose mark union is
    `rep` is the class; none, several, or a non-maximal group rejects `rep`.
    """
    rep_class, error, cap, limit, per_unit = _SEARCHES[member_class]
    edges = sorted(rep.edges, key=lambda e: (rep.node_index[e.a], rep.node_index[e.b]))
    required = sum((e.mark_a is Mark.CIRCLE) + (e.mark_b is Mark.CIRCLE) for e in edges) // per_unit
    if required > limit:
        raise errors.SizeCapExceededError(
            f"{required} {cap.replace('_', ' ')} exceeds the cap of {limit}",
            cap=cap, limit=limit, required=required,
        )
    allowed = _ALLOWED_MARKS[member_class]

    def choices(e):
        ends = [(Mark.TAIL, Mark.ARROW) if m is Mark.CIRCLE else (m,) for m in (e.mark_a, e.mark_b)]
        return [Edge(e.a, e.b, *marks) for marks in itertools.product(*ends) if marks in allowed]

    target_colliders = unshielded_colliders(rep)
    groups = {}  # equivalence key -> candidates, insertion ordered
    for combo in itertools.product(*map(choices, edges)):
        candidate = Graph(member_class, rep.nodes, frozenset(combo))
        if unshielded_colliders(candidate) != target_colliders:
            continue
        try:
            validate_ancestral(candidate)
        except (errors.DirectedCycleError, errors.AlmostDirectedCycleError):
            continue
        groups.setdefault(_equivalence_key(candidate), []).append(candidate)
    matching = [m for m in groups.values() if _mark_union(m, rep_class, rep.nodes) == rep]
    if not matching:
        raise getattr(errors, error)(
            f"no Markov equivalence class of {member_class.name}s has this mark union")
    if len(matching) > 1:
        raise getattr(errors, error)("mark union is ambiguous between fingerprint groups")
    members = matching[0]
    # equivalent graphs on one skeleton are all maximal or none, so one check covers the group
    try:
        require_maximal(members[0])
    except errors.NotMaximalError as exc:
        raise getattr(errors, error)(f"class members are not maximal: {exc}") from exc
    return tuple(members)


def enumerate_dags(c: Graph) -> EquivalenceClass:
    """All DAGs in the class of a CPDAG.

    Beyond the member search, every directed edge of a CPDAG is compelled,
    so it is covered (Pa(h) = Pa(t) + t) in no member: a covered edge can
    be reversed within the class (Chickering 1995).
    """
    if c.graph_class is GraphClass.DAG:
        return EquivalenceClass(c, (c,))
    if c.graph_class is not GraphClass.CPDAG:
        raise errors.ClassMismatchError("enumerate_dags expects a CPDAG")
    members = _class_members(c, GraphClass.DAG)
    compelled = c._steps[True, False]
    for m in members:
        pa = m._steps[True, True]  # the parents of each position, as a mask
        for t, heads in enumerate(compelled):
            while heads:
                h = (heads & -heads).bit_length() - 1
                heads &= heads - 1
                if pa[h] == pa[t] | 1 << t:
                    raise errors.InvalidCpdagError(
                        f"edge {c.nodes[t]} -> {c.nodes[h]} is reversible: covered in a member")
    return EquivalenceClass(c, members)


def enumerate_mags(p: Graph) -> EquivalenceClass:
    """All MAGs in the class of a PAG (no selection variables: no tail-tail edges)."""
    if p.graph_class is GraphClass.MAG:
        return EquivalenceClass(p, (p,))
    if p.graph_class is not GraphClass.PAG:
        raise errors.ClassMismatchError("enumerate_mags expects a PAG or MAG")
    return EquivalenceClass(p, _class_members(p, GraphClass.MAG))


def _class_of(g: Graph) -> EquivalenceClass:
    """The equivalence class of `g`: DAGs for a DAG or CPDAG, MAGs for a
    MAG or PAG, where a DAG or MAG is its own class."""
    if g.graph_class in (GraphClass.DAG, GraphClass.CPDAG):
        return enumerate_dags(g)
    return enumerate_mags(g)


def latent_project(d: Graph, observed) -> Graph:
    """Project a DAG onto `observed`, yielding the MAG that preserves the
    ancestral and m-separation relationships among the observed nodes.

    Two observed nodes are adjacent when no observed subset separates
    them in the DAG; the mark at A on an edge A-B is a tail exactly when
    A is an ancestor of B.
    """
    if d.graph_class is not GraphClass.DAG:
        raise errors.ClassMismatchError("latent_project expects a DAG")
    observed = _as_set(d, observed)
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
        raise errors.ClassMismatchError("canonical_dag expects a MAG")
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
        raise errors.ClassMismatchError(f"input is not ancestral: directed cycle {cycle}")
    return dag
