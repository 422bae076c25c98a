"""Linear structural equation oracle in exact integer arithmetic.

A linear SEM over a DAG fixes both the interventional total effect of X
on Y (a sum of edge-weight products over the directed paths that avoid
the other X nodes) and the covariate-adjusted regression estimate (the X
coefficients when regressing Y on X and Z).  A set Z is an adjustment
set exactly when the two coincide for every model consistent with the
graph, so comparing them across all members of an equivalence class
certifies criterion decisions.

Everything is exact.  Edge weights and noise variances are integers, so
on a DAG (I - B)^-1 is an integer matrix, the implied covariance is an
integer matrix, and a total effect is an integer path sum; the
regression is solved by fraction-free Gauss-Jordan elimination over the
integers, and only its answer becomes a `fractions.Fraction`.  A gap
between effect and estimate is 0 or it is not: there is no tolerance
and no sampling noise anywhere.

The integer algebra lives in `covadjust._exact`; its path sums fill in
from the sinks up, in the order the graph gives (`Graph._sinks_first`),
so a graph with a directed cycle is refused whatever its weights.  It,
`fractions` and `random` are imported inside the functions that need
them, so importing the package (and every CLI command but `verify`)
loads none of them.
"""

from __future__ import annotations

from itertools import chain

from .criteria import find_amenability_violation
from .errors import (
    ClassMismatchError,
    DirectedCycleError,
    GraphError,
    NotAmenableError,
    SetsNotDisjointError,
    SingularDesignError,
)
from .graphs import (
    Graph,
    GraphClass,
    Mark,
    _disjoint_sets,
    _find_directed_cycle,
    _Record,
    _set,
)
from .mec import _class_of, canonical_dag

WEIGHTS = (-3, -2, -1, 1, 2, 3)
NOISE_VARIANCES = (1, 2, 3)


class LinearSEM(_Record):
    """Integer edge weights over a DAG plus independent noise variances.

    `coeffs[i][j]` is the weight of the edge nodes[i] -> nodes[j] and must
    be zero off the edge set; `noise_var[i]` is the noise variance of
    nodes[i] and must be positive.  Both hold `int`s only, as tuples.
    Each row's (child, weight) pairs sit outside `_fields`, so equality,
    hashing, repr and pickling skip them.
    """

    _fields = ("graph", "coeffs", "noise_var")
    __slots__ = (*_fields, "_weights")

    def __init__(self, graph: Graph, coeffs, noise_var):
        if graph.graph_class is not GraphClass.DAG:
            raise ClassMismatchError("a linear SEM needs a DAG")
        nodes = graph.nodes
        coeffs = tuple(map(tuple, coeffs))
        noise = tuple(noise_var)
        n = len(nodes)
        if len(coeffs) != n or len(noise) != n or any(len(row) != n for row in coeffs):
            raise ValueError("coefficient or noise shape does not match the graph")
        if not set(map(type, chain(noise, *coeffs))) <= {int}:
            raise TypeError("edge weights and noise variances must be integers")
        marks = graph._marks
        weights = [[(j, c) for j, c in enumerate(row) if c] for row in coeffs]
        for v, pairs in zip(nodes, weights):
            out = marks[v]
            for j, _ in pairs:
                if out.get(nodes[j]) is not Mark.TAIL:
                    raise ValueError("nonzero coefficient off the DAG edge set")
        if noise and min(noise) <= 0:
            raise ValueError("noise variances must be positive")
        _set(self, "graph", graph)
        _set(self, "coeffs", coeffs)
        _set(self, "noise_var", noise)
        _set(self, "_weights", weights)

    def index(self, node) -> int:
        return self.graph.node_index[node]


class EffectReport(_Record):
    """Outcome of one member/trial comparison for `verify_adjustment`:
    integer true effects, `Fraction` estimates and their largest gap."""

    __slots__ = _fields = (
        "z_set", "member", "trial", "true_effect", "adjusted_estimate", "max_abs_gap"
    )

    def __init__(self, z_set: frozenset, member: int, trial: int, true_effect: tuple,
                 adjusted_estimate: tuple, max_abs_gap):
        _set(self, "z_set", z_set)
        _set(self, "member", member)
        _set(self, "trial", trial)
        _set(self, "true_effect", true_effect)
        _set(self, "adjusted_estimate", adjusted_estimate)
        _set(self, "max_abs_gap", max_abs_gap)


def random_sem(dag: Graph, seed) -> LinearSEM:
    """Seed-deterministic SEM: each edge weight uniform on {±1, ±2, ±3},
    each noise variance uniform on {1, 2, 3}.

    `seed` (an int or a str) seeds a `random.Random`, so the draw is the
    same in every process.  Weights are drawn node by node in declaration
    order, each node's children in declaration order, then the noise
    variances in declaration order.
    """
    if dag.graph_class is not GraphClass.DAG:
        raise ClassMismatchError("random_sem needs a DAG")
    import random

    rng = random.Random(seed)
    index, marks = dag.node_index, dag._marks
    n = len(dag.nodes)
    edges = [(i, index[w]) for i, v in enumerate(dag.nodes)
             for w in dag._ordered_neighbors[v] if marks[v][w] is Mark.TAIL]
    coeffs = [[0] * n for _ in range(n)]
    for (i, j), b in zip(edges, rng.choices(WEIGHTS, k=len(edges))):
        coeffs[i][j] = b
    return LinearSEM(dag, coeffs, rng.choices(NOISE_VARIANCES, k=n))


def _weights_sinks_first(sem: LinearSEM):
    """Each position's (child, weight) pairs over the nonzero weights of
    `sem`, and the positions in the graph's order `Graph._sinks_first`, which
    puts every child before its parents.  Raises `DirectedCycleError` if
    the graph has a directed cycle, which only a graph built without
    `validate_graph` can hold, whatever the weights on it."""
    g = sem.graph
    order = g._sinks_first
    if len(order) < len(g.nodes):
        raise DirectedCycleError(_find_directed_cycle(g))
    return sem._weights, order


def _single_y(y) -> tuple:
    """`y`, one name or a collection of one name, as a tuple of its names;
    raises `GraphError` if it holds more than one, repeats included."""
    names = (y,) if isinstance(y, str) else tuple(y)
    if len(names) > 1:
        raise GraphError("verify needs a single Y node")
    return names


def covariance(sem: LinearSEM, nodes=None) -> tuple:
    """Implied covariance (I - B)^-T Omega (I - B)^-1 between `nodes` (in
    the order given; every node in declaration order by default), as a
    tuple of integer rows.  Only the columns of (I - B)^-1 that belong to
    `nodes` are built."""
    g = sem.graph
    if nodes is None:
        targets = range(len(g.nodes))
    else:
        g._require(*nodes)
        targets = [g.node_index[v] for v in nodes]
    from . import _exact

    return _exact.covariance(*_weights_sinks_first(sem), sem.noise_var, targets)


def total_effect(sem: LinearSEM, x, y) -> tuple:
    """Interventional effect of each node of `x` (declaration order) on `y`,
    one node or a collection of one, as integers: with every edge into `x`
    severed, the sum over directed paths to `y` of the products of their
    weights."""
    g = sem.graph
    x, (y,), _ = _disjoint_sets(g, x, _single_y(y))
    index = g.node_index
    from . import _exact

    effect = _exact.effects_on(*_weights_sinks_first(sem), index[y], {index[v] for v in x})
    return tuple(effect[index[v]] for v in g.sort_nodes(x))


def adjusted_estimate(sigma, x_idx, y_idx: int, z_idx=()) -> tuple:
    """Coefficients on the `x` coordinates, as `Fraction`s, when regressing
    `y` on `x` and `z` under the integer covariance `sigma` (indices into
    its order).

    The normal equations are solved over the integers by fraction-free
    Gauss-Jordan elimination (`_exact.solve`); only the answer becomes
    `Fraction`s.  Raises `SingularDesignError` when the covariance of `x`
    and `z` is singular.
    """
    x_idx = list(x_idx)
    w = x_idx + list(z_idx)
    if len(set(w + [y_idx])) != len(w) + 1:
        raise SetsNotDisjointError("regression indices overlap")
    rows = [[sigma[a][b] for b in w] + [sigma[a][y_idx]] for a in w]
    if not set(map(type, chain(*rows))) <= {int}:
        raise TypeError("adjusted_estimate solves over integer covariances only")
    from fractions import Fraction

    from . import _exact

    solved = _exact.solve(rows)
    if solved is None:
        raise SingularDesignError("the design covariance is singular")
    numerators, d = solved
    return tuple(Fraction(v, d) for v in numerators[: len(x_idx)])


def _member_substrates(g: Graph) -> list:
    """The DAGs the SEMs live on, one per member of [g]: the member itself
    or, for a MAG, its canonical DAG."""
    return [m if m.graph_class is GraphClass.DAG else canonical_dag(m)
            for m in _class_of(g).members]


def trial_seed(seed: int, member: int, trial: int) -> str:
    """The `random_sem` seed of one (member, trial) of `verify_adjustment`."""
    return f"{seed}/{member}/{trial}"


def verify_adjustment(g: Graph, x, y, z, trials: int = 20, seed: int = 0):
    """Compare true total effects against Z-adjusted regression estimates
    on `trials` random SEMs for every member of the class of `g`.  `y` is
    one node or a collection of one.

    Returns one `EffectReport` per (member, trial), in that order; the SEM
    of each is `random_sem(substrate, trial_seed(seed, member, trial))`.
    If Z satisfies the generalized adjustment criterion, every gap is
    exactly 0 (soundness).  If it fails, some member and trial shows a
    nonzero gap (completeness), unless the small integer weights happen
    to cancel in every trial; the tests look for such a cancellation on
    the corpus and on seeded graphs of all four classes and find none.

    Raises `NotAmenableError` with the amenability violation when the
    graph is not adjustment amenable for (x, y): no set is an adjustment
    set then, yet the SEMs on the members' canonical DAGs carry no latent
    confounder behind an invisible edge and could not show it.  Raises
    `ValueError` unless `trials` is at least 1: no trial certifies nothing,
    and `GraphError` if `y` holds more than one node.
    """
    y = _single_y(y)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    x, ys, z = _disjoint_sets(g, x, y, z)
    (y,) = ys
    violation = find_amenability_violation(g, x, ys)
    if violation is not None:
        raise NotAmenableError(violation)
    reports = []
    for m_idx, substrate in enumerate(_member_substrates(g)):
        # the covariance is needed between X, Z and Y only, in that order
        x_nodes = substrate.sort_nodes(x)
        z_nodes = substrate.sort_nodes(z)
        variables = (*x_nodes, *z_nodes, y)
        x_pos = range(len(x_nodes))
        z_pos = range(len(x_nodes), len(x_nodes) + len(z_nodes))
        y_pos = len(variables) - 1
        for trial in range(trials):
            sem = random_sem(substrate, trial_seed(seed, m_idx, trial))
            true = total_effect(sem, x, y)
            est = adjusted_estimate(covariance(sem, variables), x_pos, y_pos, z_pos)
            gap = max(abs(t - e) for t, e in zip(true, est))
            reports.append(EffectReport(z, m_idx, trial, true, est, gap))
    return reports
