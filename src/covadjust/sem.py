"""Linear-Gaussian structural equation oracle.

A linear SEM over a DAG fixes, for every consistent Gaussian density,
both the interventional total effect of X on Y (a sum of edge-coefficient
products over directed paths, read off a matrix inverse after severing
the edges into X) and the covariate-adjusted regression estimate (the X
coefficients when regressing Y on X and Z).  A set Z is an adjustment
set exactly when the two coincide for every density consistent with the
graph, so comparing them across all members of an equivalence class
certifies criterion decisions numerically.

Covariances are closed form; there is no sampling noise anywhere.

numpy is imported inside the functions that compute, so importing the
package (and every CLI command but `verify`) does not load it.
"""

from __future__ import annotations

from .criteria import find_amenability_violation
from .errors import (
    ClassMismatchError,
    NotAmenableError,
    SetsNotDisjointError,
    SingularDesignError,
)
from .graphs import Graph, GraphClass, Mark, _disjoint_sets, _Record, _set
from .mec import canonical_dag, enumerate_dags, enumerate_mags

TYPE_CHECKING = False  # true only to type checkers, which then see numpy
if TYPE_CHECKING:
    import numpy as np

SOUNDNESS_TOL = 1e-8
COMPLETENESS_GAP = 1e-3


class LinearSEM(_Record):
    """Coefficient matrix over a DAG plus independent noise variances.

    `coeffs[i, j]` is the weight of the edge nodes[i] -> nodes[j] and must
    be zero off the edge set; `noise_var` is positive.
    """

    __slots__ = _fields = ("graph", "coeffs", "noise_var")

    def __init__(self, graph: Graph, coeffs: np.ndarray, noise_var: np.ndarray):
        import numpy as np

        if graph.graph_class is not GraphClass.DAG:
            raise ClassMismatchError("a linear SEM needs a DAG")
        n = len(graph.nodes)
        coeffs = np.asarray(coeffs, dtype=float)
        noise = np.asarray(noise_var, dtype=float)
        if coeffs.shape != (n, n) or noise.shape != (n,):
            raise ValueError("coefficient or noise shape does not match the graph")
        allowed = np.zeros((n, n), dtype=bool)
        idx = graph.node_index
        for e in graph.edges:
            if e.mark_a is Mark.TAIL:
                allowed[idx[e.a], idx[e.b]] = True
            else:
                allowed[idx[e.b], idx[e.a]] = True
        if np.any(coeffs[~allowed] != 0.0):
            raise ValueError("nonzero coefficient off the DAG edge set")
        if np.any(noise <= 0.0):
            raise ValueError("noise variances must be positive")
        coeffs.flags.writeable = False
        noise.flags.writeable = False
        _set(self, "graph", graph)
        _set(self, "coeffs", coeffs)
        _set(self, "noise_var", noise)

    def index(self, node) -> int:
        return self.graph.node_index[node]


class EffectReport(_Record):
    """Outcome of one member/trial comparison for `verify_adjustment`."""

    __slots__ = _fields = (
        "z_set", "member", "trial", "true_effect", "adjusted_estimate", "max_abs_gap"
    )

    def __init__(self, z_set: frozenset, member: int, trial: int, true_effect: tuple,
                 adjusted_estimate: tuple, max_abs_gap: float):
        _set(self, "z_set", z_set)
        _set(self, "member", member)
        _set(self, "trial", trial)
        _set(self, "true_effect", true_effect)
        _set(self, "adjusted_estimate", adjusted_estimate)
        _set(self, "max_abs_gap", max_abs_gap)


def random_sem(dag: Graph, seed: int) -> LinearSEM:
    """Seed-deterministic SEM: edge weights uniform on
    [-1.5, -0.1] u [0.1, 1.5], noise variances uniform on [0.5, 1.5]."""
    if dag.graph_class is not GraphClass.DAG:
        raise ClassMismatchError("random_sem needs a DAG")
    import numpy as np

    rng = np.random.default_rng(seed)
    n = len(dag.nodes)
    idx = dag.node_index
    coeffs = np.zeros((n, n))
    for e in sorted(dag.edges, key=lambda e: (idx[e.a], idx[e.b])):
        tail = e.tail_node()
        head = e.other(tail)
        magnitude = rng.uniform(0.1, 1.5)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        coeffs[idx[tail], idx[head]] = sign * magnitude
    noise = rng.uniform(0.5, 1.5, size=n)
    return LinearSEM(dag, coeffs, noise)


def covariance(sem: LinearSEM) -> np.ndarray:
    """Implied covariance (I - B)^-T Omega (I - B)^-1; symmetric positive
    definite for every SEM on a DAG."""
    import numpy as np

    n = len(sem.graph.nodes)
    a = np.eye(n) - sem.coeffs
    a_inv = np.linalg.inv(a)  # unit determinant on a DAG, never singular
    return a_inv.T @ np.diag(sem.noise_var) @ a_inv


def total_effect(sem: LinearSEM, x, y) -> np.ndarray:
    """Interventional effect of each node of `x` (declaration order) on `y`:
    sever all edges into `x`, then read the (x_i, y) entries of (I - B)^-1."""
    g = sem.graph
    x, _, _ = _disjoint_sets(g, x, y)
    import numpy as np

    n = len(g.nodes)
    cut = np.array(sem.coeffs)
    for node in x:
        cut[:, sem.index(node)] = 0.0
    totals = np.linalg.inv(np.eye(n) - cut)
    return np.array([totals[sem.index(v), sem.index(y)] for v in g.sort_nodes(x)])


def adjusted_estimate(sigma: np.ndarray, x_idx, y_idx: int, z_idx=()) -> np.ndarray:
    """Coefficients on the `x` coordinates when regressing `y` on `x` and `z`
    under the covariance `sigma` (indices into its order)."""
    import numpy as np

    x_idx = list(x_idx)
    z_idx = list(z_idx)
    w = x_idx + z_idx
    if len(set(w + [y_idx])) != len(w) + 1:
        raise SetsNotDisjointError("regression indices overlap")
    sigma = np.asarray(sigma, dtype=float)
    try:
        beta = np.linalg.solve(sigma[np.ix_(w, w)], sigma[w, y_idx])
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError(str(exc)) from exc
    return beta[: len(x_idx)]


def _member_substrates(g: Graph):
    """Member graphs of [g] paired with the DAGs the SEMs live on."""
    if g.graph_class is GraphClass.DAG:
        members = [g]
    elif g.graph_class is GraphClass.CPDAG:
        members = list(enumerate_dags(g).members)
    elif g.graph_class is GraphClass.MAG:
        members = [g]
    else:
        members = list(enumerate_mags(g).members)
    out = []
    for m in members:
        out.append((m, m if m.graph_class is GraphClass.DAG else canonical_dag(m)))
    return out


def verify_adjustment(g: Graph, x, y, z, trials: int = 20, seed: int = 0):
    """Compare true total effects against Z-adjusted regression estimates
    on `trials` random SEMs for every member of the class of `g`.

    Returns one `EffectReport` per (member, trial), in that order.  If Z
    satisfies the generalized adjustment criterion, every gap is tiny
    (soundness); if it fails, some member and trial exhibits a clear gap
    (completeness, up to reseeding flukes).

    Raises `NotAmenableError` with the amenability violation when the
    graph is not adjustment amenable for (x, y): no set is an adjustment
    set then, yet the SEMs on the members' canonical DAGs carry no latent
    confounder behind an invisible edge and could not show it.  Raises
    `ValueError` unless `trials` is at least 1: no trial certifies nothing.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    x, ys, z = _disjoint_sets(g, x, y, z)
    (y,) = ys
    violation = find_amenability_violation(g, x, ys)
    if violation is not None:
        raise NotAmenableError(violation)
    import numpy as np

    reports = []
    for m_idx, (_, substrate) in enumerate(_member_substrates(g)):
        x_pos = [substrate.node_index[v] for v in substrate.sort_nodes(x)]
        y_pos = substrate.node_index[y]
        z_pos = [substrate.node_index[v] for v in substrate.sort_nodes(z)]
        for trial in range(trials):
            child = np.random.SeedSequence(entropy=seed, spawn_key=(m_idx, trial))
            sem = random_sem(substrate, int(child.generate_state(1)[0]))
            true = total_effect(sem, x, y)
            est = adjusted_estimate(covariance(sem), x_pos, y_pos, z_pos)
            gap = float(np.max(np.abs(true - est))) if len(true) else 0.0
            reports.append(
                EffectReport(frozenset(z), m_idx, trial, tuple(true), tuple(est), gap)
            )
    return reports
