"""Integer linear algebra of the SEM oracle in `covadjust.sem`.

`sem` imports this module inside the functions that compute, so
importing the package, and every command but `verify`, does not load it.
Matrices are sequences of integer rows indexed by node position; a
weight matrix B holds at B[i][j] the weight of the edge i -> j.  The
path sums take B as each position's (child, weight) pairs and an order of
the positions that puts every child before its parents; `sem` takes that
order from the graph (`Graph._sinks_first`), not from the weights.
"""

from operator import mul


def effects_on(kids, order, target, cut=()):
    """Column `target` of (I - B)^-1 with the edges into `cut` severed: the
    total effect of every position on `target`, the sum over directed
    paths of the products of their weights, filled in from the sinks up."""
    effect = [0] * len(kids)
    effect[target] = 1
    for k in order:
        if kids[k] and k != target:
            effect[k] = sum([w * effect[j] for j, w in kids[k] if j not in cut])
    return effect


def covariance(kids, order, noise, targets):
    """Entries (a, b) over `targets` of (I - B)^-T diag(noise) (I - B)^-1:
    the sum over k of noise[k] times the effects of k on a and on b."""
    columns = [effects_on(kids, order, a) for a in targets]
    return tuple(tuple(sum(map(mul, weighted, cb)) for cb in columns)
                 for weighted in [list(map(mul, noise, ca)) for ca in columns])


def solve(rows):
    """Solve the augmented system `rows` (k rows of k + 1 integers) by
    fraction-free Gauss-Jordan elimination (Bareiss): every division is
    exact and every entry stays an integer, and the system ends as
    d * I | d * beta for the determinant d (up to sign) of its k x k part.
    Works on `rows` (a list of lists) in place.  Returns (d * beta, d), or
    None if that part is singular."""
    k = len(rows)
    prev = 1
    for c in range(k):
        p = next((r for r in range(c, k) if rows[r][c]), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        pivot_row = rows[c]
        pivot = pivot_row[c]
        for r in range(k):
            if r != c:
                f = rows[r][c]
                rows[r] = [(pivot * v - f * u) // prev for v, u in zip(rows[r], pivot_row)]
        prev = pivot
    return [row[k] for row in rows], prev
