"""Exception types raised by the covadjust library.

Every failure mode has its own class so callers (and the CLI) can map
errors to diagnostics and exit codes without string matching.
"""


class GraphError(Exception):
    """Base class for all covadjust errors."""


class DuplicateEdgeError(GraphError):
    """More than one edge declared between the same pair of nodes."""


class UnknownNodeError(GraphError):
    """A node name that is not declared in the graph."""


class MarkNotAllowedError(GraphError):
    """An edge mark combination outside the vocabulary of the graph class."""


class DirectedCycleError(GraphError):
    """A directed cycle in a class that must be acyclic."""

    def __init__(self, cycle):
        self.cycle = tuple(cycle)
        super().__init__(f"directed cycle: {' -> '.join(self.cycle)}")


class AlmostDirectedCycleError(GraphError):
    """A directed path from A to B together with an edge B <-> A."""

    def __init__(self, path):
        self.path = tuple(path)
        super().__init__(
            f"almost directed cycle: {' -> '.join(self.path)} with {self.path[-1]} <-> {self.path[0]}"
        )


class NotMaximalError(GraphError):
    """An ancestral graph with a non-adjacent pair that cannot be m-separated."""

    def __init__(self, pair):
        self.pair = tuple(pair)
        super().__init__(f"nodes {self.pair[0]} and {self.pair[1]} are non-adjacent but inseparable")


class InvalidCpdagError(GraphError):
    """Input does not describe a Markov equivalence class of DAGs."""


class InvalidPagError(GraphError):
    """Input does not describe a Markov equivalence class of MAGs."""


class ClassMismatchError(GraphError):
    """Operation applied to a graph class it is not defined for."""


class SizeCapExceededError(GraphError):
    """Input exceeds a configured enumeration cap; refusing rather than stalling.

    `cap` names the cap, `limit` is its value and `required` what the
    input needs.
    """

    def __init__(self, message, *, cap, limit, required):
        self.cap = cap
        self.limit = limit
        self.required = required
        super().__init__(message)


class NoPathWitnessError(GraphError):
    """The shortest open walk from X to Y revisits a node, so it is no path."""

    def __init__(self, walk):
        self.walk = tuple(walk)
        super().__init__(f"the shortest open walk {' '.join(self.walk)} revisits a node")


class NotAmenableError(GraphError):
    """The graph is not adjustment amenable for (X, Y), so no set adjusts."""

    def __init__(self, witness):
        self.witness = tuple(witness)
        super().__init__(
            f"not adjustment amenable: possibly directed path {' '.join(self.witness)}"
            " does not start with a visible edge"
        )


class SetsNotDisjointError(GraphError):
    """Node sets that must be pairwise disjoint overlap."""


class EmptyXOrYError(GraphError):
    """X and Y must both be non-empty."""


class NodeSetMismatchError(GraphError):
    """Two graphs compared over different node sets."""


class SkeletonMismatchError(GraphError):
    """Members of a purported equivalence class differ in skeleton."""


class NotEquivalentError(GraphError):
    """Members of a purported equivalence class are not Markov equivalent."""


class NotDirectedEdgeError(GraphError):
    """Visibility queried for an edge that is not directed."""


class SingularDesignError(GraphError):
    """Regression design submatrix is singular."""


class ParseError(GraphError):
    """Syntax error in the .cg text format, with source position."""

    def __init__(self, message, line, col, expected=None):
        self.line = line
        self.col = col
        self.expected = expected
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{suffix}")
