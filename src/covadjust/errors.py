"""Exception types raised by the covadjust library, and the parser's
fault path.

Every failure mode has its own class so callers (and the CLI) can map
errors to diagnostics and exit codes without string matching.  Every
error pickles and copies with its message, `args` and attributes intact.

This module is deferred (see `covadjust/__init__.py`): the other modules
name an error as ``errors.X`` where they raise or catch it, and an
``except`` clause is read only while an exception is in flight, so the
code here runs on the first fault, or on the first read of one of its
names.  The fault path of `covadjust.cgtext` (`_Fault`, `_located`,
`_unexpected`, `_not_a_node`) lives here for the same reason: it runs
only on text that does not parse.
"""

import copyreg
import re
from itertools import islice

from .cgtext import _ONE_CHAR_TOKENS, _RESERVED, _TOKEN


class GraphError(Exception):
    """Base class for all covadjust errors."""

    def __reduce__(self):
        # Rebuilt from `args` and the attributes, without running
        # `__init__`: a subclass's constructor takes a cycle, a path or
        # keyword fields, not the message that `args` holds.
        return copyreg.__newobj__, (self.__class__, *self.args), self.__dict__


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


class _Fault(Exception):
    """A syntax error of .cg text at token `index`, not yet located in the
    text; `error` is the class to raise it as."""

    def __init__(self, index: int, message: str, expected: str | None = None, error=ParseError):
        self.index, self.message, self.expected, self.error = index, message, expected, error


def _located(text: str, tokens: list, fault: _Fault | None) -> GraphError | None:
    """The error to raise for `fault`, with its line and column: the first
    bad character of the text if it has one, else the fault itself."""
    for i, word in enumerate(tokens):
        if len(word) == 1 and word not in _ONE_CHAR_TOKENS:
            fault = _Fault(i, f"unexpected character {word!r}")
            break
    if fault is None:
        return None
    offset = next(islice(re.finditer(_TOKEN, text), fault.index, None)).start(1)
    line, col = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
    if fault.error is ParseError:
        return ParseError(fault.message, line, col, fault.expected)
    return fault.error(f"{line}:{col}: {fault.message}")


def _unexpected(tokens: list, i: int, expected: str) -> _Fault:
    word = tokens[i]
    return _Fault(i, f"unexpected {word!r}" if word else "unexpected end of input", expected)


def _not_a_node(tokens: list, i: int) -> _Fault:
    word = tokens[i]
    if word in _RESERVED:
        return _Fault(i, f"{word!r} is a reserved word", "a node name")
    return _unexpected(tokens, i, "a node name")
