"""covadjust: covariate adjustment sets in causal graphs.

Decides and enumerates adjustment sets in DAGs, CPDAGs, MAGs and PAGs
with a criterion that is both sound and complete, and certifies the
decisions at desk scale by enumerating Markov equivalence classes and
comparing against an exact linear structural equation oracle.
"""

from . import errors
from .cgtext import (
    GraphDocument,
    Query,
    parse_document,
    parse_graph,
    serialize_document,
    serialize_graph,
)
from .criteria import (
    AdjustmentQuery,
    AdjustmentVerdict,
    find_amenability_violation,
    forbidden_set,
    is_amenable,
    is_visible,
    list_adjustment_sets,
    satisfies_gac,
    satisfies_generalized_backdoor,
)
from .graphs import (
    Edge,
    Graph,
    GraphClass,
    Mark,
    ancestors,
    build_graph,
    children,
    descendants,
    parents,
    possible_ancestors,
    possible_descendants,
    validate_graph,
)
from .mec import (
    EquivalenceClass,
    canonical_dag,
    enumerate_dags,
    enumerate_mags,
    latent_project,
    markov_equivalent,
    separation_fingerprint,
    union_representative,
    unshielded_colliders,
)
from .paths import find_open_definite_path, m_connected
from .sem import (
    EffectReport,
    LinearSEM,
    adjusted_estimate,
    covariance,
    random_sem,
    total_effect,
    verify_adjustment,
)

__version__ = "0.1.0"

__all__ = [
    "AdjustmentQuery",
    "AdjustmentVerdict",
    "Edge",
    "EffectReport",
    "EquivalenceClass",
    "Graph",
    "GraphClass",
    "GraphDocument",
    "LinearSEM",
    "Mark",
    "Query",
    "adjusted_estimate",
    "ancestors",
    "build_graph",
    "canonical_dag",
    "children",
    "covariance",
    "descendants",
    "enumerate_dags",
    "enumerate_mags",
    "errors",
    "find_amenability_violation",
    "find_open_definite_path",
    "forbidden_set",
    "is_amenable",
    "is_visible",
    "latent_project",
    "list_adjustment_sets",
    "m_connected",
    "markov_equivalent",
    "parents",
    "parse_document",
    "parse_graph",
    "possible_ancestors",
    "possible_descendants",
    "random_sem",
    "satisfies_gac",
    "satisfies_generalized_backdoor",
    "separation_fingerprint",
    "serialize_document",
    "serialize_graph",
    "total_effect",
    "union_representative",
    "unshielded_colliders",
    "validate_graph",
    "verify_adjustment",
]
