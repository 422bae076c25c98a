"""Why some graphs admit no adjustment set at all.

A directed edge X -> Y in a MAG or PAG can stand for a purely causal
relation or for a causal relation mixed with latent confounding.  It is
"visible" when the surrounding structure rules the confounding out.
Adjustment requires every possibly causal path out of the treatment to
start with such an edge; this precondition is called amenability.
"""

from pathlib import Path

import covadjust as ca

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def load(name):
    return ca.parse_document((CORPUS / name).read_text()).graph


# Two configurations that make X -> Y visible.
for name in ("fig2-left.cg", "fig2-right.cg"):
    g = load(name)
    print(f"{name}: X -> Y visible: {ca.is_visible(g, 'X', 'Y')}")

# The same edge can be visible in one member of an equivalence class and
# invisible in another.
pag = load("fig3a.cg")
mag1 = load("fig3b.cg")
mag2 = load("fig3c.cg")

print("\nPAG amenable for (X, Y):", ca.is_amenable(pag, {"X"}, {"Y"}))
print("  violating path:", ca.find_amenability_violation(pag, {"X"}, {"Y"}))
print("member MAG #1 amenable:", ca.is_amenable(mag1, {"X"}, {"Y"}),
      " (X -> Y visible:", str(ca.is_visible(mag1, "X", "Y")) + ")")
print("member MAG #2 amenable:", ca.is_amenable(mag2, {"X"}, {"Y"}),
      " (X -> Y visible:", str(ca.is_visible(mag2, "X", "Y")) + ")")

# In the amenable member the empty set already works.
verdict = ca.satisfies_gac(ca.AdjustmentQuery(mag2, frozenset({"X"}), frozenset({"Y"})))
print("empty set adjusts in member #2:", verdict.passed)

# Interpretation matters: the same edges read as a DAG are amenable,
# because DAG edges carry no latent-confounding ambiguity.
as_dag = ca.build_graph(ca.GraphClass.DAG, mag1.nodes, mag1.edges)
print("\nmember #1 reinterpreted as a DAG is amenable:",
      ca.is_amenable(as_dag, {"X"}, {"Y"}))

# Amenability alone does not guarantee a set exists: this PAG is amenable
# but blocking one open path forces a forbidden node onto another.
g4b = load("fig4b.cg")
print("\namenable PAG with no adjustment set:",
      ca.is_amenable(g4b, {"X"}, {"Y"}),
      "->", ca.list_adjustment_sets(g4b, {"X"}, {"Y"}))
