"""Certifying criterion decisions with an exact linear SEM oracle.

For linear SEMs the interventional effect and the covariate-adjusted
regression coefficient are both closed form, with no sampling noise.
With integer edge weights and noise variances both are exact rationals.
A set that satisfies the criterion makes them coincide, to the last
digit, in every member of the equivalence class; a set that fails
breaks in some member.  This demo reproduces both sides.
"""

from pathlib import Path

import covadjust as ca

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

g = ca.parse_document((CORPUS / "fig1a.cg").read_text()).graph

print("candidate Z = {Z, A} (satisfies the criterion):")
reports = ca.verify_adjustment(g, {"X"}, "Y", {"Z", "A"}, trials=20, seed=1)
print(f"  {len(reports)} member/trial comparisons,"
      f" worst |true - estimate| = {max(r.max_abs_gap for r in reports)}")

print("candidate Z = {} (fails: the treatment is confounded):")
reports = ca.verify_adjustment(g, {"X"}, "Y", set(), trials=20, seed=1)
worst = max(reports, key=lambda r: r.max_abs_gap)
print(f"  worst gap {worst.max_abs_gap} in member {worst.member}:"
      f" true {worst.true_effect[0]} vs estimate {worst.adjusted_estimate[0]}")

print("candidate Z = {I} (fails: a back-door path stays open):")
reports = ca.verify_adjustment(g, {"X"}, "Y", {"I"}, trials=20, seed=1)
print(f"  worst gap = {max(r.max_abs_gap for r in reports)}")

# The machinery underneath, on a three-node confounded triangle.
dag = ca.parse_graph("graph dag { C -> X C -> Y X -> Y }")
sem = ca.random_sem(dag, seed=42)
sigma = ca.covariance(sem)
idx = dag.node_index
true = ca.total_effect(sem, {"X"}, "Y")
naive = ca.adjusted_estimate(sigma, [idx["X"]], idx["Y"])
adjusted = ca.adjusted_estimate(sigma, [idx["X"]], idx["Y"], [idx["C"]])
print("\nconfounded triangle, one random SEM:")
print(f"  true effect          {true[0]}")
print(f"  naive regression     {naive[0]}   (biased)")
print(f"  adjusted for C       {adjusted[0]}   (exact)")
