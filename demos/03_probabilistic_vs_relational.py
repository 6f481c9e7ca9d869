"""Probabilistic versus relational semantics, and where they part ways.

The same syntax evaluates over both kinds of teams.  Probabilistic truth
always implies relational truth on the support, and for dependence-only
formulas the two coincide.  For conditional independence the semantics
genuinely differ, witnessed by two small teams.
"""

from teamlogic import CondProbQuery, cond_prob, eval_prob, eval_rel
from teamlogic.datasets import load_bundled
from teamlogic.entailment import PHI1, PSI1, PHI2, PSI2, find_rel_counterexample

pt1 = load_bundled("pt1")
rt2 = load_bundled("rt2")

print("pt1: a probabilistic team over x, y, z, w")
for row in pt1.team.rows:
    print("  ", row, " weight", pt1.weight(row))

print("\nP(z=0 | x=0, y=0) =",
      cond_prob(pt1, CondProbQuery(("z",), (0,), ("x", "y"), (0, 0))))

# psi1 entails phi1 relationally but NOT probabilistically: pt1 satisfies
# the three premises yet violates the conclusion.
print("\npsi1 =", PSI1)
print("phi1 =", PHI1)
print("pt1 |= psi1 (probabilistic):", eval_prob(pt1, PSI1))
print("pt1 |= phi1 (probabilistic):", eval_prob(pt1, PHI1))
print("support |= phi1 (relational):", eval_rel(pt1.support(), PHI1))

none = find_rel_counterexample(PSI1, PHI1, ("x", "y", "z", "w"),
                               universe_size=2, max_rows=7)
print("relational counterexample within universe 2, <= 7 rows:", none)

# The other direction: psi2, Studeny's (1992) premise, entails phi2
# probabilistically (a measure-theoretic fact cited from the literature),
# but rt2 breaks the relational version.
print("\npsi2 =", PSI2)
print("phi2 =", PHI2)
print("rt2 |= psi2 (relational):", eval_rel(rt2, PSI2))
print("rt2 |= phi2 (relational):", eval_rel(rt2, PHI2))
