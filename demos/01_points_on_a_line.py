"""Walkthrough: four points on a projective line (rank 2).

Builds the oriented matroid of points z0 = infinity < z1 < z2 < z3, lists
its topes and bounded topes, computes the canonical form of every chamber,
and finishes with the weighted top-degree cohomology, including how a bad
weight choice degenerates.
"""

from itertools import combinations

from omcanon import (Chirotope, OrientedMatroid, SignVector, algebra_of,
                     aomoto, bounded_extension, canonical_form_tope,
                     check_residue_axioms, nonreduced_canonical_form,
                     tq_basis)

ground = (0, 1, 2, 3)
chi = Chirotope.from_map(ground, 2, {k: 1 for k in combinations(ground, 2)})
om = OrientedMatroid(chi)
alg = algebra_of(om)

print("== oriented matroid of 4 points on a line ==")
print(f"rank {om.rank}, ground {om.ground}")
print(f"{len(om.circuits)} signed circuits, {len(om.cocircuits)} signed "
      f"cocircuits, {len(om.topes)} topes")

print("\ntopes with sign + at the point at infinity:")
chambers = [t for t in om.sorted_topes() if t.value(0) == 1]
for t in chambers:
    print(f"  {t}")

print("\ncanonical form of each chamber (reduced, grade 1):")
for t in chambers:
    print(f"  {t}  ->  {canonical_form_tope(om, t)}")

print("\nnon-reduced (top-grade) form of the chamber (+,+,-,-):")
p1 = SignVector(ground, (1, 1, -1, -1))
print(f"  {nonreduced_canonical_form(om, p1)}")

print("\nresidue recursion check for that chamber (atom -> ok):")
print(f"  {check_residue_axioms(om, p1)}")

print("\nbounded topes with respect to the point at infinity:")
for t in sorted(om.bounded_topes(0), key=SignVector.sort_key):
    print(f"  {t}")

ext = bounded_extension(om, 0)
print(f"\na general perturbation of element 0: signature {ext.signature}")
print("topes bounded for the perturbation (their forms are a basis):")
for tope, form in tq_basis(ext):
    print(f"  {tope}  ->  {form}")

print("\nweighted cohomology in top degree (weights on elements 1,2,3):")
for weights in ({1: 1, 2: 1, 3: 1}, {1: 1, 2: 1, 3: -2}):
    report = aomoto(om, weights, base=0)
    print(f"  weights {weights}: dim_H = {report.dim_h}, "
          f"beta = {report.beta}, generic = {report.is_generic}")
print("  (the weights degenerate exactly when they sum to zero)")
