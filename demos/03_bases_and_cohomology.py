"""Walkthrough: graded canonical-form bases and Aomoto cohomology.

Extends the pentagon arrangement by the line at infinity (six lines,
rank 3), builds a flag of general truncations, extracts a canonical-form
basis in every reduced degree, multiplies two basis elements back into
basis coordinates, and ends with the bounded-tope cohomology basis.
"""

from omcanon import (OrientedMatroid, RationalMatrix, algebra_of, aomoto,
                     build_flag, expand_in_basis, graded_basis,
                     sample_weight_vectors, simplex_identity_check,
                     bounded_extension, chirotope_from_matrix,
                     structure_constants)

mat = RationalMatrix.from_rows((0, 1, 2, 3, 4, 5), [
    [0, 1, 0, -1, 0, -1],
    [0, 0, 1, 0, -1, -1],
    [1, 1, 1, 1, 1, 1],
])
om = OrientedMatroid(chirotope_from_matrix(mat))
alg = algebra_of(om)

print("== pentagon plus the line at infinity ==")
print(f"rank {om.rank}, ground {om.ground}, {len(om.topes)} topes")
print("reduced dimensions by degree:",
      [alg.reduced_dim(k) for k in range(om.rank)])

flag = build_flag(om)
print("\nflag of general truncations, ranks:",
      [stage.om.rank for stage in flag.stages])

for k in range(1, om.rank + 1):
    pairs = graded_basis(flag, k)
    print(f"\nlevel {k}: {len(pairs)} bounded topes span degree {om.rank - k}")
    for tope, form in pairs[: min(3, len(pairs))]:
        print(f"  {tope}  ->  {form}")
    if len(pairs) > 3:
        print(f"  ... and {len(pairs) - 3} more")

print("\nstructure constants: products of two degree-1 basis forms,")
print("expanded in the degree-2 basis (always integers):")
deg1 = graded_basis(flag, 2)
deg2 = graded_basis(flag, 1)
for i in range(2):
    for j in range(i + 1, 3):
        coords = structure_constants(deg1, deg2, i, j)
        print(f"  b{i} ^ b{j} = {[str(c) for c in coords]}")

print("\nsimplex expansion identity on one basis:")
ext = bounded_extension(om, 0)
result = simplex_identity_check(ext, (0, 1, 2))
print(f"  basis (0,1,2): both sides equal -> {result['passed']}; "
      f"{len(result['topes'])} topes contribute")

print("\nAomoto cohomology at the base element 0:")
t0 = om.bounded_topes(0)
print(f"  bounded topes: {len(t0)},  beta invariant: {om.underlying.beta()}")
for weights in sample_weight_vectors(om, 0, seed=0):
    report = aomoto(om, weights, base=0)
    shown = {e: str(w) for e, w in sorted(report.weights.items())}
    print(f"  weights {shown}: dim_H = {report.dim_h}, "
          f"generic = {report.is_generic}")
    if report.is_generic:
        print("  cohomology basis (classes of the bounded-tope forms):")
        for form in report.basis_forms:
            print(f"    {form}")
        break
