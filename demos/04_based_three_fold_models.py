"""Three independent models of the based three-fold subset space.

Sub_3(X, x0), the subsets of size at most 3 containing the basepoint, is
computed three ways:

  1. quotient model: SP^2(X) with the class of (s, s) glued to (s, x0);
  2. cylinder chain model: the mapping cone of j - diag, chains of SP^2(X)
     plus a shifted copy of the reduced chains of X;
  3. coproduct model: pure algebra, dividing H_*(SP^2 X) by the image of
     (diag_* - j_*).

All three agree, and for the torus the image of the fundamental class is
a nonzero multiple of a generator, so the inclusion x -> {x, x0} is
essential even though it kills every primitive class.
"""

from finsub import (based_subset3, builtin_space, cylinder_chain_model,
                    homology, homology_of_sset, sub3_homology_via_coproduct)

for name in ("circle3", "sphere2", "torus"):
    spec = builtin_space(name)
    top = 2 * spec.dimension
    rows = {
        "quotient ": homology_of_sset(based_subset3(spec).space),
        "cylinder ": homology(cylinder_chain_model(spec)),
    }
    model = sub3_homology_via_coproduct(spec)
    print(f"Sub_3({name}, x0):")
    for label, h in rows.items():
        print(f"  {label} " + "  ".join(str(h.group(k)) for k in range(top + 1)))
    print("  coproduct " + "  ".join(str(g) for g in model.groups))

# degree-2 detail for the torus: primitive classes die, the fundamental
# class survives as -2 times the generator
model = sub3_homology_via_coproduct(builtin_space("torus"))
column = [row[0] for row in model.j_matrix[2]]
print("\ntorus fundamental class in H_2(SP^2 T) coordinates:", column)
print("coordinates in the quotient:",
      model.quotients[2].coords_of_cycle(0, dict(enumerate(column))))
print("is zero?", model.image_is_zero(2, "j", 0))
