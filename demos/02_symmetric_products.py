"""Symmetric products SP^n(X) and the maps that come with them.

SP^n(X) is the quotient of the n-fold levelwise product by coordinate
permutations.  The classical small cases all come out exactly: SP^2 of a
circle is a Moebius band, SP^2(S^2) is the complex projective plane, and
the diagonal S^2 -> SP^2(S^2) doubles the fundamental class.
"""

from finsub import (HomologyCoordinates, builtin_space, homology_of_sset,
                    induced_map, normalized_chains, symmetric_product)


def show(name, n):
    sp = symmetric_product(builtin_space(name), n)
    h = homology_of_sset(sp.space)
    print(f"SP^{n}({name}):  " + "  ".join(f"H_{g.degree}={g}" for g in h.groups))
    return sp


show("circle3", 2)        # Moebius band: homotopy equivalent to a circle
show("circle3", 3)        # still a circle, one level up
sp = show("sphere2", 2)   # the complex projective plane
show("wedge_circles2", 2) # a figure eight fattens up to torus homology
show("torus", 2)          # torsion-free, ranks 1,2,2,2,1

# induced maps on H_2 for the sphere: the diagonal multiplies by two,
# the basepoint inclusion x -> [x, x0] is an isomorphism
coords_x = HomologyCoordinates(normalized_chains(sp.parts["base"], with_labels=False))
coords_sp = HomologyCoordinates(normalized_chains(sp.space, with_labels=False))
for label in ("diag", "j_n"):
    matrix = induced_map(sp.maps[label], 2, coords_x, coords_sp)
    print(f"{label}_* on H_2(S^2) -> H_2(SP^2 S^2): {matrix}")
