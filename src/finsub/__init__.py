"""finsub: exact topology of symmetric products and finite subset spaces.

Builds symmetric products SP^n(X), finite subset spaces Sub_n(X) and
their relatives of finite simplicial complexes from their nondegenerate
cells, and computes integral and mod-p homology, induced maps and
fundamental-group presentations, all over exact integers.  X^n is never
built: the levelwise quotients of X^n that the constructions equal are a
test-only oracle (``tests/xn_reference.py``).
"""

from .spaces import ComplexError, OrderedComplexSpec, builtin_space, load_complex
from .simplicial import (CellCapExceeded, NondegenerateComplex, NondegenerateMap,
                         SimplicialError, TruncatedSimplicialSet, cell_cap,
                         from_ordered_complex)
from .homology import (ChainComplexZ, HomologyCoordinates,
                       HomologyError, HomologyGroup, HomologyResult,
                       SmithNormalForm, SparseIntMatrix, chain_map_matrices,
                       euler_characteristic, homology, homology_of_sset,
                       induced_map, invariant_factors, normalized_chains,
                       rank_mod_p, smith_normal_form,
                       universal_coefficients_consistent)
from .orbits import default_truncation
from .fundamental import (GroupPresentation, abelianization,
                          fundamental_presentation, tietze_simplify)
from .constructions import (ConstructionResult, CoproductModelResult,
                            based_subset3, cylinder_chain_model, fat_diagonal,
                            finite_subset_space, reduced,
                            sub3_homology_via_coproduct, symmetric_product)
from .surface import (MonomialCell, SurfacePresentation, TopHomologyReport,
                      builtin_presentation, load_surface_presentation,
                      monomial_cells, sp_chain_complex, top_homology_report)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
