"""Exact integer-lattice toolkit for toric ideals of monomial curves.

Everything is computed over arbitrary-precision integers: kernel lattices,
Graver bases, circuits, bouquet decompositions, indispensable elements,
the strongly robust simplicial complex of a monomial curve, and generalized
Lawrence matrices that realize strongly robust ideals.
"""

# The one version literal: packaging and the result-cache keys read it.
__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    GraverKitError,
    PreconditionError,
)
from .linalg import (
    IntMat,
    LatticeBasis,
    is_conformal_sum,
    is_semiconformal_sum,
    kernel_lattice,
    project_out,
)
from .graver import (
    Budget,
    CircuitSet,
    GraverBasis,
    assert_pointed,
    circuits,
    graver_basis,
    graver_of_set,
    is_primitive_in,
)
from .bouquet import (
    Bouquet,
    BouquetDecomposition,
    bouquet_decomposition,
    d_map,
    gale_rows,
    is_simple,
)
from .robustness import (
    IndispensableSet,
    RobustnessCertificate,
    indispensable_set,
    is_indispensable,
    is_strongly_robust,
)
from .complexes import (
    CurveClassification,
    CurveKind,
    LambdaMatrix,
    RobustComplex,
    classify_curve3,
    degree_t,
    face_test_lifting,
    face_test_projection,
    lambda_matrix,
    robust_complex,
    s_omega,
    semigroup_min_multiple,
)
from .lawrence import (
    GenLawrenceMatrix,
    GenLawrenceSpec,
    build_gen_lawrence,
    extended_gcd_multi,
    reconstruct_gen_lawrence,
)
from .search import SearchReport, sullivant_search

__all__ = [
    "Budget",
    "Bouquet",
    "BouquetDecomposition",
    "BudgetExceededError",
    "CircuitSet",
    "CurveClassification",
    "CurveKind",
    "GenLawrenceMatrix",
    "GenLawrenceSpec",
    "GraverBasis",
    "GraverKitError",
    "IndispensableSet",
    "IntMat",
    "LambdaMatrix",
    "LatticeBasis",
    "PreconditionError",
    "RobustComplex",
    "RobustnessCertificate",
    "SearchReport",
    "assert_pointed",
    "bouquet_decomposition",
    "build_gen_lawrence",
    "circuits",
    "classify_curve3",
    "d_map",
    "degree_t",
    "extended_gcd_multi",
    "face_test_lifting",
    "face_test_projection",
    "gale_rows",
    "graver_basis",
    "graver_of_set",
    "indispensable_set",
    "is_conformal_sum",
    "is_indispensable",
    "is_primitive_in",
    "is_semiconformal_sum",
    "is_simple",
    "is_strongly_robust",
    "kernel_lattice",
    "lambda_matrix",
    "project_out",
    "reconstruct_gen_lawrence",
    "robust_complex",
    "s_omega",
    "semigroup_min_multiple",
    "sullivant_search",
]
