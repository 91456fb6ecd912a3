"""Exact second-order invariants of rational plane curves and contact counts.

The package computes, in every degree, the thirteen Gromov-Witten
invariants of second-order curvilinear data specified by at least 3d-3
point conditions, and evaluates the enumerative formulas they feed: the
number of rational degree-d curves through 3d-3 general points making a
triple contact with a fixed curve, and the supported mixed
point/tangency/triple-contact counts.  All arithmetic is exact.
"""

from .chow import (
    ChowClass,
    ChowParseError,
    divisor_pairing,
    dual_index,
    from_i_basis,
    integrate,
    mul_classes,
    parse_class_expr,
    to_i_basis,
    triple_product,
)
from .contact import (
    ConditionProfile,
    CurveInvariants,
    UnsupportedProfileError,
    contact_coefficients,
    contact_formula,
    contact_number,
    mixed_count,
    plucker_class,
)
from .potentials import (
    GluingMatrix,
    RPotential,
    build_double_cover_potential,
    build_gluing_matrix,
    build_triple_cover_potential,
    gluing_matrix_json,
)
from .recursion import (
    CacheError,
    INVARIANT_LABELS,
    InvariantTable,
    compute_up_to,
    kontsevich,
)
from .verify import OracleReport, expand_cover_series, run_selftest

__version__ = "0.1.0"

__all__ = [
    "ChowClass",
    "ChowParseError",
    "ConditionProfile",
    "CurveInvariants",
    "CacheError",
    "GluingMatrix",
    "INVARIANT_LABELS",
    "InvariantTable",
    "OracleReport",
    "RPotential",
    "UnsupportedProfileError",
    "build_double_cover_potential",
    "build_gluing_matrix",
    "build_triple_cover_potential",
    "compute_up_to",
    "contact_coefficients",
    "contact_formula",
    "contact_number",
    "divisor_pairing",
    "dual_index",
    "expand_cover_series",
    "from_i_basis",
    "gluing_matrix_json",
    "integrate",
    "kontsevich",
    "mixed_count",
    "mul_classes",
    "parse_class_expr",
    "plucker_class",
    "run_selftest",
    "to_i_basis",
    "triple_product",
]
