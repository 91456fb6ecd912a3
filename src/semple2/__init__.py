"""Exact second-order invariants of rational plane curves and contact counts.

The package computes, in every degree, the thirteen Gromov-Witten
invariants of second-order curvilinear data specified by at least 3d-3
point conditions, and evaluates the enumerative formulas they feed: the
number of rational degree-d curves through 3d-3 general points making a
triple contact with a fixed curve, and the supported mixed
point/tangency/triple-contact counts.  All arithmetic is exact.

`import semple2` loads `recursion` and `contact` only.  The Chow ring, the
gluing construction and the oracles live in `semple2.chow`,
`semple2.potentials` and `semple2.verify`, imported from there.
"""

from .recursion import CacheError, INVARIANT_LABELS, InvariantTable, compute_up_to, kontsevich
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

__version__ = "0.1.0"

__all__ = [
    "CacheError", "INVARIANT_LABELS", "InvariantTable", "compute_up_to", "kontsevich",
    "ConditionProfile", "CurveInvariants", "UnsupportedProfileError",
    "contact_coefficients", "contact_formula", "contact_number", "mixed_count",
    "plucker_class",
]
