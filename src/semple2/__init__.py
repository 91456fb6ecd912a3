"""Exact second-order invariants of rational plane curves and contact counts.

The package computes, in every degree, the thirteen Gromov-Witten
invariants of second-order curvilinear data specified by at least 3d-3
point conditions, and evaluates the enumerative formulas they feed: the
number of rational degree-d curves through 3d-3 general points making a
triple contact with a fixed curve, and the supported mixed
point/tangency/triple-contact counts.  All arithmetic is exact.

The public names resolve on first access (PEP 562), so `import semple2`
loads no submodule and a warm-cache query never loads the Chow ring, the
polynomial engine or the oracles.
"""

from importlib import import_module

__version__ = "0.1.0"

#: defining submodule of each public name
_EXPORTS = {
    "chow": (
        "ChowClass", "ChowParseError", "divisor_pairing", "dual_index",
        "from_i_basis", "integrate", "mul_classes", "parse_class_expr",
        "to_i_basis", "triple_product",
    ),
    "contact": (
        "ConditionProfile", "CurveInvariants", "UnsupportedProfileError",
        "contact_coefficients", "contact_formula", "contact_number",
        "mixed_count", "plucker_class",
    ),
    "potentials": (
        "GluingMatrix", "RPotential", "build_double_cover_potential",
        "build_gluing_matrix", "build_triple_cover_potential",
        "gluing_matrix_json",
    ),
    "recursion": (
        "CacheError", "INVARIANT_LABELS", "InvariantTable", "compute_up_to",
        "kontsevich",
    ),
    "verify": ("OracleReport", "expand_cover_series", "run_selftest"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
