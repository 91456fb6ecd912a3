"""Enumerative contact counts built on the invariant table.

The number of rational degree-d plane curves through 3d-3 general points
making a triple contact with a fixed curve C is linear in the degree c,
class (dual degree) c-dual, and cusp count kappa of C; the three integer
coefficients are invariants read off the degree-d column.  Mixed profiles
trade point conditions against tangency and triple-contact conditions;
each tangency insertion expands as c*hd^2 + cdual*h^2 and each triple
contact as c*hd^2*z + cdual*h^2*z + kappa*h^2*hd, after which the count
distributes multilinearly over the stored thirteen invariants.

The counts are enumerative only under general-position hypotheses (fixed
curves reduced, containing no line, in general position).  The library
does not verify curve geometry: kappa counts cusps only for curves with
no singularities worse than nodes and cusps, and a degree-1 "curve" is a
line, which the hypotheses exclude; constructing one emits a warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, Iterable, List, Tuple

from .recursion import LABEL_MONOMIAL, InvariantTable

#: expansion of a tangency insertion: (curve attribute, inserted class label)
_TANGENCY_PARTS = (("c", "hd2"), ("cdual", "h2"))
#: expansion of a triple-contact insertion
_CONTACT_PARTS = (("c", "hd2z"), ("cdual", "h2z"), ("kappa", "h2hd"))

#: residual-variable carried by each inserted class beyond the point slots
_CLASS_VAR = {
    "h2": "y200", "hd2": "y020", "hz": "y101", "hdz": "y011",
    "h2hd": "y210", "h2z": "y201", "hd2z": "y021",
}

_MONOMIAL_LABEL = {
    tuple(sorted(exps.items())): label for label, exps in LABEL_MONOMIAL.items()
}

#: (tangency count, triple-contact count) patterns covered by the 13 invariants
SUPPORTED_PATTERNS = ((0, 0), (1, 0), (2, 0), (0, 1))


class UnsupportedProfileError(ValueError):
    """A condition profile needing invariants outside the stored thirteen."""

    def __init__(self, message: str, missing: List[str]):
        super().__init__(message)
        self.missing = missing


@dataclass(frozen=True)
class CurveInvariants:
    """Degree, class and cusp count of a fixed plane curve."""

    c: int
    cdual: int
    kappa: int

    def __post_init__(self):
        if self.c < 0 or self.cdual < 0 or self.kappa < 0:
            raise ValueError("curve invariants must be nonnegative")
        if self.c == 1:
            warnings.warn(
                "a degree-1 curve is a line; the contact formulas assume the "
                "fixed curves contain no line", stacklevel=3)


@dataclass(frozen=True)
class ConditionProfile:
    """Point, tangency and triple-contact conditions for one count."""

    degree: int
    points: int
    tangents: Tuple[CurveInvariants, ...] = field(default_factory=tuple)
    osculants: Tuple[CurveInvariants, ...] = field(default_factory=tuple)


def plucker_class(c: int, nodes: int = 0, cusps: int = 0) -> CurveInvariants:
    """Invariants of a nodal-cuspidal curve from its singularity counts."""
    if c < 1:
        raise ValueError("curve degree must be at least 1")
    if nodes < 0 or cusps < 0:
        raise ValueError("singularity counts must be nonnegative")
    cdual = c * (c - 1) - 2 * nodes - 3 * cusps
    if cdual < 0:
        raise ValueError(f"class c(c-1) - 2*nodes - 3*cusps = {cdual} is negative")
    return CurveInvariants(c, cdual, cusps)


def contact_coefficients(d: int, table: InvariantTable) -> Tuple[int, int, int]:
    """The (c, cdual, kappa) coefficients of the triple-contact count."""
    column = table.column(d)
    return column["hd2z"], column["h2z"], column["h2hd"]


def contact_number(d: int, curve: CurveInvariants, table: InvariantTable) -> int:
    """Rational degree-d curves through 3d-3 points with a triple contact."""
    a, b, k = contact_coefficients(d, table)
    return a * curve.c + b * curve.cdual + k * curve.kappa


def contact_formula(d: int, table: InvariantTable) -> str:
    """Symbolic form of the count, e.g. "21c+30č+10κ"."""
    a, b, k = contact_coefficients(d, table)
    parts = []
    for coeff, sym in ((a, "c"), (b, "č"), (k, "κ")):
        if coeff == 0:
            continue
        if coeff == 1:
            body = sym
        elif coeff == -1:
            body = "-" + sym
        else:
            body = f"{coeff}{sym}"
        parts.append(body)
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


def _insertion_name(points: int, classes: Iterable[str], d: int) -> str:
    body = "".join(f".{c}" for c in sorted(classes))
    return f"<(h2)^{points}{body}>_d={d}"


def _combo_label(points: int, classes: Tuple[str, ...], d: int) -> str | None:
    """Map point count plus inserted classes to one of the 13 labels, if possible."""
    exps: Dict[str, int] = {}
    for cls in classes:
        v = _CLASS_VAR[cls]
        exps[v] = exps.get(v, 0) + 1
    spare = points - (3 * d - 3)
    if spare < 0:
        return None
    if spare:
        exps["y200"] = exps.get("y200", 0) + spare
    return _MONOMIAL_LABEL.get(tuple(sorted(exps.items())))


def mixed_count(profile: ConditionProfile, table: InvariantTable) -> int:
    """Count curves meeting a mixed point/tangency/triple-contact profile.

    Supported profiles are exactly those whose expansion stays inside the
    thirteen stored invariants: points only, one or two tangencies, or one
    triple contact.  Anything else is rejected with the missing invariants
    named; a wrong number of point conditions is a plain ValueError.
    """
    d = profile.degree
    r = profile.points
    s = len(profile.tangents)
    t = len(profile.osculants)
    if d not in table.values:
        raise KeyError(f"degree {d} not computed")
    if r < 0:
        raise ValueError("point count must be nonnegative")

    if (s, t) not in SUPPORTED_PATTERNS:
        missing = []
        part_lists = [[p for _, p in _TANGENCY_PARTS]] * s \
            + [[p for _, p in _CONTACT_PARTS]] * t
        for combo in product(*part_lists):
            if _combo_label(r, combo, d) is None:
                name = _insertion_name(r, combo, d)
                if name not in missing:
                    missing.append(name)
        raise UnsupportedProfileError(
            f"profile with {s} tangency and {t} triple-contact conditions needs "
            f"invariants outside the stored thirteen: {', '.join(missing)}",
            missing)

    if r + s + 2 * t != 3 * d - 1:
        raise ValueError(
            f"a degree-{d} profile needs points + tangencies + 2*contacts "
            f"= {3 * d - 1}, got {r + s + 2 * t}")

    factor_lists = [
        [(getattr(curve, attr), cls) for attr, cls in _TANGENCY_PARTS]
        for curve in profile.tangents
    ] + [
        [(getattr(curve, attr), cls) for attr, cls in _CONTACT_PARTS]
        for curve in profile.osculants
    ]
    column = table.column(d)
    total = 0
    for combo in product(*factor_lists):
        coeff = 1
        for value, _ in combo:
            coeff *= value
        label = _combo_label(r, tuple(cls for _, cls in combo), d)
        if label is None:
            raise AssertionError("supported profile fell outside the 13 labels")
        total += coeff * column[label]
    return total
