"""Enumerative contact counts built on the invariant table.

The number of rational degree-d plane curves through 3d-3 general points
making a triple contact with a fixed curve C is linear in the degree c,
class (dual degree) c-dual, and cusp count kappa of C; the three integer
coefficients are invariants read off the degree-d column.  Mixed profiles
trade point conditions against tangency and triple-contact conditions;
each tangency insertion expands as c*hd^2 + cdual*h^2 and each triple
contact as c*hd^2*z + cdual*h^2*z + kappa*h^2*hd, after which the count
distributes multilinearly over the stored thirteen invariants.  Each term
names its invariant directly: one h2 per point beyond the 3d-3 that every
invariant carries, plus the inserted classes, sorted and joined by ".".

That naming rule alone decides which profiles the thirteen answer: a
profile with s tangencies and t triple contacts is answered when every
term has a label at the 3d-1-s-2t points its other conditions leave.
Beyond its 3d-3 points a label carries two classes of points or
tangencies, or the one class of a triple contact, so this is points
only, one or two tangencies, or one triple contact.  A term's label
depends only on the multiset of its classes, so `check_profile` walks
the multisets, not the ordered terms, and decides without reading a
table; the CLI refuses a profile before it computes anything.  A
refusal names at most the first eight missing invariants, each past 100
characters cut short, and ends with ", ..." when there are more.

The counts are enumerative only under general-position hypotheses (fixed
curves reduced, containing no line, in general position).  The library
does not verify curve geometry: kappa counts cusps only for curves with
no singularities worse than nodes and cusps, and a degree-1 "curve" is a
line, which the hypotheses exclude; constructing one emits a warning.

`CurveInvariants` and `ConditionProfile` are immutable plain classes with
`__slots__`, not dataclasses: they compare and hash by their fields, and
pickle and copy through their constructors, which validate again.
"""

import warnings
from collections.abc import Iterable
from itertools import combinations_with_replacement, islice, product
from math import prod

from .recursion import INVARIANT_LABELS, InvariantTable, _excerpt, _Frozen

#: expansion of a tangency insertion: (curve attribute, inserted class label)
_TANGENCY_PARTS = (("c", "hd2"), ("cdual", "h2"))
#: expansion of a triple-contact insertion
_CONTACT_PARTS = (("c", "hd2z"), ("cdual", "h2z"), ("kappa", "h2hd"))

#: the most missing invariants a refusal names
_MISSING_MAX = 8


class UnsupportedProfileError(ValueError):
    """A condition profile needing invariants outside the stored thirteen."""

    def __init__(self, message: str, missing: list[str]):
        super().__init__(message)
        self.missing = missing


class CurveInvariants(_Frozen):
    """Degree, class and cusp count of a fixed plane curve."""

    __slots__ = __match_args__ = ("c", "cdual", "kappa")

    def __init__(self, c: int, cdual: int, kappa: int):
        if c < 0 or cdual < 0 or kappa < 0:
            raise ValueError("curve invariants must be nonnegative")
        if c == 1:
            warnings.warn(
                "a degree-1 curve is a line; the contact formulas assume the "
                "fixed curves contain no line", stacklevel=2)
        self._assign(c, cdual, kappa)


class ConditionProfile(_Frozen):
    """Point, tangency and triple-contact conditions for one count."""

    __slots__ = __match_args__ = ("degree", "points", "tangents", "osculants")

    def __init__(self, degree: int, points: int,
                 tangents: tuple[CurveInvariants, ...] = (),
                 osculants: tuple[CurveInvariants, ...] = ()):
        self._assign(degree, points, tangents, osculants)


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


def contact_coefficients(d: int, table: InvariantTable) -> tuple[int, int, int]:
    """The (c, cdual, kappa) coefficients of the triple-contact count."""
    column = table.column(d)
    return tuple(column[label] for _, label in _CONTACT_PARTS)


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


def _combo_label(points: int, classes: tuple[str, ...], d: int) -> str | None:
    """The label of point count plus inserted classes, if it is one of the 13.

    Each point beyond the 3d-3 that every label carries inserts one more h2.
    """
    spare = points - (3 * d - 3)
    if spare < 0:
        return None
    name = ".".join(sorted(("h2",) * spare + classes))
    return name if name in INVARIANT_LABELS else None


def check_profile(profile: ConditionProfile) -> None:
    """Raise unless the thirteen stored invariants answer the profile.

    A negative point count is a ValueError.  A profile with a term that
    has no label at the points its other conditions leave is an
    UnsupportedProfileError naming the first eight missing invariants;
    only then is a wrong point count a ValueError.
    """
    d, r = profile.degree, profile.points
    s, t = len(profile.tangents), len(profile.osculants)
    if r < 0:
        raise ValueError("point count must be nonnegative")

    # the class sets in the order of their first terms, both walks lazy
    # (product() would build every set before it yields one)
    left = 3 * d - 1 - s - 2 * t
    tangency, contact = [p for _, p in _TANGENCY_PARTS], [p for _, p in _CONTACT_PARTS]
    missing = list(islice(
        (_insertion_name(r, a + b, d)
         for a in combinations_with_replacement(tangency, s)
         for b in combinations_with_replacement(contact, t)
         if _combo_label(left, a + b, d) is None), _MISSING_MAX + 1))
    if missing:
        more = ", ..." if len(missing) > _MISSING_MAX else ""
        del missing[_MISSING_MAX:]
        raise UnsupportedProfileError(
            f"profile with {s} tangency and {t} triple-contact conditions needs "
            f"invariants outside the stored thirteen: {', '.join(map(_excerpt, missing))}{more}",
            missing)

    if r != left:
        raise ValueError(
            f"a degree-{d} profile needs points + tangencies + 2*contacts "
            f"= {3 * d - 1}, got {r + s + 2 * t}")


def mixed_count(profile: ConditionProfile, table: InvariantTable) -> int:
    """Count curves meeting a mixed point/tangency/triple-contact profile.

    Raises KeyError unless the table holds the profile's degree, then
    refuses what `check_profile` refuses.
    """
    d = profile.degree
    if d not in table.values:
        raise KeyError(f"degree {d} not computed")
    check_profile(profile)
    column = table.values[d]
    total = 0
    for combo in product(
            *([(getattr(curve, attr), cls) for attr, cls in _TANGENCY_PARTS]
              for curve in profile.tangents),
            *([(getattr(curve, attr), cls) for attr, cls in _CONTACT_PARTS]
              for curve in profile.osculants)):
        label = _combo_label(profile.points, tuple(cls for _, cls in combo), d)
        total += prod(value for value, _ in combo) * column[label]
    return total
