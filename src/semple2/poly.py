"""Exact sparse multivariate polynomial arithmetic with a weight grading.

A polynomial is a dictionary mapping monomials to exact coefficients,
each an int or a fractions.Fraction.  A monomial is a tuple of (variable,
exponent) pairs, sorted by a fixed variable order, with all exponents
positive:

    Poly     = dict[Monomial, int | Fraction]
    Monomial = tuple[tuple[str, int], ...]

The zero polynomial is the empty dict; the empty monomial () is the
constant term.  Zero coefficients are never stored, so equality of
polynomials is plain dict equality.  No floating point enters anywhere.
Coefficients are kept as given: `term` makes a Fraction, while `mul`,
`add_scaled` and `partial` of int polynomials by int scalars stay int, so
a caller can run a sum on integer numerators and divide once at the end.

The variable alphabet is fixed.  Eight "reduced" variables carry the
weight grading used throughout the generating-function computations
(weight = codimension of the corresponding intersection class minus one);
the z- and w-variables are bookkeeping slots for gluing insertions and
carry weight zero.
"""

from fractions import Fraction
from collections.abc import Iterable, Mapping

Monomial = tuple[tuple[str, int], ...]
Poly = dict[Monomial, int | Fraction]

REDUCED_VARS = ("y200", "y020", "y210", "y101", "y201", "y011", "y021", "y211")
GLUING_Z_VARS = ("z010", "z110", "z210")
GLUING_W_VARS = ("w001", "w101", "w201", "w011", "w021", "w211")

VAR_ORDER: tuple[str, ...] = REDUCED_VARS + GLUING_Z_VARS + GLUING_W_VARS
_VAR_INDEX = {v: i for i, v in enumerate(VAR_ORDER)}

# weight(y_k) = |k| - 1 where |k| is the digit sum of the subscript;
# gluing variables are eliminated by differentiation and weigh nothing.
WEIGHT: dict[str, int] = {v: sum(int(c) for c in v[1:]) - 1 for v in REDUCED_VARS}
WEIGHT.update({v: 0 for v in GLUING_Z_VARS + GLUING_W_VARS})


class PolyError(ValueError):
    """Raised for malformed polynomial inputs."""


def _check_var(name: str) -> str:
    if name not in _VAR_INDEX:
        raise PolyError(f"unknown variable {name!r}")
    return name


def monomial(exps: Mapping[str, int]) -> Monomial:
    """Canonical monomial from a variable -> exponent mapping."""
    items = []
    for name, e in exps.items():
        _check_var(name)
        if e < 0:
            raise PolyError(f"negative exponent for {name}")
        if e > 0:
            items.append((name, e))
    items.sort(key=lambda it: _VAR_INDEX[it[0]])
    return tuple(items)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a or not b:  # the constant monomial () is the unit
        return a or b
    merged = dict(a)
    for name, e in b:
        merged[name] = merged.get(name, 0) + e
    return tuple(sorted(merged.items(), key=lambda it: _VAR_INDEX[it[0]]))


def monomial_weight(m: Monomial) -> int:
    return sum(WEIGHT[name] * e for name, e in m)


def monomial_degree_in(m: Monomial, names: Iterable[str]) -> int:
    wanted = set(names)
    return sum(e for name, e in m if name in wanted)


def term(exps: Mapping[str, int], value: int | Fraction) -> Poly:
    c = Fraction(value)
    return {monomial(exps): c} if c else {}


def mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = monomial_mul(ma, mb)
            if m in out:
                s = out[m] + ca * cb
                if s:
                    out[m] = s
                else:
                    del out[m]
            else:
                out[m] = ca * cb
    return out


def add_scaled(acc: Poly, p: Poly, value: int | Fraction) -> None:
    """In-place acc += value * p: the one sum of polynomials, and the one
    mutating helper.  An int value and int coefficients give int sums."""
    if not value:
        return
    for m, k in p.items():
        if m in acc:
            s = acc[m] + k * value
            if s:
                acc[m] = s
            else:
                del acc[m]
        else:
            acc[m] = k * value


def partial(p: Poly, name: str, order: int = 1) -> Poly:
    """Formal partial derivative, applied `order` times."""
    _check_var(name)
    if order < 0:
        raise PolyError("derivative order must be nonnegative")
    if order == 0:
        return dict(p)
    out: Poly = {}
    for m, c in p.items():
        exps = dict(m)
        e = exps.get(name, 0)
        if e < order:
            continue
        fall = 1
        for i in range(order):
            fall *= e - i
        if e == order:
            exps.pop(name)
        else:
            exps[name] = e - order
        # lowering or dropping one exponent keeps the canonical order, and
        # distinct monomials stay distinct, so no two terms meet in `out`
        out[tuple(exps.items())] = c * fall
    return out


def truncate_weight(p: Poly, cap: int) -> Poly:
    """Drop every monomial of weight strictly greater than cap."""
    if cap < 0:
        raise PolyError("weight cap must be nonnegative")
    return {m: c for m, c in p.items() if monomial_weight(m) <= cap}


def homogeneous_weight(p: Poly) -> int | None:
    """Weight of a weight-homogeneous polynomial; None for the zero poly.

    Raises PolyError on a non-homogeneous input.
    """
    w: int | None = None
    for m in p:
        mw = monomial_weight(m)
        if w is None:
            w = mw
        elif w != mw:
            raise PolyError("polynomial is not weight-homogeneous")
    return w


def variables(p: Poly) -> set:
    names = set()
    for m in p:
        for name, _ in m:
            names.add(name)
    return names
