"""Closed-form potentials for degenerate lifts and the gluing matrix.

Two finite generating functions are built here.  The first ("double cover")
counts maps that doubly cover the lift of a fiber of the incidence variety,
with two ramification markings serving as gluing slots; its terms live in
the variables y020, y210 (y020 entering through the mixed-product slot of
an alternative basis) and the gluing slots z010, z110, z210.  The second
("triple cover") counts triple covers of a fiber of the 4-fold over the
incidence variety; its gluing slots w001 ... w211 are coefficients with
respect to the i-basis.

Each potential is exactly quadratic in its gluing alphabet, and each term
is cut out by a linear constraint on the vector sum of the variable
subscripts.  Both constraints bound the subscript budget, so apart from a
divisor-variable exponential prefactor (kept symbolic as an integer
coefficient, never expanded) the potentials are finite polynomials.

Gluing the two potentials through their slots, with dual basis indices
paired, produces the 12 x 12 matrix of second gluing derivatives that
drives the degree recursion.  The matrix carries the combined divisor
prefactor exp(2*y010 + 6*y001) as a pair of integers; it cancels exactly
against the divisor exponentials of the recursion and is never expanded.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, Iterator, Tuple

from .chow import DUAL, LABELS
from .poly import (
    Poly,
    REDUCED_VARS,
    WEIGHT,
    add,
    add_scaled,
    mul,
    partial,
    term,
    truncate_weight,
    variables,
    zero,
)
from .recursion import _Frozen

#: subscript first entries of the double-cover alphabet (y020 enters as the
#: mixed slot with subscript 110; its second entry is 1 like every factor,
#: and third entries are all 0, so only first entries constrain anything)
DOUBLE_FIRST = {"y020": 1, "y210": 2, "z010": 0, "z110": 1, "z210": 2}

#: (first, second) subscript entries for the triple-cover alphabet; all
#: third entries are 1 and do not constrain
TRIPLE_Y = {"y101": (1, 0), "y201": (2, 0), "y011": (0, 1),
            "y021": (0, 2), "y211": (2, 1)}
TRIPLE_W = {"w001": (0, 0), "w101": (1, 0), "w201": (2, 0),
            "w011": (0, 1), "w021": (0, 2), "w211": (2, 1)}

#: natural weight bounds of the finite y-parts
DOUBLE_MAX_WEIGHT = 2
TRIPLE_MAX_WEIGHT = 3

#: gluing-slot variable attached to each z-basis index of the central twig
CENTRAL_SLOT = {"010": "z010", "020": "z110", "210": "z210"}
CENTRAL_INDICES = ("010", "020", "210")

#: basis indices whose dual carries an i-factor; only these can be glued
#: to a triple-cover slot, so only these index nonzero matrix entries
GLUABLE = tuple(k for k in LABELS if k[2] == "0")


class RPotential(_Frozen):
    """A cover potential: finite body plus a symbolic divisor prefactor.

    `kind` is "double_cover" or "triple_cover".  The body is exactly
    quadratic in the gluing alphabet.  The prefactor
    exp(divisor_coeff * divisor_var) is recorded by its integer coefficient
    and never expanded; `divisor_var` is "y010" for the double cover and
    "y001" for the triple.  Immutable but unhashable, since the body is a
    dict.
    """

    __slots__ = __match_args__ = ("kind", "body", "cap", "divisor_var", "divisor_coeff")

    def __init__(self, kind: str, body: Poly, cap: int, divisor_var: str,
                 divisor_coeff: int):
        self._assign(kind, body, cap, divisor_var, divisor_coeff)


def _check_quadratic(body: Poly, gluing: Tuple[str, ...], kind: str) -> None:
    gset = set(gluing)
    for m in body:
        deg = sum(e for v, e in m if v in gset)
        if deg != 2:
            raise AssertionError(f"{kind} potential not quadratic in gluing slots: {m}")


def build_double_cover_potential(cap: int) -> RPotential:
    """Terms of (1/2) exp(2 y020) exp(2 y210) exp(z010) exp(z110) exp(z210)
    quadratic in the z-slots whose subscript first entries sum to 2.

    The exp(2 y010) divisor factor is recorded symbolically.  The first
    entry budget bounds the y-part at weight 2, so the body is finite.
    """
    if cap < 0:
        raise ValueError("weight cap must be nonnegative")
    body: Poly = zero()
    zslots = ("z010", "z110", "z210")
    for alpha in range(3):
        for beta in range(3 - alpha):
            gamma = 2 - alpha - beta
            budget = 2 - (DOUBLE_FIRST["z010"] * alpha
                          + DOUBLE_FIRST["z110"] * beta
                          + DOUBLE_FIRST["z210"] * gamma)
            if budget < 0:
                continue
            zcoeff = Fraction(1, factorial(alpha) * factorial(beta) * factorial(gamma))
            # y-part solutions of q*1 + r*2 = budget; the y-weight is the budget
            if budget > cap:
                continue
            for r in range(budget // 2 + 1):
                q = budget - 2 * r
                coeff = Fraction(1, 2) * zcoeff \
                    * Fraction(2 ** q, factorial(q)) * Fraction(2 ** r, factorial(r))
                exps = {"z010": alpha, "z110": beta, "z210": gamma,
                        "y020": q, "y210": r}
                body = add(body, term(exps, coeff))
    pot = RPotential("double_cover", body, cap, "y010", 2)
    _check_quadratic(body, ("z010", "z110", "z210"), pot.kind)
    bad = variables(body) - {"y020", "y210", *zslots}
    if bad:
        raise AssertionError(f"double-cover potential contains foreign variables {bad}")
    return pot


def _y_solutions(entries: Dict[str, Tuple[int, int]],
                 residual: Tuple[int, int]) -> Iterator[Dict[str, int]]:
    """All exponent maps a over `entries` with sum a_k * entry_k == residual."""
    names = sorted(entries)

    def rec(idx: int, rem: Tuple[int, int], acc: Dict[str, int]):
        if idx == len(names):
            if rem == (0, 0):
                yield dict(acc)
            return
        name = names[idx]
        e1, e2 = entries[name]
        bounds = [rem[i] // e for i, e in enumerate((e1, e2)) if e > 0]
        for e in range(min(bounds) + 1):
            nrem = (rem[0] - e * e1, rem[1] - e * e2)
            if nrem[0] < 0 or nrem[1] < 0:
                continue
            if e:
                acc[name] = e
            yield from rec(idx + 1, nrem, acc)
            acc.pop(name, None)

    yield from rec(0, residual, {})


def build_triple_cover_potential(cap: int) -> RPotential:
    """Terms of (1/3) prod exp(3 y_k) prod exp(w_l) quadratic in the w-slots
    whose subscript (first, second) entries sum to (2, 1) or (1, 2).

    The exp(3 y001) divisor factor is recorded symbolically; the entry
    budgets bound the y-part at weight 3, so the body is finite.
    """
    if cap < 0:
        raise ValueError("weight cap must be nonnegative")
    body: Poly = zero()
    wnames = sorted(TRIPLE_W)
    for i, wu in enumerate(wnames):
        for wv in wnames[i:]:
            base = (TRIPLE_W[wu][0] + TRIPLE_W[wv][0],
                    TRIPLE_W[wu][1] + TRIPLE_W[wv][1])
            pair_coeff = Fraction(1, 2) if wu == wv else Fraction(1)
            for target in ((2, 1), (1, 2)):
                residual = (target[0] - base[0], target[1] - base[1])
                if residual[0] < 0 or residual[1] < 0:
                    continue
                for sol in _y_solutions(TRIPLE_Y, residual):
                    w = sum(WEIGHT[v] * e for v, e in sol.items())
                    if w > cap:
                        continue
                    coeff = Fraction(1, 3) * pair_coeff
                    for v, e in sol.items():
                        coeff *= Fraction(3 ** e, factorial(e))
                    exps = dict(sol)
                    exps[wu] = exps.get(wu, 0) + 1
                    exps[wv] = exps.get(wv, 0) + 1
                    body = add(body, term(exps, coeff))
    pot = RPotential("triple_cover", body, cap, "y001", 3)
    _check_quadratic(body, tuple(wnames), pot.kind)
    bad = variables(body) - set(TRIPLE_Y) - set(TRIPLE_W)
    if bad:
        raise AssertionError(f"triple-cover potential contains foreign variables {bad}")
    return pot


class GluingMatrix(_Frozen):
    """Second gluing derivatives of the three-twig tail potential.

    entry(s, t) is the polynomial obtained by differentiating the glued
    potential in the two remaining triple-cover slots dual to s and t,
    with the divisor prefactor exp(y010_exponent * y010 +
    y001_exponent * y001) split off symbolically.  Entries are symmetric,
    contain no gluing or divisor variables and no y200, vanish unless both
    duals carry an i-factor, and are truncated at the stored weight cap.
    Immutable but unhashable, since the entries are a dict; the repr leaves
    them out.
    """

    __slots__ = __match_args__ = ("cap", "entries", "y010_exponent", "y001_exponent")

    def __init__(self, cap: int, entries: Dict[Tuple[str, str], Poly],
                 y010_exponent: int = 2, y001_exponent: int = 6):
        self._assign(cap, entries, y010_exponent, y001_exponent)

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(cap={self.cap!r}, "
                f"y010_exponent={self.y010_exponent!r}, "
                f"y001_exponent={self.y001_exponent!r})")

    def entry(self, s: str, t: str) -> Poly:
        return self.entries.get((s, t), {})


def build_gluing_matrix(cap: int) -> GluingMatrix:
    """Glue the two cover potentials through dual slots into the 12x12 matrix."""
    if cap < 2:
        raise ValueError("the recursion extracts weight-2 data; cap must be >= 2")
    double = build_double_cover_potential(DOUBLE_MAX_WEIGHT)
    triple = build_triple_cover_potential(TRIPLE_MAX_WEIGHT)

    # second derivatives of the central potential in its gluing slots
    central: Dict[Tuple[str, str], Poly] = {}
    for s in CENTRAL_INDICES:
        for t in CENTRAL_INDICES:
            central[(s, t)] = partial(partial(double.body, CENTRAL_SLOT[s]),
                                      CENTRAL_SLOT[t])

    # second derivatives of the peripheral potential in its slots
    wnames = sorted(TRIPLE_W)
    side: Dict[Tuple[str, str], Poly] = {}
    for u in wnames:
        for v in wnames:
            side[(u, v)] = partial(partial(triple.body, u), v)

    entries: Dict[Tuple[str, str], Poly] = {}
    for s in GLUABLE:
        ws = "w" + DUAL[s]
        for t in GLUABLE:
            wt = "w" + DUAL[t]
            acc: Poly = zero()
            for s2 in CENTRAL_INDICES:
                left = side[("w" + DUAL[s2], ws)]
                if not left:
                    continue
                for t2 in CENTRAL_INDICES:
                    mid = central[(s2, t2)]
                    if not mid:
                        continue
                    right = side[("w" + DUAL[t2], wt)]
                    if not right:
                        continue
                    add_scaled(acc, mul(mul(left, mid), right), 1)
            acc = truncate_weight(acc, cap)
            if acc:
                entries[(s, t)] = acc

    matrix = GluingMatrix(cap=cap, entries=entries,
                          y010_exponent=2 * 1,
                          y001_exponent=2 * triple.divisor_coeff)
    _check_matrix(matrix)
    return matrix


@lru_cache(maxsize=None)
def _shared_gluing_matrix(cap: int) -> GluingMatrix:
    """One matrix per cap and process, for the self-test's checks in `verify`.

    Callers only read it; `build_gluing_matrix` returns a fresh one.
    """
    return build_gluing_matrix(cap)


def _check_matrix(matrix: GluingMatrix) -> None:
    allowed = set(REDUCED_VARS) - {"y200"}
    for (s, t), p in matrix.entries.items():
        if s not in GLUABLE or t not in GLUABLE:
            raise AssertionError(f"nonzero entry at ungluable index pair ({s},{t})")
        if matrix.entry(t, s) != p:
            raise AssertionError(f"gluing matrix not symmetric at ({s},{t})")
        bad = variables(p) - allowed
        if bad:
            raise AssertionError(f"entry ({s},{t}) contains forbidden variables {bad}")
    if matrix.y010_exponent != 2 or matrix.y001_exponent != 6:
        raise AssertionError("divisor prefactor must be exp(2*y010 + 6*y001)")
