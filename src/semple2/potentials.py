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
coefficient, never expanded) the potentials are finite polynomials: the
double cover has weight at most 2, the triple cover at most 3.  Each
builder returns that finite body as a plain polynomial, and the
prefactors are stated once, as DOUBLE_PREFACTOR and TRIPLE_PREFACTOR.

Gluing the two potentials through their slots, with dual basis indices
paired, produces the 12 x 12 matrix of second gluing derivatives that
drives the degree recursion, as a plain dict of its nonzero entries keyed
by index pair.  Each build takes the slot second derivatives of freshly
built potentials in one pass over their bodies.  The combined divisor
prefactor exp(2*y010 + 6*y001), DOUBLE_PREFACTOR once and TRIPLE_PREFACTOR
twice, is split off: it cancels exactly against the divisor exponentials
of the recursion and is never expanded.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Dict, Iterator, Tuple

from .chow import DUAL, LABELS
from .poly import (
    GLUING_W_VARS,
    GLUING_Z_VARS,
    Poly,
    REDUCED_VARS,
    add,
    add_scaled,
    mul,
    term,
    truncate_weight,
    variables,
    zero,
)

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

#: the symbolic divisor prefactor exp(coeff * var) of each cover potential,
#: as (var, coeff); never expanded
DOUBLE_PREFACTOR = ("y010", 2)
TRIPLE_PREFACTOR = ("y001", 3)

#: gluing-slot variable attached to each z-basis index of the central twig
CENTRAL_SLOT = {"010": "z010", "020": "z110", "210": "z210"}
CENTRAL_INDICES = ("010", "020", "210")

#: basis indices whose dual carries an i-factor; only these can be glued
#: to a triple-cover slot, so only these index nonzero matrix entries
GLUABLE = tuple(k for k in LABELS if k[2] == "0")


def _check_quadratic(body: Poly, gluing: Tuple[str, ...], kind: str) -> None:
    gset = set(gluing)
    for m in body:
        deg = sum(e for v, e in m if v in gset)
        if deg != 2:
            raise AssertionError(f"{kind} potential not quadratic in gluing slots: {m}")


def build_double_cover_potential() -> Poly:
    """Terms of (1/2) exp(2 y020) exp(2 y210) exp(z010) exp(z110) exp(z210)
    quadratic in the z-slots whose subscript first entries sum to 2.

    The exp(2 y010) divisor factor, DOUBLE_PREFACTOR, is left out.  The
    first entry budget bounds the y-part at weight 2, so the body is finite.
    """
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
            for r in range(budget // 2 + 1):
                q = budget - 2 * r
                coeff = Fraction(1, 2) * zcoeff \
                    * Fraction(2 ** q, factorial(q)) * Fraction(2 ** r, factorial(r))
                exps = {"z010": alpha, "z110": beta, "z210": gamma,
                        "y020": q, "y210": r}
                body = add(body, term(exps, coeff))
    _check_quadratic(body, zslots, "double_cover")
    bad = variables(body) - {"y020", "y210", *zslots}
    if bad:
        raise AssertionError(f"double-cover potential contains foreign variables {bad}")
    return body


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
            # e is within every bound, so both remainders stay nonnegative
            nrem = (rem[0] - e * e1, rem[1] - e * e2)
            if e:
                acc[name] = e
            yield from rec(idx + 1, nrem, acc)
            acc.pop(name, None)

    yield from rec(0, residual, {})


def build_triple_cover_potential() -> Poly:
    """Terms of (1/3) prod exp(3 y_k) prod exp(w_l) quadratic in the w-slots
    whose subscript (first, second) entries sum to (2, 1) or (1, 2).

    The exp(3 y001) divisor factor, TRIPLE_PREFACTOR, is left out; the
    entry budgets bound the y-part at weight 3, so the body is finite.
    """
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
                    coeff = Fraction(1, 3) * pair_coeff
                    for v, e in sol.items():
                        coeff *= Fraction(3 ** e, factorial(e))
                    exps = dict(sol)
                    exps[wu] = exps.get(wu, 0) + 1
                    exps[wv] = exps.get(wv, 0) + 1
                    body = add(body, term(exps, coeff))
    _check_quadratic(body, tuple(wnames), "triple_cover")
    bad = variables(body) - set(TRIPLE_Y) - set(TRIPLE_W)
    if bad:
        raise AssertionError(f"triple-cover potential contains foreign variables {bad}")
    return body


#: the gluing matrix: its nonzero entries, keyed by index pair (s, t)
MatrixEntries = Dict[Tuple[str, str], Poly]


def _slot_hessian(body: Poly, slots: Tuple[str, ...]) -> Dict[Tuple[str, str], Poly]:
    """The second derivatives of a body quadratic in `slots`, keyed by
    ordered slot pair; a pair whose derivative vanishes has no key.

    A term c*r*u*v, with r free of slots, is c*r in the (u, v) and (v, u)
    derivatives, and a term c*r*u^2 is 2c*r in the (u, u) one, so one pass
    over the body files every term, in the body's order.
    """
    out: Dict[Tuple[str, str], Poly] = {}
    for m, c in body.items():
        rest = tuple((name, e) for name, e in m if name not in slots)
        u, v = (name for name, e in m if name in slots for _ in range(e))
        for key in ((u, v), (v, u)):
            out.setdefault(key, {})[rest] = 2 * c if u == v else c
    return out


def build_gluing_matrix(cap: int) -> MatrixEntries:
    """Glue the two cover potentials through dual slots into the 12x12 matrix.

    Entry (s, t) is the polynomial obtained by differentiating the glued
    potential in the two remaining triple-cover slots dual to s and t, with
    the divisor prefactor split off.  Entries are symmetric, contain no
    gluing or divisor variables and no y200, vanish unless both duals carry
    an i-factor, and are truncated at `cap`.  Only the nonzero entries have
    a key, and every call builds its inputs and its entries afresh.
    """
    if cap < 2:
        raise ValueError("the recursion extracts weight-2 data; cap must be >= 2")
    central = _slot_hessian(build_double_cover_potential(), GLUING_Z_VARS)
    side = _slot_hessian(build_triple_cover_potential(), GLUING_W_VARS)

    entries: MatrixEntries = {}
    for s in GLUABLE:
        ws = "w" + DUAL[s]
        # the products left * mid do not depend on t: one per (s2, t2)
        left_mid: Dict[Tuple[str, str], Poly] = {}
        for t in GLUABLE:
            wt = "w" + DUAL[t]
            acc: Poly = zero()
            for s2 in CENTRAL_INDICES:
                left = side.get(("w" + DUAL[s2], ws))
                if not left:
                    continue
                for t2 in CENTRAL_INDICES:
                    mid = central.get((CENTRAL_SLOT[s2], CENTRAL_SLOT[t2]))
                    if not mid:
                        continue
                    right = side.get(("w" + DUAL[t2], wt))
                    if not right:
                        continue
                    if (s2, t2) not in left_mid:
                        left_mid[s2, t2] = mul(left, mid)
                    add_scaled(acc, mul(left_mid[s2, t2], right), 1)
            acc = truncate_weight(acc, cap)
            if acc:
                entries[(s, t)] = acc
    _check_matrix(entries)
    return entries


def _check_matrix(entries: MatrixEntries) -> None:
    allowed = set(REDUCED_VARS) - {"y200"}
    for (s, t), p in entries.items():
        if s not in GLUABLE or t not in GLUABLE:
            raise AssertionError(f"nonzero entry at ungluable index pair ({s},{t})")
        if entries.get((t, s)) != p:
            raise AssertionError(f"gluing matrix not symmetric at ({s},{t})")
        bad = variables(p) - allowed
        if bad:
            raise AssertionError(f"entry ({s},{t}) contains forbidden variables {bad}")
