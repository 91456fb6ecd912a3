"""Closed-form potentials for degenerate lifts and the gluing matrix.

Two finite generating functions are built here, both of one form:

    (1/k) * prod_y exp(k*y) * prod_slot exp(slot),

cut down to the terms quadratic in the gluing slots whose subscript
entries (a fixed vector per variable) sum to an allowed value.  The
"double cover" (k = 2) counts maps that doubly cover the lift of a fiber
of the incidence variety, with two ramification markings serving as
gluing slots; its terms live in the variables y020, y210 (y020 entering
through the mixed-product slot of an alternative basis) and the gluing
slots z010, z110, z210.  The "triple cover" (k = 3) counts triple covers
of a fiber of the 4-fold over the incidence variety; its gluing slots
w001 ... w211 are coefficients with respect to the i-basis.  COVERS
states each cover once: k, the divisor variable, the y-alphabet, the
slots and the allowed entry sums.  `build_cover_potential(kind)` builds
either, and `semple2.verify.expand_cover_series(kind)` reads the same
statement.

The allowed sums bound the subscript budget, so apart from the divisor
exponential exp(k * divisor) (never expanded) the potentials are finite
polynomials: the double cover has weight at most 2, the triple cover at
most 3.  The builder returns that finite body as a plain polynomial.

Gluing the two potentials through their slots, with dual basis indices
paired, produces the 12 x 12 matrix of second gluing derivatives that
drives the degree recursion, as a plain dict of its nonzero entries keyed
by index pair.  Each build takes the slot second derivatives of freshly
built potentials in one pass over their bodies.  The combined divisor
prefactor exp(2*y010 + 6*y001), one double cover's and two triple
covers', is split off: it cancels exactly against the divisor
exponentials of the recursion and is never expanded.

The arithmetic divides once per output coefficient.  A body coefficient
is one Fraction, prod k^e over its denominator k * (2 for a square slot)
* prod e!.  The gluing runs on integer numerators: each cover's slot
second derivatives are scaled by the lcm of their denominators, D_double
and D_triple, the products and sums stay int polynomials, and each matrix
term is filed as one Fraction over D_double * D_triple^2.
"""

from collections.abc import Collection, Iterator
from fractions import Fraction
from itertools import product
from math import factorial, lcm, prod

from .chow import DUAL, LABELS
from .poly import (
    Poly,
    REDUCED_VARS,
    add_scaled,
    monomial,
    mul,
    truncate_weight,
    variables,
)

#: each cover potential: k, the divisor variable of its prefactor
#: exp(k * divisor), its y-alphabet and its gluing slots with their
#: constraining subscript entries, and the allowed sums of those entries
COVERS = {
    # only first entries constrain the double cover: second entries are all
    # 1 and third entries all 0.  y020 enters as the mixed slot with
    # subscript 110, so its first entry is 1.
    "double_cover": {
        "k": 2, "divisor": "y010",
        "y": {"y020": (1,), "y210": (2,)},
        "slots": {"z010": (0,), "z110": (1,), "z210": (2,)},
        "sums": ((2,),),
    },
    # (first, second) entries; all third entries are 1 and do not constrain
    "triple_cover": {
        "k": 3, "divisor": "y001",
        "y": {"y101": (1, 0), "y201": (2, 0), "y011": (0, 1),
              "y021": (0, 2), "y211": (2, 1)},
        "slots": {"w001": (0, 0), "w101": (1, 0), "w201": (2, 0),
                  "w011": (0, 1), "w021": (0, 2), "w211": (2, 1)},
        "sums": ((2, 1), (1, 2)),
    },
}

#: gluing-slot variable attached to each z-basis index of the central twig
CENTRAL_SLOT = {"010": "z010", "020": "z110", "210": "z210"}

#: basis indices whose dual carries an i-factor; only these can be glued
#: to a triple-cover slot, so only these index nonzero matrix entries
GLUABLE = tuple(k for k in LABELS if k[2] == "0")


def _y_solutions(entries: dict[str, tuple[int, ...]],
                 residual: tuple[int, ...]) -> Iterator[dict[str, int]]:
    """All exponent maps a over `entries` with sum a_y * entry_y == residual."""
    names = sorted(entries)
    rows = [entries[name] for name in names]
    bounds = [range(min(r // x for r, x in zip(residual, row) if x) + 1) for row in rows]
    for exps in product(*bounds):
        if all(sum(e * row[i] for e, row in zip(exps, rows)) == r
               for i, r in enumerate(residual)):
            yield {name: e for name, e in zip(names, exps) if e}


def build_cover_potential(kind: str) -> Poly:
    """The finite body of the cover potential `kind`, a key of COVERS: the
    terms of (1/k) prod exp(k y) prod exp(slot) quadratic in the slots
    whose subscript entries sum to an allowed value.

    The divisor factor exp(k * divisor) is left out; the allowed sums bound
    the y-part (at weight 2 for the double cover, 3 for the triple cover),
    so the body is finite.
    """
    if kind not in COVERS:
        raise ValueError(f"unknown cover kind {kind!r}")
    cover = COVERS[kind]
    k, ys, slots = cover["k"], cover["y"], cover["slots"]
    body: Poly = {}
    names = sorted(slots)
    for i, u in enumerate(names):
        for v in names[i:]:
            base = [a + b for a, b in zip(slots[u], slots[v])]
            # (1/k) * (1/2 for a square slot) * prod k^e / e!, one division
            pair_den = k * (2 if u == v else 1)
            for target in cover["sums"]:
                residual = tuple(t - b for t, b in zip(target, base))
                if min(residual) < 0:
                    continue
                for sol in _y_solutions(ys, residual):
                    exps = dict(sol)
                    exps[u] = 1
                    exps[v] = exps.get(v, 0) + 1
                    # the slot pair, target and solution fix the monomial
                    body[monomial(exps)] = Fraction(
                        prod(k ** e for e in sol.values()),
                        pair_den * prod(factorial(e) for e in sol.values()))
    alphabet = {*ys, *slots}
    for m in body:
        if sum(e for name, e in m if name in slots) != 2 \
                or not {name for name, _ in m} <= alphabet:
            raise AssertionError(
                f"{kind} potential term {m} is not quadratic in its slots over its alphabet")
    return body


#: the gluing matrix: its nonzero entries, keyed by index pair (s, t)
MatrixEntries = dict[tuple[str, str], Poly]


def _slot_hessian(body: Poly, slots: Collection[str]) -> dict[tuple[str, str], Poly]:
    """The second derivatives of a body quadratic in `slots`, keyed by
    ordered slot pair; a pair whose derivative vanishes has no key.

    A term c*r*u*v, with r free of slots, is c*r in the (u, v) and (v, u)
    derivatives, and a term c*r*u^2 is 2c*r in the (u, u) one, so one pass
    over the body files every term, in the body's order.
    """
    out: dict[tuple[str, str], Poly] = {}
    for m, c in body.items():
        rest = tuple((name, e) for name, e in m if name not in slots)
        u, v = (name for name, e in m if name in slots for _ in range(e))
        for key in ((u, v), (v, u)):
            out.setdefault(key, {})[rest] = 2 * c if u == v else c
    return out


def _integer_hessian(body: Poly, slots: Collection[str]) -> tuple[dict[tuple[str, str], Poly], int]:
    """The slot second derivatives of `body` times the lcm D of their
    denominators, as int polynomials, and D."""
    hessian = _slot_hessian(body, slots)
    scale = lcm(*(c.denominator for p in hessian.values() for c in p.values()))
    return ({key: {m: c.numerator * (scale // c.denominator) for m, c in p.items()}
             for key, p in hessian.items()}, scale)


def build_gluing_matrix(cap: int) -> MatrixEntries:
    """Glue the two cover potentials through dual slots into the 12x12 matrix.

    Entry (s, t) is the polynomial obtained by differentiating the glued
    potential in the two remaining triple-cover slots dual to s and t, with
    the divisor prefactor split off.  Entries are symmetric, contain no
    gluing or divisor variables and no y200, vanish unless both duals carry
    an i-factor, and are truncated at `cap`.  Only the nonzero entries have
    a key, and every call builds its inputs and its entries afresh.  The
    entries are glued as int polynomials and divided once, term by term,
    so every coefficient is a Fraction.
    """
    if cap < 2:
        raise ValueError("the recursion extracts weight-2 data; cap must be >= 2")
    (central, d_central), (side, d_side) = (
        _integer_hessian(build_cover_potential(kind), COVERS[kind]["slots"])
        for kind in ("double_cover", "triple_cover"))
    # each entry is a sum of products side * central * side
    scale = d_side * d_central * d_side

    entries: MatrixEntries = {}
    for s in GLUABLE:
        ws = "w" + DUAL[s]
        # the products left * mid do not depend on t: one per (s2, t2)
        left_mid: dict[tuple[str, str], Poly] = {}
        for t in GLUABLE:
            wt = "w" + DUAL[t]
            acc: Poly = {}
            for s2 in CENTRAL_SLOT:
                left = side.get(("w" + DUAL[s2], ws))
                if not left:
                    continue
                for t2 in CENTRAL_SLOT:
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
                entries[(s, t)] = {m: Fraction(n, scale) for m, n in acc.items()}
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
