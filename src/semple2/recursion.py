"""Degree-by-degree recursion for the thirteen second-order invariants.

For each degree d the generating polynomial of invariants specified by at
least 3d-3 point conditions (the "tail" of the degree-d potential) is
weight-homogeneous of weight 3d-1 with y200-exponent at least 3d-3: it
holds exactly thirteen coefficients, n_L / (monomial factorial) for the
thirteen labeled integers n_L.  Degree 1 is the closed-form seed; every
higher degree follows from the quadratic identity

    (3d-3 fold y200-derivative of the degree-d potential)
      = 18 * sum over splits d1+d2=d, gluing indices s,t, and
        distributions of the 3d-6 extra y200-derivatives of
        { d1*d2 * D_s(tail_d1') T(s,t) D_t(tail_d2')
          - d1^2 * D_s(tail_d1) T(s,t) D_t(tail_d2'') }

where T is the gluing matrix, ' marks y200-derivatives as dictated by the
product rule, and D_s is the derivative in the reduced variable y_s or,
for a divisor index, multiplication by the pairing of that divisor with
the lifted curve class (d for h, 2d-2 for hd).  The divisor exponentials
of the two factors cancel exactly against the matrix prefactor.

A degree-d' tail survives an o-fold y200-derivative only for o <= 3d'-1,
and the product rule splits 3d-4 derivatives between the two factors, so
the only live orders are o = 3d'-3+j with j in {0, 1, 2} and j1 + j2 = 2.
The o-fold derivative of the tail is then a fixed weight-(2-j) polynomial
in the residual variables whose coefficients are the n_L over a small
factorial, independent of d'.  The whole identity therefore compiles to
a bilinear stencil: 149 integer weights on (j1, insertion kinds, L1, L2,
Lout), applied to the integer columns of lower degrees.  The weights ship
here as the literal STENCIL, so computing a degree needs no polynomial
arithmetic.  Once per process the stencil is turned into the source text
of one straight-line function (`_compiled`), which is compiled and then
computes every degree: the work of walking the 149 terms is done once
while the text is generated, and each split of each degree pays only
for its bigint products and sums.  `semple2.verify` keeps the compiler
(`derive_stencil`, which the self-test and the tests compare with the
literal) and the Fraction-polynomial form of the same identity as a
differential oracle.

A computed or cached table is an `InvariantTable`: an immutable plain class
with `__slots__` (like the value types of `semple2.contact`, the ring
elements of `semple2.chow` and the oracle types of `semple2.potentials` and
`semple2.verify`, which share its private base), so that no subcommand
imports `dataclasses`.  `DIVISOR_RULE` is the one statement of the divisor
multipliers, read by the kernel, by `chow.divisor_pairing` and by the
oracles.
"""

from __future__ import annotations

import json
import os
import stat
from collections import Counter
from functools import lru_cache
from itertools import count
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

#: the thirteen labels in printed-table row order
INVARIANT_LABELS: Tuple[str, ...] = (
    "h2hd", "h2z", "hd2z",
    "h2.h2", "h2.hd2", "h2.hz", "h2.hdz",
    "hd2.hd2", "hd2.hz", "hd2.hdz",
    "hz.hz", "hz.hdz", "hdz.hdz",
)

#: residual monomial (after stripping the 3d-3 forced point conditions)
LABEL_MONOMIAL: Dict[str, Dict[str, int]] = {
    "h2hd": {"y210": 1},
    "h2z": {"y201": 1},
    "hd2z": {"y021": 1},
    "h2.h2": {"y200": 2},
    "h2.hd2": {"y200": 1, "y020": 1},
    "h2.hz": {"y200": 1, "y101": 1},
    "h2.hdz": {"y200": 1, "y011": 1},
    "hd2.hd2": {"y020": 2},
    "hd2.hz": {"y020": 1, "y101": 1},
    "hd2.hdz": {"y020": 1, "y011": 1},
    "hz.hz": {"y101": 2},
    "hz.hdz": {"y101": 1, "y011": 1},
    "hdz.hdz": {"y011": 2},
}

#: identities between rows: first label is exactly three times the second
RATIO_IDENTITIES: Tuple[Tuple[str, str], ...] = (
    ("h2z", "h2hd"),
    ("h2.hz", "h2.hd2"),
    ("hd2.hz", "hd2.hd2"),
    ("hz.hz", "hd2.hz"),
    ("hz.hdz", "hd2.hdz"),
)

#: divisor insertion multipliers by basis index, as functions of the degree:
#: the pairing of each basis divisor with the lifted degree-d curve
DIVISOR_RULE = {
    "100": lambda d: d,
    "010": lambda d: 2 * d - 2,
    "001": lambda d: 3 * d - 6,
}


class CacheError(ValueError):
    """Raised when a persisted invariant table fails validation."""


#: the degree-1 column: the closed-form seed of the recursion
SEED: Dict[str, int] = {
    "h2hd": 1, "h2z": 3, "hd2z": -3,
    "h2.h2": 1, "h2.hd2": 0, "h2.hz": 0, "h2.hdz": -3,
    "hd2.hd2": 0, "hd2.hz": 0, "hd2.hdz": 0,
    "hz.hz": 0, "hz.hdz": 0, "hdz.hdz": 9,
}

#: one stencil weight: (s kind, t kind, index of L1, index of L2, index of
#: Lout, integer weight); a kind is a divisor index, or None for a derivative
StencilTerm = Tuple[Optional[str], Optional[str], int, int, int, int]

#: the degree recursion as integer weights, indexed by j1 in {0, 1, 2}: for
#: a split d1 + d2 = d, each term of stencil[j1] adds weight * c * k_s(d1)
#: * k_t(d2) * n_d1[L1] * n_d2[L2] to the degree-d invariant Lout, where k
#: is the divisor multiplier of the kind (1 for a derivative) and
#: c = comb(3d-6, 3d1-4+j1) * d1*d2 - comb(3d-6, 3d1-3+j1) * d1^2 collects
#: the two product-rule terms.  The gluing matrix is symmetric, so
#: stencil[2 - j1] is stencil[j1] with the two factors swapped.
Stencil = Tuple[Tuple[StencilTerm, ...], ...]


#: the stencil, exactly as `semple2.verify.derive_stencil` compiles it from
#: the gluing matrix; the self-test and the tests re-derive it and compare
STENCIL: Stencil = (
    (  # j1 = 0
        ("100", "100", 0, 3, 0, 1), (None, "100", 0, 3, 9, 6), (None, "100", 0, 3, 11, 18),
        (None, "100", 0, 3, 2, 3), (None, "100", 0, 3, 12, 9), (None, "010", 0, 3, 12, 18),
        ("100", "100", 1, 3, 1, 1), ("100", "100", 2, 3, 2, 1), ("100", "100", 3, 3, 3, 1),
        (None, "100", 3, 3, 4, 2), (None, "100", 3, 3, 5, 6), (None, "100", 3, 3, 6, 3),
        (None, "010", 3, 3, 6, 3), ("100", "100", 4, 3, 4, 1), (None, "100", 4, 3, 7, 4),
        (None, "100", 4, 3, 8, 6), (None, "100", 4, 3, 9, 3), (None, "010", 4, 3, 9, 3),
        (None, "100", 4, 3, 6, 3), ("100", "100", 5, 3, 5, 1), (None, "100", 5, 3, 8, 2),
        (None, "100", 5, 3, 10, 12), (None, "100", 5, 3, 11, 3), (None, "010", 5, 3, 11, 3),
        ("100", "100", 6, 3, 6, 1), (None, "100", 6, 3, 9, 2), (None, "100", 6, 3, 11, 6),
        (None, "100", 6, 3, 12, 6), (None, "010", 6, 3, 12, 6), ("100", "100", 7, 3, 7, 1),
        (None, "100", 7, 3, 9, 3), ("100", "100", 8, 3, 8, 1), (None, "100", 8, 3, 11, 3),
        ("100", "100", 9, 3, 9, 1), (None, "100", 9, 3, 12, 6), ("100", "100", 10, 3, 10, 1),
        ("100", "100", 11, 3, 11, 1), ("100", "100", 12, 3, 12, 1),
    ),
    (  # j1 = 1
        ("100", "100", 3, 3, 3, 2), ("100", None, 3, 3, 4, 2), ("100", None, 3, 3, 5, 6),
        ("100", None, 3, 3, 6, 3), (None, "100", 3, 3, 4, 2), (None, "100", 3, 3, 5, 6),
        (None, "100", 3, 3, 6, 3), (None, None, 3, 3, 7, 4), (None, None, 3, 3, 0, 2),
        (None, None, 3, 3, 8, 12), (None, None, 3, 3, 9, 12), (None, None, 3, 3, 1, 6),
        (None, None, 3, 3, 10, 36), (None, None, 3, 3, 11, 36), (None, None, 3, 3, 12, 18),
        (None, "010", 3, 3, 6, 3), ("010", None, 3, 3, 6, 3), ("100", "100", 3, 4, 4, 1),
        ("100", None, 3, 4, 6, 3), (None, "100", 3, 4, 7, 4), (None, "100", 3, 4, 8, 6),
        (None, "100", 3, 4, 9, 3), (None, "010", 3, 4, 9, 3), (None, None, 3, 4, 9, 6),
        (None, None, 3, 4, 11, 18), (None, None, 3, 4, 2, 3), (None, None, 3, 4, 12, 27),
        ("100", "100", 3, 5, 5, 1), (None, "100", 3, 5, 8, 2), (None, "100", 3, 5, 10, 12),
        (None, "100", 3, 5, 11, 3), (None, "010", 3, 5, 11, 3), ("100", "100", 3, 6, 6, 1),
        (None, "100", 3, 6, 9, 2), (None, "100", 3, 6, 11, 6), (None, "100", 3, 6, 12, 6),
        (None, "010", 3, 6, 12, 6), ("100", "100", 4, 3, 4, 1), ("100", None, 4, 3, 7, 4),
        ("100", None, 4, 3, 8, 6), ("100", None, 4, 3, 9, 3), ("010", None, 4, 3, 9, 3),
        (None, "100", 4, 3, 6, 3), (None, None, 4, 3, 9, 6), (None, None, 4, 3, 11, 18),
        (None, None, 4, 3, 12, 27), (None, None, 4, 3, 2, 3), ("100", "100", 4, 4, 7, 2),
        ("100", None, 4, 4, 9, 3), (None, "100", 4, 4, 9, 3), (None, None, 4, 4, 12, 18),
        ("100", "100", 4, 5, 8, 1), (None, "100", 4, 5, 11, 3), ("100", "100", 4, 6, 9, 1),
        (None, "100", 4, 6, 12, 6), ("100", "100", 5, 3, 5, 1), ("100", None, 5, 3, 8, 2),
        ("100", None, 5, 3, 10, 12), ("100", None, 5, 3, 11, 3), ("010", None, 5, 3, 11, 3),
        ("100", "100", 5, 4, 8, 1), ("100", None, 5, 4, 11, 3), ("100", "100", 5, 5, 10, 2),
        ("100", "100", 5, 6, 11, 1), ("100", "100", 6, 3, 6, 1), ("100", None, 6, 3, 9, 2),
        ("100", None, 6, 3, 11, 6), ("100", None, 6, 3, 12, 6), ("010", None, 6, 3, 12, 6),
        ("100", "100", 6, 4, 9, 1), ("100", None, 6, 4, 12, 6), ("100", "100", 6, 5, 11, 1),
        ("100", "100", 6, 6, 12, 2),
    ),
    (  # j1 = 2
        ("100", "100", 3, 0, 0, 1), ("100", None, 3, 0, 9, 6), ("100", None, 3, 0, 11, 18),
        ("100", None, 3, 0, 2, 3), ("100", None, 3, 0, 12, 9), ("010", None, 3, 0, 12, 18),
        ("100", "100", 3, 1, 1, 1), ("100", "100", 3, 2, 2, 1), ("100", "100", 3, 3, 3, 1),
        ("100", None, 3, 3, 4, 2), ("100", None, 3, 3, 5, 6), ("100", None, 3, 3, 6, 3),
        ("010", None, 3, 3, 6, 3), ("100", "100", 3, 4, 4, 1), ("100", None, 3, 4, 7, 4),
        ("100", None, 3, 4, 8, 6), ("100", None, 3, 4, 9, 3), ("100", None, 3, 4, 6, 3),
        ("010", None, 3, 4, 9, 3), ("100", "100", 3, 5, 5, 1), ("100", None, 3, 5, 8, 2),
        ("100", None, 3, 5, 10, 12), ("100", None, 3, 5, 11, 3), ("010", None, 3, 5, 11, 3),
        ("100", "100", 3, 6, 6, 1), ("100", None, 3, 6, 9, 2), ("100", None, 3, 6, 11, 6),
        ("100", None, 3, 6, 12, 6), ("010", None, 3, 6, 12, 6), ("100", "100", 3, 7, 7, 1),
        ("100", None, 3, 7, 9, 3), ("100", "100", 3, 8, 8, 1), ("100", None, 3, 8, 11, 3),
        ("100", "100", 3, 9, 9, 1), ("100", None, 3, 9, 12, 6), ("100", "100", 3, 10, 10, 1),
        ("100", "100", 3, 11, 11, 1), ("100", "100", 3, 12, 12, 1),
    ),
)


@lru_cache(maxsize=4)
def _compiled(stencil: Stencil):
    """The stencil turned into one straight-line function `kernel(d, columns)`.

    The degree-d column is a fixed bilinear form in the lower columns, so
    all that depends on the stencil alone is settled here, once per stencil
    and process, in the source text of a function that is compiled and
    executed.  In it each distinct product n_d1[L1] * n_d2[L2] is a local,
    and each of the thirteen outputs is a local with one accumulating
    statement whose weights, indices and grouping are literals.  Per split
    the kernel then does the bigint work and little else: no Python-level
    loop over terms, and no `comb` call, as the binomial factors read the
    row comb(3d-6, k), built once per degree.  The text holds only integers
    and names of this template; the divisor rules enter by name and are
    called per split, so DIVISOR_RULE stays the one definition of the
    multipliers.

    By the symmetry of the stencil the split (d2, d1) gives the same sums
    as (d1, d2) with j1 reversed, so the kernel visits each unordered split
    once and multiplies each sum by the binomial factors of both
    orientations added together.

    Raises ValueError, before any code is generated, unless the stencil is
    symmetric under swapping the two factors (as multisets of terms), every
    kind is None or a key of DIVISOR_RULE, and every index and weight is an
    int, the indices below the number of labels.
    """
    last = len(stencil) - 1
    for j1, terms in enumerate(stencil):
        swapped = Counter((kt, ks, i2, i1, iout, w)
                          for ks, kt, i1, i2, iout, w in stencil[last - j1])
        if swapped != Counter(terms):
            raise ValueError("the stencil is not symmetric under swapping the two factors")
    n = len(INVARIANT_LABELS)
    # the name of each kind's multiplier in the first and the second factor;
    # a derivative has none, its multiplier is 1
    first = {None: "", **{kind: f"s{k}" for k, kind in enumerate(DIVISOR_RULE)}}
    second = {None: "", **{kind: f"t{k}" for k, kind in enumerate(DIVISOR_RULE)}}
    # sums[iout][j1][kind factor]: the weighted products that share all three
    sums: Dict[int, Dict[int, Dict[str, List[str]]]] = {}
    for j1, terms in enumerate(stencil):
        for term in terms:
            ks, kt, i1, i2, iout, w = term
            if ks not in first or kt not in second:
                raise ValueError(f"unknown insertion kind in stencil term {term!r}")
            if {type(i1), type(i2), type(iout), type(w)} != {int} \
                    or not (0 <= i1 < n and 0 <= i2 < n and 0 <= iout < n):
                raise ValueError(f"bad index or weight in stencil term {term!r}")
            factor = "*".join(filter(None, (first[ks], second[kt])))
            sums.setdefault(iout, {}).setdefault(j1, {}).setdefault(factor, []) \
                .append(f"p{i1}_{i2}" if w == 1 else f"{w}*p{i1}_{i2}")
    used = {kind for terms in stencil for term in terms for kind in term[:2]}

    def scaled(factor: str, products: List[str]) -> str:
        return f"{factor}*({' + '.join(products)})" if factor else " + ".join(products)

    lines = ["def kernel(d, columns):",
             "    m = 3 * d - 6",
             f"    row = [0, *[comb(m, k) for k in range(m + 1)]{', 0' * last}]",
             f"    {' = '.join(f'o{i}' for i in range(n))} = 0",
             "    for d1 in range(1, d // 2 + 1):",
             "        d2 = d - d1",
             "        a = columns[d1]",
             "        b = columns[d2]"]
    for k, kind in enumerate(DIVISOR_RULE):
        if kind in used:
            lines += [f"        s{k} = rule{k}(d1)", f"        t{k} = rule{k}(d2)"]
    # with e = 3d' - 3, row[e + j] is comb(m, 3d' - 4 + j), 0 off the row
    lines += ["        both = d1 * d2", "        e1 = 3 * d1 - 3"]
    lines += [f"        c{j} = row[e1 + {j}] * both - row[e1 + {j + 1}] * d1 * d1"
              for j in range(last + 1)]
    lines += ["        if d1 != d2:", "            e2 = 3 * d2 - 3"]
    lines += [f"            c{j} += row[e2 + {last - j}] * both"
              f" - row[e2 + {last - j + 1}] * d2 * d2" for j in range(last + 1)]
    lines += [f"        p{i1}_{i2} = a[{i1}] * b[{i2}]"
              for i1, i2 in sorted({term[2:4] for terms in stencil for term in terms})]
    for iout, by_j1 in sorted(sums.items()):
        expr = " + ".join(f"c{j1}*({' + '.join(scaled(*g) for g in by_factor.items())})"
                          for j1, by_factor in sorted(by_j1.items()))
        lines.append(f"        o{iout} += {expr}")
    lines.append(f"    return {', '.join(f'o{i}' for i in range(n))}")

    namespace = {"comb": comb,
                 **{f"rule{k}": rule for k, rule in enumerate(DIVISOR_RULE.values())}}
    exec(compile("\n".join(lines), "<stencil kernel>", "exec"), namespace)
    return namespace["kernel"]


def recursion_rhs(d: int, columns: Dict[int, Sequence[int]],
                  stencil: Stencil) -> Tuple[int, ...]:
    """The degree-d column, in INVARIANT_LABELS order, from all lower ones.

    Runs the kernel that `_compiled` generates from the stencil, once per
    stencil and process, so that the per-term bookkeeping is paid at
    generation and not in every split of every degree.
    """
    if d < 2:
        raise ValueError("the recursion starts at degree 2")
    for dd in range(1, d):
        if dd not in columns:
            raise ValueError(f"missing column for degree {dd}")
    return _compiled(stencil)(d, columns)


class _Frozen:
    """Base of immutable value types whose fields are their `__slots__`.

    As a frozen dataclass: `==` and `hash` by fields, and only between
    objects of the same class; a field-by-field repr; assigning or deleting
    an attribute raises AttributeError.  Pickle and copy go through the
    constructor, which validates again.
    """

    __slots__ = ()

    def _assign(self, *values) -> None:
        """Set the fields, in `__slots__` order; for `__init__` only."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


class InvariantTable(_Frozen):
    """Per-degree store of the thirteen invariants, exact integers.

    Immutable but unhashable, since its field is a dict.
    """

    __slots__ = __match_args__ = ("values",)

    def __init__(self, values: Dict[int, Dict[str, int]]):
        self._assign(values)

    def degrees(self) -> Tuple[int, ...]:
        return tuple(sorted(self.values))

    def get(self, d: int, label: str) -> int:
        if d not in self.values:
            raise KeyError(f"degree {d} not computed")
        return self.values[d][label]

    def column(self, d: int) -> Dict[str, int]:
        if d not in self.values:
            raise KeyError(f"degree {d} not computed")
        return dict(self.values[d])


def ratio_failures(column: Dict[str, int]) -> list:
    """Violations of the five three-to-one row identities, empty if none."""
    bad = []
    for big, small in RATIO_IDENTITIES:
        if column[big] != 3 * column[small]:
            bad.append(f"{big} != 3*{small} ({column[big]} vs 3*{column[small]})")
    return bad


def kontsevich_row(dmax: int) -> List[int]:
    """Rational plane curves of degree d through 3d-1 general points, for
    d = 0..dmax (0 at d = 0), by the classical quadratic recursion."""
    row = [0, 1]
    for d in range(2, dmax + 1):
        row.append(sum(
            row[d1] * row[d - d1] * (
                d1 * d1 * (d - d1) ** 2 * comb(3 * d - 4, 3 * d1 - 2)
                - d1 ** 3 * (d - d1) * comb(3 * d - 4, 3 * d1 - 1))
            for d1 in range(1, d)))
    return row[:dmax + 1]


def kontsevich(d: int) -> int:
    """Rational plane curves of degree d through 3d-1 general points.

    Classical quadratic recursion, independent of the invariant stencil.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    return kontsevich_row(d)[d]


def validate_table(values: Dict[int, Dict[str, int]]) -> None:
    """Raise CacheError unless every column has the 13 labels, degree 1 is
    the seed, each degree meets the 3:1 identities, the degrees are exactly
    1..N, and each degree meets the classical point count.

    The point count is checked last: its row costs about N^2 bigint steps,
    which the 1..N shape bounds by the size of the table itself.
    """
    for d, column in values.items():
        if set(column) != set(INVARIANT_LABELS):
            raise CacheError(f"degree {d} does not carry exactly the 13 labels")
        if d == 1 and column != SEED:
            raise CacheError("cached degree-1 column disagrees with the seed")
        bad = ratio_failures(column)
        if bad:
            raise CacheError(f"degree {d} fails ratio identities: {'; '.join(bad)}")
    if sorted(values) != list(range(1, len(values) + 1)):
        raise CacheError("cached degrees are not exactly 1..N")
    points = kontsevich_row(len(values))
    for d, column in values.items():
        if column["h2.h2"] != points[d]:
            raise CacheError(f"degree {d} fails the point count: h2.h2 = "
                             f"{column['h2.h2']}, the classical recursion gives {points[d]}")


def table_to_json(table: InvariantTable) -> str:
    try:
        data = {str(d): {lbl: str(table.values[d][lbl]) for lbl in INVARIANT_LABELS}
                for d in table.degrees()}
    except ValueError as exc:  # only str() of an int past the digit limit raises
        raise CacheError("an invariant has more digits than the interpreter's "
                         f"int/str conversion limit: {exc}") from exc
    return json.dumps(data, indent=2)


def table_from_json(text: str) -> InvariantTable:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CacheError(f"cache is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise CacheError("cache must be a JSON object keyed by degree")
    values: Dict[int, Dict[str, int]] = {}
    for key, column in raw.items():
        try:
            d = int(key)
        except ValueError as exc:
            raise CacheError(f"bad degree key {key!r}") from exc
        if d < 1 or not isinstance(column, dict):
            raise CacheError(f"bad entry for degree {key!r}")
        parsed = {}
        for label, text_value in column.items():
            if label not in INVARIANT_LABELS:
                raise CacheError(f"unknown invariant label {label!r}")
            try:
                parsed[label] = int(text_value)
            except (TypeError, ValueError) as exc:
                # int() refuses a well-formed integer only past the digit limit
                if isinstance(text_value, str) and text_value.removeprefix("-").isdecimal():
                    raise CacheError(f"{label} at degree {d} has more digits than the "
                                     f"interpreter's int/str conversion limit: {exc}") from exc
                raise CacheError(f"bad integer for {label} at degree {d}") from exc
        values[d] = parsed
    validate_table(values)
    return InvariantTable(values)


def load_table(path: str) -> InvariantTable:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CacheError(f"cannot read cache {path}: {exc}") from exc
    return table_from_json(text)


def save_table(table: InvariantTable, path: str) -> None:
    """Write the table atomically: a new temporary file in the same
    directory, renamed over the target only once it is complete.

    The temporary file takes the mode of the cache it replaces; a new cache
    gets the mode that `open(path, "w")` would give it.  Raises CacheError
    when an invariant is too long to write, or when the file cannot be
    created, written or renamed.
    """
    text = table_to_json(table) + "\n"
    tmp = None
    try:
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            mode = None
        for n in count():
            name = f"{path}.{os.getpid()}.{n}.tmp"
            try:
                fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            except FileExistsError:
                continue
            tmp = name
            break
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            if mode is not None:
                os.chmod(tmp, mode)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
        if isinstance(exc, OSError):
            raise CacheError(f"cannot write cache {path}: {exc}") from exc
        raise


def compute_up_to(dmax: int, cache_path: str | None = None) -> InvariantTable:
    """Invariants for degrees 1..dmax, resuming from a cache when given.

    The cache is rewritten only when this call adds a degree to it.
    """
    if dmax < 1:
        raise ValueError("dmax must be at least 1")
    known: Dict[int, Dict[str, int]] = {}
    if cache_path and os.path.exists(cache_path):
        known = dict(load_table(cache_path).values)

    values: Dict[int, Dict[str, int]] = {1: dict(SEED)}
    columns: Dict[int, Tuple[int, ...]] = {}
    for d in range(1, dmax + 1):
        if d in known:
            values[d] = dict(known[d])
        elif d > 1:
            column = recursion_rhs(d, columns, STENCIL)
            values[d] = dict(zip(INVARIANT_LABELS, column))
        columns[d] = tuple(values[d][lbl] for lbl in INVARIANT_LABELS)

    if cache_path and not values.keys() <= known.keys():
        merged = dict(known)
        merged.update({d: dict(col) for d, col in values.items()})
        save_table(InvariantTable(merged), cache_path)
    return InvariantTable(values)
