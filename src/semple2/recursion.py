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
a bilinear stencil: weights on (j1, insertion kinds, L1, L2, Lout),
derived once from the gluing matrix as rationals that must all be
integers, applied to the integer columns of lower degrees.
The Fraction-polynomial form of the same identity is kept in
`semple2.verify` as a differential oracle.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb, factorial, prod
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from .poly import Poly
    from .potentials import GluingMatrix

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

#: b! of each residual monomial: the invariant over its tail coefficient
LABEL_FACTORIAL: Dict[str, int] = {
    label: prod(factorial(e) for e in exps.values())
    for label, exps in LABEL_MONOMIAL.items()
}

#: identities between rows: first label is exactly three times the second
RATIO_IDENTITIES: Tuple[Tuple[str, str], ...] = (
    ("h2z", "h2hd"),
    ("h2.hz", "h2.hd2"),
    ("hd2.hz", "hd2.hd2"),
    ("hz.hz", "hd2.hz"),
    ("hz.hdz", "hd2.hdz"),
)

#: divisor insertion multipliers by basis index, as functions of the degree
DIVISOR_RULE = {
    "000": lambda d: 0,
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
#: the two product-rule terms
Stencil = Tuple[Tuple[StencilTerm, ...], ...]


def derive_stencil(matrix: GluingMatrix) -> Stencil:
    """Compile the quadratic identity through the gluing matrix (cap >= 2).

    Raises ArithmeticError unless every weight is an integer.  The
    polynomial engine is imported here, not at module level: a table
    served from the cache never derives a stencil.
    """
    from fractions import Fraction

    from .poly import homogeneous_weight, monomial, monomial_weight, mul, partial, term
    from .potentials import GLUABLE

    if matrix.cap < 2:
        raise ValueError("gluing matrix cap too small for weight-2 extraction")
    # indices that can meet a nonzero gluing-matrix row, identity excluded
    active = tuple(k for k in GLUABLE if k != "000")

    def derivative_part(label: str, j: int) -> Poly:
        """The (3d-3+j)-fold y200-derivative of a tail's L-term, per unit of n_L."""
        exps = dict(LABEL_MONOMIAL[label])
        b = exps.get("y200", 0)
        if b < j:
            return {}
        exps["y200"] = b - j
        return term(exps, Fraction(1, prod(factorial(e) for e in exps.values())))

    slices: Dict[Tuple[str, str, int], Poly] = {}
    for (s, t), p in matrix.entries.items():
        for m, c in p.items():
            slices.setdefault((s, t, monomial_weight(m)), {})[m] = c
    out_index = {monomial(LABEL_MONOMIAL[lbl]): i for i, lbl in enumerate(INVARIANT_LABELS)}

    def inserted(s: str, p: Poly) -> Poly:
        return p if s in DIVISOR_RULE else partial(p, "y" + s)

    def kind(s: str) -> Optional[str]:
        return s if s in DIVISOR_RULE else None

    weights: List[Dict[tuple, Fraction]] = [{}, {}, {}]
    for j1, acc in enumerate(weights):
        for i1, l1 in enumerate(INVARIANT_LABELS):
            left = derivative_part(l1, j1)
            for i2, l2 in enumerate(INVARIANT_LABELS):
                right = derivative_part(l2, 2 - j1)
                if not left or not right:
                    continue
                for s, t in product(active, repeat=2):
                    f, g = inserted(s, left), inserted(t, right)
                    if not f or not g:
                        continue
                    needed = 2 - homogeneous_weight(f) - homogeneous_weight(g)
                    entry = slices.get((s, t, needed))
                    if not entry:
                        continue
                    for m, c in mul(mul(f, entry), g).items():
                        if m not in out_index:
                            raise ArithmeticError(f"stencil term {m} is outside the 13 labels")
                        iout = out_index[m]
                        key = (kind(s), kind(t), i1, i2, iout)
                        acc[key] = acc.get(key, 0) \
                            + 18 * c * LABEL_FACTORIAL[INVARIANT_LABELS[iout]]
    for acc in weights:
        for key, w in acc.items():
            if w.denominator != 1:
                raise ArithmeticError(f"stencil weight {w} at {key} is not an integer")
    return tuple(tuple((*key, int(w)) for key, w in acc.items() if w) for acc in weights)


@lru_cache(maxsize=1)
def _production_stencil() -> Stencil:
    from .potentials import _shared_gluing_matrix

    return derive_stencil(_shared_gluing_matrix(2))


def recursion_rhs(d: int, columns: Dict[int, Sequence[int]],
                  stencil: Stencil) -> Tuple[int, ...]:
    """The degree-d column, in INVARIANT_LABELS order, from all lower ones."""
    if d < 2:
        raise ValueError("the recursion starts at degree 2")
    for dd in range(1, d):
        if dd not in columns:
            raise ValueError(f"missing column for degree {dd}")
    m = 3 * d - 6
    acc = [0] * len(INVARIANT_LABELS)
    for d1 in range(1, d):
        d2 = d - d1
        n1, n2 = columns[d1], columns[d2]
        k1 = {None: 1, **{s: rule(d1) for s, rule in DIVISOR_RULE.items()}}
        k2 = {None: 1, **{t: rule(d2) for t, rule in DIVISOR_RULE.items()}}
        for j1, terms in enumerate(stencil):
            a1 = 3 * d1 - 4 + j1
            c = comb(m, a1) * d1 * d2 if a1 >= 0 else 0
            c -= comb(m, a1 + 1) * d1 * d1
            if not c:
                continue
            for ks, kt, i1, i2, iout, w in terms:
                acc[iout] += c * w * k1[ks] * k2[kt] * n1[i1] * n2[i2]
    return tuple(acc)


@dataclass(frozen=True)
class InvariantTable:
    """Per-degree store of the thirteen invariants, exact integers."""

    values: Dict[int, Dict[str, int]]

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
    the seed, and each degree meets the 3:1 identities and the classical
    point count."""
    points = kontsevich_row(max(values, default=0))
    for d, column in values.items():
        if set(column) != set(INVARIANT_LABELS):
            raise CacheError(f"degree {d} does not carry exactly the 13 labels")
        if d == 1 and column != SEED:
            raise CacheError("cached degree-1 column disagrees with the seed")
        bad = ratio_failures(column)
        if bad:
            raise CacheError(f"degree {d} fails ratio identities: {'; '.join(bad)}")
        if column["h2.h2"] != points[d]:
            raise CacheError(f"degree {d} fails the point count: h2.h2 = "
                             f"{column['h2.h2']}, the classical recursion gives {points[d]}")


def table_to_json(table: InvariantTable) -> str:
    data = {str(d): {lbl: str(table.values[d][lbl]) for lbl in INVARIANT_LABELS}
            for d in table.degrees()}
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
    """Write the table atomically: a unique temporary file in the same
    directory, renamed over the target only once it is complete.

    Raises CacheError when the file cannot be created, written or renamed.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".",
                                   suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(table_to_json(table) + "\n")
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
            column = recursion_rhs(d, columns, _production_stencil())
            values[d] = dict(zip(INVARIANT_LABELS, column))
        columns[d] = tuple(values[d][lbl] for lbl in INVARIANT_LABELS)

    if cache_path and not values.keys() <= known.keys():
        merged = dict(known)
        merged.update({d: dict(col) for d, col in values.items()})
        save_table(InvariantTable(merged), cache_path)
    return InvariantTable(values)
