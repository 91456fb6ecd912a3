"""Independent oracles and the bundled self-test.

Three oracles live here, sharing no code with the production stencil
beyond the polynomial substrate and the label tables:

* the classical count of rational plane curves of degree d through 3d-1
  general points (`kontsevich_row`, defined with `kontsevich` in
  `semple2.recursion` because cache validation needs it too), whose row
  through dmax, computed once per check, cross-checks one full row of the
  invariant table;

* a brute-force series expander for the two cover potentials, which
  reads the statement of each in `potentials.COVERS`, multiplies out
  truncated exponential factors and then filters monomials by the
  subscript constraints, term-for-term comparable with the finite body
  that `potentials.build_cover_potential` returns;

* the stencil compiler (`derive_stencil`), which derives the 149 integer
  weights from the gluing matrix, and the stencil read term by term
  (`stencil_rhs`), the one statement of the degree recursion that the
  shipped kernel is compared with; only these two read the divisor
  multipliers (`DIVISOR_RULE`).  The self-test evaluates
  `recursion_rhs`, which runs the shipped kernel `semple2._kernel` and
  fills the five 3:1 rows, and `stencil_rhs` on fixed 3:1 columns and
  requires the same outputs.

The self-test's own arithmetic is on ints: the gluing matrix comes as int
numerators over one denominator, the stencil compiler and the degree-1
seed divide exactly once, and the ring checks meet integral classes
only, so `verify` does not import `fractions`.  The oracle that only
tests call, `expand_cover_series`, is on Fractions, and imports
`Fraction` where it makes one.

run_selftest wires these and the golden reference tables into a single
machine-readable report list; each call builds the cap-2 gluing matrix
once for the two checks that read it.  The reference integers are test
fixtures, never inputs to any computation.

Everything here is plain data.  A report is the dict that `semple2 verify`
prints, with the keys name, status ("pass" or "fail"), expected, actual
and degrees, in that order.  The degree-1 seed is a `Poly` of int
numerators over one denominator, which `seed_invariants` reads: each of
its terms must be one of the thirteen label monomials.  The gluing matrix
is the pair that `semple2.potentials.build_gluing_matrix` returns, the
plain dict of its nonzero entries keyed by index pair, as int numerators,
and their one denominator.
"""

from collections import Counter
from math import comb, factorial, lcm, prod

from . import _kernel, chow
from .poly import (
    Poly,
    monomial,
    monomial_degree_in,
    monomial_weight,
    mul,
    partial,
    term,
    truncate_weight,
)
from .potentials import COVERS, GLUABLE, GluingMatrix, build_gluing_matrix
from .recursion import (
    CacheError,
    INVARIANT_LABELS,
    InvariantTable,
    RATIO_IDENTITIES,
    _excerpt_int,
    compute_up_to,
    kontsevich_row,
    load_table,
    ratio_failures,
    recursion_rhs,
)
from .contact import contact_coefficients

#: reference values of the thirteen invariants, degrees 1..6
TABLE1_REFERENCE: dict[str, tuple[int, ...]] = {
    "h2hd":    (1, 1, 10, 428, 51040, 13300176),
    "h2z":     (3, 3, 30, 1284, 153120, 39900528),
    "hd2z":    (-3, 0, 21, 1452, 216180, 64150200),
    "h2.h2":   (1, 1, 12, 620, 87304, 26312976),
    "h2.hd2":  (0, 2, 36, 2184, 335792, 106976160),
    "h2.hz":   (0, 6, 108, 6552, 1007376, 320928480),
    "h2.hdz":  (-3, 0, 54, 4872, 894528, 315755712),
    "hd2.hd2": (0, 4, 100, 7200, 1222192, 415085088),
    "hd2.hz":  (0, 12, 300, 21600, 3666576, 1245255264),
    "hd2.hdz": (0, 0, 150, 15912, 3223944, 1214002800),
    "hz.hz":   (0, 36, 900, 64800, 10999728, 3735765792),
    "hz.hdz":  (0, 0, 450, 47736, 9671832, 3642008400),
    "hdz.hdz": (9, 0, 63, 22860, 6556140, 2948122440),
}

#: reference triple-contact coefficient rows (c, cdual, kappa), degrees 1..6
TABLE2_REFERENCE: dict[int, tuple[int, int, int]] = {
    1: (-3, 3, 1),
    2: (0, 3, 1),
    3: (21, 30, 10),
    4: (1452, 1284, 428),
    5: (216180, 153120, 51040),
    6: (64150200, 39900528, 13300176),
}


#: divisor insertion multipliers by basis index, as functions of the degree:
#: the pairing of each basis divisor with the lifted degree-d curve
DIVISOR_RULE = {
    "100": lambda d: d,
    "010": lambda d: 2 * d - 2,
    "001": lambda d: 3 * d - 6,
}

#: the reduced variable that each class of the labels inserts
CLASS_VAR = {"h2": "y200", "hd2": "y020", "hz": "y101", "hdz": "y011",
             "h2hd": "y210", "h2z": "y201", "hd2z": "y021"}

#: residual monomial of each label (after stripping the 3d-3 forced point
#: conditions): the product of the variables of its "."-separated classes
LABEL_MONOMIAL: dict[str, dict[str, int]] = {
    label: dict(Counter(CLASS_VAR[c] for c in label.split(".")))
    for label in INVARIANT_LABELS
}

#: b! of each residual monomial: the invariant over its tail coefficient
LABEL_FACTORIAL: dict[str, int] = {
    label: prod(factorial(e) for e in exps.values())
    for label, exps in LABEL_MONOMIAL.items()
}

#: indices that can meet a nonzero gluing-matrix row, identity excluded
_ACTIVE = tuple(k for k in GLUABLE if k != "000")

#: one stencil weight: (s kind, t kind, index of L1, index of L2, index of
#: Lout, integer weight); a kind is a divisor index, or None for a derivative
StencilTerm = tuple[str | None, str | None, int, int, int, int]

#: the degree recursion as integer weights, indexed by j1 in {0, 1, 2}: for
#: a split d1 + d2 = d, each term of stencil[j1] adds weight * c * k_s(d1)
#: * k_t(d2) * n_d1[L1] * n_d2[L2] to the degree-d invariant Lout, where k
#: is the divisor multiplier of the kind (1 for a derivative) and
#: c = comb(3d-6, 3d1-4+j1) * d1*d2 - comb(3d-6, 3d1-3+j1) * d1^2 collects
#: the two product-rule terms.  The gluing matrix is symmetric, so
#: stencil[2 - j1] is stencil[j1] with the two factors swapped.
Stencil = tuple[tuple[StencilTerm, ...], ...]

def derive_stencil(matrix: GluingMatrix) -> Stencil:
    """Compile the quadratic identity through the gluing matrix (cap >= 2),
    its int numerators and their denominator L.

    The sums run on integer numerators: the matrix slices are its
    numerators, and each derivative part is scaled by the lcm P of the
    labels' b! (P = 2), so every product f * entry * g is an int
    polynomial P*P*L times the rational one.  Each weight is divided by
    P*P*L once, at the end; ArithmeticError is raised unless every weight is
    an integer.  The weights come out grouped by j1, in a fixed order.
    """
    part_scale = lcm(*LABEL_FACTORIAL.values())

    def derivative_part(label: str, j: int) -> Poly:
        """The (3d-3+j)-fold y200-derivative of a tail's L-term, per unit of
        n_L, times part_scale: an int polynomial, as (b-j)! divides b!."""
        exps = dict(LABEL_MONOMIAL[label])
        b = exps.get("y200", 0)
        if b < j:
            return {}
        exps["y200"] = b - j
        return term(exps, part_scale // prod(factorial(e) for e in exps.values()))

    entries, scale = matrix
    slices: dict[tuple[str, str, int], Poly] = {}
    for (s, t), p in entries.items():
        for m, c in p.items():
            slices.setdefault((s, t, monomial_weight(m)), {})[m] = c
    out_index = {monomial(LABEL_MONOMIAL[lbl]): (i, 18 * LABEL_FACTORIAL[lbl])
                 for i, lbl in enumerate(INVARIANT_LABELS)}

    # the nonzero insertions of each index s into the j-th part of label i,
    # in _ACTIVE order, as (s, its kind, the polynomial, its weight)
    insertions: dict[tuple[int, int], list[tuple[str, str | None, Poly, int]]] = {}
    for i, label in enumerate(INVARIANT_LABELS):
        for j in range(3):
            part = derivative_part(label, j)
            row = insertions[i, j] = []
            for s in _ACTIVE:
                if s in DIVISOR_RULE:
                    kind, f = s, part
                else:
                    kind, f = None, partial(part, "y" + s)
                if f:
                    (m,) = f
                    row.append((s, kind, f, monomial_weight(m)))

    weights: list[dict[tuple, int]] = [{}, {}, {}]
    for j1, acc in enumerate(weights):
        for i1 in range(len(INVARIANT_LABELS)):
            lefts = insertions[i1, j1]
            # f * entry does not depend on i2, only on (s, t, the weight of g)
            left_entry: dict[tuple[str, str, int], Poly] = {}
            for i2 in range(len(INVARIANT_LABELS)):
                rights = insertions[i2, 2 - j1]
                for s, ks, f, wf in lefts:
                    for t, kt, g, wg in rights:
                        entry = slices.get((s, t, 2 - wf - wg))
                        if not entry:
                            continue
                        if (s, t, wg) not in left_entry:
                            left_entry[s, t, wg] = mul(f, entry)
                        for m, c in mul(left_entry[s, t, wg], g).items():
                            if m not in out_index:
                                raise ArithmeticError(
                                    f"stencil term {m} is outside the 13 labels")
                            iout, factor = out_index[m]
                            key = (ks, kt, i1, i2, iout)
                            acc[key] = acc.get(key, 0) + factor * c
    # the one division: each weight by the scale of its three factors
    total = part_scale * part_scale * scale
    for acc in weights:
        for key, w in acc.items():
            if w % total:
                from fractions import Fraction

                raise ArithmeticError(
                    f"stencil weight {Fraction(w, total)} at {key} is not an integer")
    return tuple(tuple((*key, w // total) for key, w in acc.items() if w) for acc in weights)


def stencil_rhs(d: int, columns: dict[int, tuple[int, ...]],
                stencil: Stencil) -> tuple[int, ...]:
    """The degree-d column, in INVARIANT_LABELS order, read term by term off
    the definition above `Stencil`, for every ordered split d1 + d2 = d.

    `columns[d']` is the degree-d' column, for every d' < d.  This is the
    stencil's meaning, which the shipped kernel must compute.
    """
    m = 3 * d - 6

    def binomial(k: int) -> int:
        return comb(m, k) if k >= 0 else 0

    def multipliers(dd: int) -> dict[str | None, int]:
        return {None: 1, **{kind: rule(dd) for kind, rule in DIVISOR_RULE.items()}}

    out = [0] * len(INVARIANT_LABELS)
    for d1 in range(1, d):
        d2 = d - d1
        k1, k2, n1, n2 = multipliers(d1), multipliers(d2), columns[d1], columns[d2]
        for j1, terms in enumerate(stencil):
            c = binomial(3 * d1 - 4 + j1) * d1 * d2 - binomial(3 * d1 - 3 + j1) * d1 * d1
            for ks, kt, i1, i2, iout, w in terms:
                out[iout] += w * c * k1[ks] * k2[kt] * n1[i1] * n2[i2]
    return tuple(out)


#: the closed-form degree-1 generating polynomial, as int numerators over
#: SEED_DENOMINATOR: each term is a label's monomial (labels of value 0 have
#: none)
SEED_NUMERATORS: Poly = {
    monomial({"y210": 1}): 2,
    monomial({"y201": 1}): 6,
    monomial({"y021": 1}): -6,
    monomial({"y200": 2}): 1,
    monomial({"y200": 1, "y011": 1}): -6,
    monomial({"y011": 2}): 9,
}
SEED_DENOMINATOR = 2


def seed_invariants() -> dict[str, int]:
    """The thirteen labeled integers of the degree-1 seed: b! times the
    coefficient of each label's monomial in SEED_NUMERATORS, over
    SEED_DENOMINATOR.  ArithmeticError for a term that is not one of the
    thirteen label monomials, or for a value that is not an integer."""
    labels = {monomial(LABEL_MONOMIAL[lbl]): lbl for lbl in INVARIANT_LABELS}
    stray = [m for m in SEED_NUMERATORS if m not in labels]
    if stray:
        raise ArithmeticError(f"the degree-1 seed has terms outside the 13 labels: {stray}")
    out = dict.fromkeys(INVARIANT_LABELS, 0)
    for m, numerator in SEED_NUMERATORS.items():
        label = labels[m]
        value = numerator * LABEL_FACTORIAL[label]
        out[label], rest = divmod(value, SEED_DENOMINATOR)
        if rest:
            from fractions import Fraction

            raise ArithmeticError(f"invariant {label} at degree 1 is not an integer: "
                                  f"{Fraction(value, SEED_DENOMINATOR)}")
    return out


def _exp_factor(name: str, coeff: int, order: int) -> Poly:
    """exp(coeff * name) expanded through the given order, on Fractions."""
    from fractions import Fraction

    return {monomial({name: n}): Fraction(coeff ** n, factorial(n)) for n in range(order + 1)}


def _prune(p: Poly, gluing: tuple[str, ...], budgets) -> Poly:
    """Drop monomials that already exceed a monotone constraint bound."""
    out: Poly = {}
    for m, c in p.items():
        if monomial_degree_in(m, gluing) > 2:
            continue
        if any(sum(table.get(v, 0) * e for v, e in m) > limit
               for table, limit in budgets):
            continue
        out[m] = c
    return out


def expand_cover_series(kind: str) -> Poly:
    """Brute-force expansion of the cover potential `kind`, a key of
    `potentials.COVERS`: multiply exponential series, then keep exactly
    the constrained terms.

    Must agree term-for-term with `potentials.build_cover_potential`, its
    numerators divided by its denominator.
    """
    from fractions import Fraction

    if kind not in COVERS:
        raise ValueError(f"unknown cover kind {kind!r}")
    cover = COVERS[kind]
    k, slots, sums = cover["k"], cover["slots"], cover["sums"]
    gluing = tuple(slots)
    factors = [(y, k) for y in cover["y"]] + [(w, 1) for w in gluing]
    entries = {**cover["y"], **slots}
    # one table per subscript entry, bounded by its largest allowed sum
    budgets = [({v: e[i] for v, e in entries.items()}, max(t[i] for t in sums))
               for i in range(len(sums[0]))]

    series: Poly = {(): Fraction(1, k)}
    for name, coeff in factors:
        series = _prune(mul(series, _exp_factor(name, coeff, 4)), gluing, budgets)
    return {m: c for m, c in series.items()
            if monomial_degree_in(m, gluing) == 2
            and tuple(sum(table[v] * e for v, e in m) for table, _ in budgets) in sums}


def _report(name: str, mismatches: list[str], degrees: str,
            expected: str = "no mismatches") -> dict[str, str]:
    actual = "; ".join(mismatches[:8]) if mismatches else "no mismatches"
    return {"name": name, "status": "fail" if mismatches else "pass",
            "expected": expected, "actual": actual, "degrees": degrees}


def _check_pairing() -> dict[str, str]:
    return _report("dual-pairing-matrix", chow.pairing_failures(), "-",
                   "144 Kronecker pairings")


def _check_relations() -> dict[str, str]:
    return _report("ring-relations", chow.relation_failures(), "-",
                   "i^2 = 3(h-hd)i, i*z = 0, 1 a unit, commuting basis products")


def _check_seed() -> dict[str, str]:
    expected = "the 13 printed degree-1 values"
    try:
        values = seed_invariants()
    except ArithmeticError as exc:
        return _report("degree1-seed", [str(exc)], "1", expected)
    bad = [f"{lbl}: {values[lbl]} expected {TABLE1_REFERENCE[lbl][0]}"
           for lbl in INVARIANT_LABELS if values[lbl] != TABLE1_REFERENCE[lbl][0]]
    return _report("degree1-seed", bad, "1", expected)


def _check_table1(table: InvariantTable, dmax: int) -> dict[str, str]:
    top = min(dmax, 6)
    bad = []
    for d in range(1, top + 1):
        for lbl in INVARIANT_LABELS:
            got = table.get(d, lbl)
            want = TABLE1_REFERENCE[lbl][d - 1]
            if got != want:
                bad.append(f"{lbl}(d={d})={got} expected {want}")
    return _report("invariant-table", bad, f"1..{top}",
                   f"{13 * top} reference integers")


def _check_ratios(table: InvariantTable, dmax: int) -> dict[str, str]:
    bad = []
    for d in range(1, dmax + 1):
        for failure in ratio_failures(table.column(d)):
            bad.append(f"d={d}: {failure}")
    return _report("ratio-identities", bad, f"1..{dmax}",
                   "five 3:1 row identities per degree")


def _check_kontsevich(table: InvariantTable, dmax: int) -> dict[str, str]:
    row = kontsevich_row(dmax)
    bad = []
    for d in range(1, dmax + 1):
        got = table.get(d, "h2.h2")
        want = row[d]
        if got != want:
            bad.append(f"d={d}: {got} expected {want}")
    return _report("kontsevich-oracle", bad, f"1..{dmax}",
                   "point-condition row equals the classical recursion")


def _check_table2(table: InvariantTable, dmax: int) -> dict[str, str]:
    top = min(dmax, 6)
    bad = []
    for d in range(1, top + 1):
        got = contact_coefficients(d, table)
        want = TABLE2_REFERENCE[d]
        if got != want:
            bad.append(f"d={d}: {got} expected {want}")
    return _report("contact-coefficients", bad, f"1..{top}",
                   "reference coefficient rows")


def _check_cap_independence(m2: GluingMatrix) -> dict[str, str]:
    (e2, d2), (e3, d3) = m2, build_gluing_matrix(3)
    bad = []
    for s in GLUABLE:
        for t in GLUABLE:
            # a/d2 == b/d3 term by term: a*d3 == b*d2
            a = truncate_weight(e2.get((s, t), {}), 2)
            b = truncate_weight(e3.get((s, t), {}), 2)
            if {m: n * d3 for m, n in a.items()} != {m: n * d2 for m, n in b.items()}:
                bad.append(f"entry({s},{t}) differs at weight <= 2")
    return _report("gluing-cap-independence", bad, "-",
                   "caps 2 and 3 agree at weight <= 2")


def _check_stencil(m2: GluingMatrix) -> dict[str, str]:
    """At degrees 2..6 `recursion_rhs`, which runs the shipped kernel on its
    `degree_forms` of fixed columns and fills the five 3:1 rows, must equal
    `stencil_rhs` of the stencil derived from the cap-2 gluing matrix on
    the same columns.

    Two bilinear forms that differ anywhere differ at inputs that satisfy
    no small linear relation (after Freivalds).  The columns of degrees 1..5
    meet the 3:1 identities, which the stencil must then keep; their other
    entries, the kernel's, are successive squares of 3 modulo 2**127 - 1
    (powers of one base would be in a 3:1 ratio).  An exception from the
    kernel is a failure at the degree it is raised for.
    """
    expected = "the shipped kernel computes the stencil derived from the gluing matrix"
    try:
        stencil = derive_stencil(m2)
    except ArithmeticError as exc:
        return _report("stencil-derivation", [str(exc)], "2..6", expected)
    entry, columns = 3, {}
    for dd in range(1, 6):
        column = {}
        for lbl in INVARIANT_LABELS:
            column[lbl], entry = entry, entry ** 2 % (2 ** 127 - 1)
        for big, small in RATIO_IDENTITIES:
            column[big] = 3 * column[small]
        columns[dd] = tuple(column.values())
    forms: dict[int, tuple] = {}
    bad = []
    for d in range(2, 7):
        try:
            forms[d - 1] = _kernel.degree_forms(d - 1, columns[d - 1])
            got = recursion_rhs(d, forms)
        except Exception as exc:
            bad.append(f"d={d}: the kernel raised {exc!r}")
            break
        want = stencil_rhs(d, columns, stencil)
        if got != want:
            wrong = [lbl for lbl, g, w in zip(INVARIANT_LABELS, got, want) if g != w]
            bad.append(f"d={d}: the kernel differs at {', '.join(wrong)}")
    return _report("stencil-derivation", bad, "2..6", expected)


def _check_cache(cache_path: str, table: InvariantTable, dmax: int) -> dict[str, str]:
    """The cache must load, validate, and agree with the freshly computed
    table at every cached degree up to dmax.  A mismatch quotes the two
    values as `recursion._excerpt` cuts them, so that a hostile cache
    cannot fill stdout."""
    try:
        cached = load_table(cache_path)
    except CacheError as exc:
        return _report("cache-validation", [str(exc)], "-", "a valid cache file")
    degrees = [d for d in cached.degrees() if d <= dmax]
    bad = [f"{lbl}(d={d})={_excerpt_int(cached.get(d, lbl))} "
           f"computed {_excerpt_int(table.get(d, lbl))}"
           for d in degrees for lbl in INVARIANT_LABELS
           if cached.get(d, lbl) != table.get(d, lbl)]
    return _report("cache-validation", bad,
                   f"{degrees[0]}..{degrees[-1]}" if degrees else "-",
                   "a valid cache file equal to the computed table")


#: the reports of the checks that read the computed table, in report order
_TABLE_CHECKS = ("invariant-table", "ratio-identities", "kontsevich-oracle",
                 "contact-coefficients")


def run_selftest(dmax: int, cache_path: str | None = None) -> list[dict[str, str]]:
    """Run every oracle and property check up to the given degree; the
    reports are the records that `semple2 verify` prints."""
    if dmax < 1:
        raise ValueError("dmax must be at least 1")
    m2 = build_gluing_matrix(2)
    reports = [_check_pairing(), _check_relations(), _check_seed()]
    try:
        table = compute_up_to(dmax)
    except Exception as exc:
        # a kernel that raises: stencil-derivation names the degree, and
        # each check that reads the table fails with the exception
        raised = [f"the recursion raised {exc!r}"]
        reports += [_report(name, raised, f"1..{dmax}") for name in _TABLE_CHECKS]
        table = None
    else:
        reports += [_check_table1(table, dmax), _check_ratios(table, dmax),
                    _check_kontsevich(table, dmax), _check_table2(table, dmax)]
    reports += [_check_cap_independence(m2), _check_stencil(m2)]
    if cache_path is not None:
        reports.append(_report("cache-validation", raised, "-") if table is None
                       else _check_cache(cache_path, table, dmax))
    return reports
