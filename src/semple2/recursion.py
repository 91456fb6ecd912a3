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
factorial, independent of d'.  The whole identity therefore reduces to
a bilinear stencil: 149 integer weights on (j1, insertion kinds, L1, L2,
Lout), applied to the integer columns of lower degrees, so computing a
degree needs no polynomial arithmetic.  The 92 weights that add to the
eight rows `RATIO_IDENTITIES` does not fill read only those rows, and the
module `semple2._kernel` states them as one formula per row:
`degree_forms` computes fourteen linear forms of a degree's column, once
per degree, and `kernel` sums over the splits d1 <= d2 a few products of
these forms by split factors.  It reads the factors off the first
3*(d//2) entries of the row comb(3d-6, k), which `recursion_rhs` builds
by the multiplicative update (`binomial_row`) and passes in;
`recursion_rhs` fills the other five rows.  `compute_up_to` keeps one
tuple of forms per degree, whether the degree was computed or read from
the cache, and imports the kernel only on the first computed degree, so
that a query the cache answers never loads it.  `semple2.verify` keeps
the derivation (`derive_stencil`), the stencil read term by term
(`stencil_rhs`, which the self-test evaluates against the shipped kernel)
and the divisor multipliers that only these two read (`DIVISOR_RULE`).

A computed or cached table is an `InvariantTable`: an immutable plain class
with `__slots__` (like the value types of `semple2.contact` and the ring
elements of `semple2.chow`, which share its private base `_Frozen`), so
that no subcommand imports `dataclasses`.  The cache is the text that
`table --format csv` prints: `rows_to_csv` of the table's `table_rows`, one
writer for both.  `table_from_csv` reads it with string operations alone,
so neither writing nor reading a cache imports `json` or `csv`.  The
reader is the one place that decides whether a cache is valid.  It checks
the header and the labels in order, then each degree in full as it reads
it: its header cell, the spelling of each value and then its int(), the
seed at degree 1, the 3:1 identities, and the next classical point count.
The first bad degree refuses the cache, so no value past it is converted.
A query that reads degree k splits, reads and checks only degrees 1..k.
"""

import os
import stat
from collections.abc import Iterator
from itertools import count, islice

#: the thirteen labels in printed-table row order
INVARIANT_LABELS: tuple[str, ...] = (
    "h2hd", "h2z", "hd2z",
    "h2.h2", "h2.hd2", "h2.hz", "h2.hdz",
    "hd2.hd2", "hd2.hz", "hd2.hdz",
    "hz.hz", "hz.hdz", "hdz.hdz",
)

#: identities between rows: first label is exactly three times the second
RATIO_IDENTITIES: tuple[tuple[str, str], ...] = (
    ("h2z", "h2hd"),
    ("h2.hz", "h2.hd2"),
    ("hd2.hz", "hd2.hd2"),
    ("hz.hz", "hd2.hz"),
    ("hz.hdz", "hd2.hdz"),
)
#: the rows no identity fills, which the kernel computes, in label order
_FREE_LABELS = tuple(lbl for lbl in INVARIANT_LABELS if lbl not in dict(RATIO_IDENTITIES))

class CacheError(ValueError):
    """Raised when a persisted invariant table fails validation."""


#: the most characters of a degree key, label or number that a CacheError
#: message shows
_QUOTE_MAX = 100


def _excerpt(text: str, quote: bool = False) -> str:
    """`text`, or its repr with `quote`, as a message shows it: whole up to
    _QUOTE_MAX characters, and past that its first ones and its length, so
    that a hostile cache cannot fill stderr."""
    if len(text) <= _QUOTE_MAX:
        return repr(text) if quote else text
    head = text[:_QUOTE_MAX]
    return f"{repr(head) if quote else head}... ({len(text)} characters)"


def _excerpt_int(n: int) -> str:
    """`_excerpt(str(n))` without the `str()` of all of a long n, which is
    quadratic: its length from the bit length, and its head by division."""
    a = abs(n)
    digits = int(a.bit_length() * 0.30102999566398120) + 2  # log10(2); 0-2 over
    power = 10 ** (digits - 1)
    while a < power:
        digits, power = digits - 1, power // 10
    length = digits + (n < 0)
    if length <= _QUOTE_MAX:
        return str(n)
    head = a // (power // 10 ** (_QUOTE_MAX - 1 - (n < 0)))
    return f"{'-' if n < 0 else ''}{head}... ({length} characters)"


#: the degree-1 column: the closed-form seed of the recursion
SEED: dict[str, int] = {
    "h2hd": 1, "h2z": 3, "hd2z": -3,
    "h2.h2": 1, "h2.hd2": 0, "h2.hz": 0, "h2.hdz": -3,
    "hd2.hd2": 0, "hd2.hz": 0, "hd2.hdz": 0,
    "hz.hz": 0, "hz.hdz": 0, "hdz.hdz": 9,
}

def binomial_row(m: int, length: int | None = None) -> list[int]:
    """comb(m, k) for k = 0..m, or for k < length only, each from the one
    before by the multiplicative update comb(m, k+1) = comb(m, k) * (m-k) / (k+1)."""
    row = [1]
    for k in range(m if length is None else length - 1):
        row.append(row[-1] * (m - k) // (k + 1))
    return row


def recursion_rhs(d: int, forms: dict[int, tuple]) -> tuple[int, ...]:
    """The degree-d column, in INVARIANT_LABELS order, from the per-degree
    forms of all lower ones.

    `forms[d']` is `semple2._kernel.degree_forms(d', column)` of the
    degree-d' column.  Runs the shipped kernel (imported here, so that a
    query the cache answers never loads it) on the row comb(3d-6, k) for
    k < 3*(d//2), as far as its splits d1 <= d/2 read, then fills
    RATIO_IDENTITIES in order: big = 3 * small.
    """
    if d < 2:
        raise ValueError("the recursion starts at degree 2")
    for dd in range(1, d):
        if dd not in forms:
            raise ValueError(f"missing forms for degree {dd}")
    from ._kernel import kernel
    row = binomial_row(3 * d - 6, 3 * (d // 2))
    column = dict(zip(_FREE_LABELS, kernel(d, forms, row), strict=True))
    for big, small in RATIO_IDENTITIES:
        column[big] = 3 * column[small]
    return tuple(column[lbl] for lbl in INVARIANT_LABELS)


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

    def __init__(self, values: dict[int, dict[str, int]]):
        self._assign(values)

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.values))

    def get(self, d: int, label: str) -> int:
        if d not in self.values:
            raise KeyError(f"degree {d} not computed")
        return self.values[d][label]

    def column(self, d: int) -> dict[str, int]:
        if d not in self.values:
            raise KeyError(f"degree {d} not computed")
        return dict(self.values[d])


def ratio_failures(column: dict[str, int]) -> list:
    """Violations of the five three-to-one row identities, empty if none."""
    bad = []
    for big, small in RATIO_IDENTITIES:
        if column[big] != 3 * column[small]:
            bad.append(f"{big} != 3*{small} ({_excerpt_int(column[big])} "
                       f"vs 3*{_excerpt_int(column[small])})")
    return bad


def _point_counts() -> Iterator[int]:
    """Rational plane curves of degree d through 3d-1 general points, for
    d = 1, 2, ... in turn, by the classical quadratic recursion

        N_d = sum over d1 + d2 = d of N_d1 N_d2 d1^2 d2
              * (d2 comb(3d-4, 3d1-2) - d1 comb(3d-4, 3d1-1)),

    which reads one binomial row per degree.  The splits (d1, d2) and
    (d2, d1) share N_d1 N_d2, and comb(3d-4, 3d2-2) = comb(3d-4, 3d1-2),
    comb(3d-4, 3d2-1) = comb(3d-4, 3d1-3), so each unordered split adds

        N_d1 N_d2 d1 d2 (2 d1 d2 comb(3d-4, 3d1-2)
                         - d1^2 comb(3d-4, 3d1-1) - d2^2 comb(3d-4, 3d1-3)),

    half of it for the middle split d1 = d2: one N_d1 N_d2 product each.
    The splits d1 <= d/2 read comb(3d-4, k) only for k < 3*(d//2), so the
    row is built that far and no further."""
    counts = [0, 1]
    yield 1
    for d in count(2):
        row = binomial_row(3 * d - 4, 3 * (d // 2))
        total = 0
        for d1 in range(1, d // 2 + 1):
            d2 = d - d1
            # comb(3d-4, 3d1-3), comb(3d-4, 3d1-2) and comb(3d-4, 3d1-1)
            m3, m2, m1 = row[3 * d1 - 3:3 * d1]
            w = d1 * d2 * (2 * d1 * d2 * m2 - d1 * d1 * m1 - d2 * d2 * m3)
            total += counts[d1] * counts[d2] * (w if d1 != d2 else w // 2)
        counts.append(total)
        yield total


def kontsevich_row(dmax: int) -> list[int]:
    """Rational plane curves of degree d through 3d-1 general points, for
    d = 0..dmax (0 at d = 0), by the classical quadratic recursion."""
    return [0, *islice(_point_counts(), dmax)]


def kontsevich(d: int) -> int:
    """Rational plane curves of degree d through 3d-1 general points.

    Classical quadratic recursion, independent of the invariant stencil.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    return kontsevich_row(d)[d]


def table_rows(table: InvariantTable) -> list[list[str]]:
    """One row per invariant, in INVARIANT_LABELS order: its label, then its
    decimal strings at degrees 1..N, where N is the number of degrees the
    table holds (a table that lacks one of them is a KeyError)."""
    degrees = range(1, len(table.values) + 1)
    return [[label, *(str(table.values[d][label]) for d in degrees)]
            for label in INVARIANT_LABELS]


def rows_to_csv(rows: list[list[str]]) -> str:
    """The CSV of `table_rows`: the header `invariant,1,...,N`, then one line
    per row, without a final newline.  `table --format csv` prints this
    text, and `save_table` writes it as the cache."""
    header = ["invariant", *map(str, range(1, len(rows[0])))]
    return "\n".join(",".join(row) for row in [header, *rows])


#: the cells that open the lines of the cache: the header's, then the labels
_LINE_HEADS = ("invariant", *INVARIANT_LABELS)


def table_from_csv(text: str, dmax: int | None = None) -> InvariantTable:
    """Read and check a cache, one degree at a time; accept only the text
    `save_table` writes (`rows_to_csv` of degrees 1..N, the final newline
    optional).

    The text must be the header and one row per label, fourteen lines with
    no '\\r' in them.  Each line is split at its commas only as far as
    degree dmax, and the cells are compared in place: the header must open
    with 'invariant' and the rows with the labels in INVARIANT_LABELS order,
    and every row must end where the header does.  Then degree d = 1, 2, ...
    is checked in full before the next is read: its header cell must read
    str(d); each value must be str(n) of an int n (ASCII digits after at
    most one '-', no leading zero, not '-0') before int() reads it; degree
    1 must be the seed; the 3:1 identities must hold; and h2.h2 must be the
    next classical point count.  No other spelling (whitespace, quotes,
    leading zeros, other digit scripts) passes, and the text is read with
    string operations alone, so reading a cache imports neither `json` nor
    `csv`.

    The first bad degree refuses the cache with a CacheError: no value past
    it is converted, and the point counts are drawn only as far as it.
    With `dmax`, no line is split past degree dmax, and the table holds
    degrees 1..dmax (all of them when the cache holds fewer).
    """
    if dmax is not None and dmax < 1:
        raise ValueError("dmax must be at least 1")
    lines = text.split("\n", len(_LINE_HEADS))
    if len(lines) > len(_LINE_HEADS) and lines[-1] == "":
        del lines[-1]  # the final newline
    if len(lines) < len(_LINE_HEADS):
        raise CacheError(f"the cache ends at line {len(lines)} of the {len(_LINE_HEADS)} "
                         "semple2 writes")
    if len(lines) > len(_LINE_HEADS):
        raise CacheError(f"the cache goes on past the {len(_LINE_HEADS)} lines semple2 "
                         f"writes: {_excerpt(lines[-1], quote=True)}")
    if "\r" in text:
        raise CacheError("the cache holds a '\\r', which semple2 never writes")
    header, *rows = cells = [line.split(",", -1 if dmax is None else dmax + 1)
                             for line in lines]
    for want, line in zip(_LINE_HEADS, cells):
        if line[0] != want:
            raise CacheError(f"a line of the cache opens with {_excerpt(line[0], quote=True)} "
                             f"where semple2 writes {want!r}")
        if len(line) != len(header):
            raise CacheError(f"the row of {want} and the header end at different degrees")
    values: dict[int, dict[str, int]] = {}
    points = _point_counts()
    # past dmax, the header's last cell holds the rest of its line, unread
    for d in range(1, len(header) if dmax is None else min(len(header), dmax + 1)):
        if header[d] != str(d):
            raise CacheError(f"degree {d} of the cache reads {_excerpt(header[d], quote=True)} "
                             f"where semple2 writes {str(d)!r}")
        column = values[d] = {}
        for label, row in zip(INVARIANT_LABELS, rows):
            number = row[d]
            digits = number.removeprefix("-")
            if not (digits.isascii() and digits.isdigit() and (digits[0] != "0" or number == "0")):
                raise CacheError(f"bad integer for {label} at degree {d}: "
                                 f"{_excerpt(number, quote=True)}")
            try:
                column[label] = int(number)
            except ValueError as exc:  # only a decimal past the digit limit
                raise CacheError(f"{label} at degree {d} has more digits than the "
                                 f"interpreter's int/str conversion limit: {exc}") from exc
        if d == 1 and column != SEED:
            raise CacheError("cached degree-1 column disagrees with the seed")
        bad = ratio_failures(column)
        if bad:
            raise CacheError(f"degree {d} fails ratio identities: {'; '.join(bad)}")
        want = next(points)
        if column["h2.h2"] != want:
            raise CacheError(f"degree {d} fails the point count: h2.h2 = "
                             f"{_excerpt_int(column['h2.h2'])}, the classical recursion "
                             f"gives {_excerpt_int(want)}")
    return InvariantTable(values)


def load_table(path: str, dmax: int | None = None) -> InvariantTable:
    """`table_from_csv` of the file at `path`, degrees 1..dmax with
    `dmax`: each degree checked as it is read, and the cache refused at
    its first bad degree.  The file is read with its line ends as they are,
    so '\\r\\n' ones are refused.  A file that cannot be read is a
    CacheError."""
    if dmax is not None and dmax < 1:
        raise ValueError("dmax must be at least 1")
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CacheError(f"cannot read cache {path}: {exc}") from exc
    return table_from_csv(text, dmax)


def save_table(table: InvariantTable, path: str) -> None:
    """Write the table atomically: a new temporary file in the same
    directory, renamed over the target only once it is complete.

    The temporary file takes the mode of the cache it replaces; a new cache
    gets the mode that `open(path, "w")` would give it.  Raises CacheError
    when an invariant is too long to write, or when the file cannot be
    created, written or renamed.
    """
    try:
        text = rows_to_csv(table_rows(table)) + "\n"
    except ValueError as exc:  # only formatting an int past the digit limit raises
        raise CacheError("an invariant has more digits than the interpreter's "
                         f"int/str conversion limit: {exc}") from exc
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
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
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

    Only the cached degrees 1..dmax are read and validated; the whole
    cache is when it holds fewer, so that a rewrite keeps every checked
    degree.  The cache is rewritten only when this call adds a degree to it.
    """
    if dmax < 1:
        raise ValueError("dmax must be at least 1")
    known: dict[int, dict[str, int]] = {}
    if cache_path and os.path.exists(cache_path):
        known = load_table(cache_path, dmax).values

    # a cache holds exactly the degrees 1..N, and load_table reads none past
    # dmax, so values holds 1..min(N, dmax)
    values: dict[int, dict[str, int]] = {1: dict(SEED), **known}
    if dmax > len(values):
        from ._kernel import degree_forms
        forms = {d: degree_forms(d, tuple(column[lbl] for lbl in INVARIANT_LABELS))
                 for d, column in values.items()}
        for d in range(len(values) + 1, dmax + 1):
            column = recursion_rhs(d, forms)
            values[d] = dict(zip(INVARIANT_LABELS, column))
            forms[d] = degree_forms(d, column)

    # values gains a degree only past N, and then holds every cached one too
    if cache_path and not values.keys() <= known.keys():
        save_table(InvariantTable(values), cache_path)
    return InvariantTable(values)
