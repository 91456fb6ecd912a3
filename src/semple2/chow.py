"""The intersection ring of the space of second-order curvilinear plane data.

The space is a 4-fold fibered over the incidence variety of points and
lines.  Its rational intersection ring is generated by the two hyperplane
classes h (points) and hd (lines, "h-dual") together with the class i of
the divisor at infinity, subject to

    h^3 = hd^3 = 0,   h*hd = h^2 + hd^2,   i^2 = 3*(h - hd)*i,

and the second infinity divisor z satisfies i - z = 3*(h - hd), i*z = 0.

Everything here is expressed in the 12-element "z-basis"

    1, h, h^2, hd, hd^2, h^2*hd, z, h*z, h^2*z, hd*z, hd^2*z, h^2*hd*z

whose elements are labeled by exponent triples (a,b,c) written as strings
"abc" (e.g. "210" is h^2*hd).  The dual "i-basis" replaces the z-factor
classes by i-factor classes.  The two bases pair to the identity matrix
under the integral normalized so that the top class h^2*hd*z has integral 1
(the unique normalization making the printed bases dual).

The class i is never a stored coordinate: it is always expanded through
i = z + 3*(h - hd), so each ring element has one canonical representation.

A coordinate is exact and held in one form: an int when it is integral,
and a fractions.Fraction, with denominator > 1, when it is not.  The
constructor brings every coordinate to that form, and `to_i_basis` returns
its coordinates in it too.  `str` of an int is `str` of the Fraction equal
to it, so no printed form depends on the rule.  It lets an integral class,
all that `semple2 verify` meets, be computed without `fractions`, which is
imported only where the parser reads a literal a/b and where a division
by a denominator > 1, which only a Fraction coordinate brings, is made.

The ring's structure constants, the products of two basis labels in
`_MULT`, are ints.  So `mul_classes` and `to_i_basis` sum integer
numerators, one sum per denominator (per product of two denominators for
`mul_classes`), and the single division happens at the end: one Fraction
per denominator > 1 and output coordinate, while the sums over
denominator 1 are added as ints.  They never bring the coordinates to the
lcm of all their denominators, which for a class with many long distinct
denominators would make every number many times longer.
`ChowClass.basis` hands out one shared instance per label.

The ring's consistency checks, `relation_failures` and `pairing_failures`,
run where `semple2.verify` reports them, not on import.  `ChowClass` is on
the value-type base of `semple2.recursion`.
"""

from functools import lru_cache

from .recursion import _Frozen

#: z-basis labels in canonical order (codimension 0,1,1,1,2,2,2,2,3,3,3,4
#: after sorting by degree; the order below mirrors the printed table).
LABELS: tuple[str, ...] = (
    "000", "100", "200", "010", "020", "210",
    "001", "101", "201", "011", "021", "211",
)
_LABEL_INDEX = {k: i for i, k in enumerate(LABELS)}

#: i-basis order as printed: top class first, fundamental class last.
I_BASIS_ORDER: tuple[str, ...] = LABELS[::-1]

Z_BASIS_SYMBOL: dict[str, str] = {
    "000": "1", "100": "h", "200": "h^2", "010": "hd", "020": "hd^2",
    "210": "h^2*hd", "001": "z", "101": "h*z", "201": "h^2*z",
    "011": "hd*z", "021": "hd^2*z", "211": "h^2*hd*z",
}
#: each i-basis element is its z-basis twin with the factor z replaced by i
I_BASIS_SYMBOL: dict[str, str] = {k: s.replace("z", "i") for k, s in Z_BASIS_SYMBOL.items()}


def format_coords(coords, order, symbols) -> str:
    """Symbolic form of a coordinate vector over a given ordered basis."""
    parts = []
    for label, c in zip(order, coords):
        if not c:
            continue
        mag = abs(c)
        if label == "000":
            body = str(mag)
        elif mag == 1:
            body = symbols[label]
        else:
            body = f"{mag}*{symbols[label]}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


@lru_cache(maxsize=None)
def _reduce_monomial(a: int, b: int, c: int) -> tuple[tuple[str, int], ...]:
    """Normal form of h^a * hd^b * z^c as integer combination of z-basis labels.

    Rewrites: z^2 -> 3*hd*z - 3*h*z, then h*hd -> h^2 + hd^2 on the residual
    mixed powers, with h^3 = hd^3 = 0.
    """
    if c >= 2:
        out: dict[str, int] = {}
        for lbl, k in _reduce_monomial(a, b + 1, c - 1):
            out[lbl] = out.get(lbl, 0) + 3 * k
        for lbl, k in _reduce_monomial(a + 1, b, c - 1):
            out[lbl] = out.get(lbl, 0) - 3 * k
        return tuple(sorted((l, k) for l, k in out.items() if k))
    if a >= 3 or b >= 3:
        return ()
    if (a, b) == (1, 1):
        out = {}
        for lbl, k in _reduce_monomial(2, 0, c) + _reduce_monomial(0, 2, c):
            out[lbl] = out.get(lbl, 0) + k
        return tuple(sorted((l, k) for l, k in out.items() if k))
    if (a, b) == (1, 2):
        return _reduce_monomial(2, 1, c)
    if (a, b) == (2, 2):
        return ()
    label = f"{a}{b}{c}"
    if label not in _LABEL_INDEX:
        raise AssertionError(f"reduction reached illegal monomial h^{a} hd^{b} z^{c}")
    return ((label, 1),)


def _build_mult_table() -> dict[tuple[str, str], tuple[int, ...]]:
    """Products of z-basis labels as integer structure constants, one row
    per unordered pair, shared by both orders."""
    table = {}
    for n, k1 in enumerate(LABELS):
        for k2 in LABELS[n:]:
            coords = [0] * 12
            a = int(k1[0]) + int(k2[0])
            b = int(k1[1]) + int(k2[1])
            c = int(k1[2]) + int(k2[2])
            for lbl, coeff in _reduce_monomial(a, b, c):
                coords[_LABEL_INDEX[lbl]] += coeff
            table[(k1, k2)] = table[(k2, k1)] = tuple(coords)
    return table


#: z-basis products as rows of 12 ints, as the reduction only rewrites with
#: integer coefficients; `mul_classes` and `to_i_basis` read them at call time
_MULT = _build_mult_table()


def _exact(x) -> "int | Fraction":
    """A coordinate in its one form: an int when integral, else a Fraction
    (a float becomes the exact Fraction it equals)."""
    if type(x) is int:
        return x
    if isinstance(x, float):
        from fractions import Fraction

        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class ChowClass(_Frozen):
    """A ring element as 12 exact rational coordinates in the z-basis, each
    an int when it is integral and a Fraction otherwise.

    Immutable, on the value-type base of `semple2.recursion`: `==` and
    `hash` by coordinates, only among ChowClass objects; pickle and copy go
    through the constructor.
    """

    __slots__ = __match_args__ = ("coords",)

    def __init__(self, coords: "tuple[int | Fraction, ...]"):
        if len(coords) != 12:
            raise ValueError("a class has exactly 12 coordinates")
        self._assign(tuple(map(_exact, coords)))

    @staticmethod
    def basis(label: str) -> "ChowClass":
        """The z-basis element with the given label: one shared instance
        per label, as a class is immutable."""
        if label not in _BASIS:
            raise ValueError(f"unknown basis label {label!r}")
        return _BASIS[label]

    def coordinate(self, label: str) -> "int | Fraction":
        return self.coords[_LABEL_INDEX[label]]

    def __add__(self, other: "ChowClass") -> "ChowClass":
        return ChowClass(tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        return ChowClass(tuple(x - y for x, y in zip(self.coords, other.coords)))

    def __neg__(self) -> "ChowClass":
        return ChowClass(tuple(-x for x in self.coords))

    def scaled(self, value: "int | Fraction") -> "ChowClass":
        c = _exact(value)
        return ChowClass(tuple(x * c for x in self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __str__(self) -> str:
        return format_coords(self.coords, LABELS, Z_BASIS_SYMBOL)


#: the instances `ChowClass.basis` returns
_BASIS: dict[str, ChowClass] = {
    label: ChowClass((0,) * n + (1,) + (0,) * (11 - n)) for n, label in enumerate(LABELS)
}

H = ChowClass.basis("100")
HD = ChowClass.basis("010")
Z = ChowClass.basis("001")
ONE = ChowClass.basis("000")
#: the divisor at infinity, expanded through i = z + 3(h - hd)
I_CLASS = Z + H.scaled(3) - HD.scaled(3)


def _by_denominator(coords) -> dict[int, list[tuple[str, int]]]:
    """The nonzero coordinates as (label, numerator) pairs, grouped by
    denominator."""
    groups: dict[int, list[tuple[str, int]]] = {}
    for label, x in zip(LABELS, coords):
        if x:
            groups.setdefault(x.denominator, []).append((label, x.numerator))
    return groups


def _divide(sums: dict[int, list[int]]) -> "list[int | Fraction]":
    """The 12 coordinates sum over D of sums[D][j] / D: the sums over D = 1
    are added as ints, and there is one Fraction per other denominator D
    and nonzero numerator sum."""
    coords = list(sums.get(1, (0,) * 12))
    for den, numerators in sums.items():
        if den != 1:
            from fractions import Fraction

            for j, n in enumerate(numerators):
                if n:
                    coords[j] += Fraction(n, den)
    return coords


def mul_classes(a: ChowClass, b: ChowClass) -> ChowClass:
    """The ring product.  Numerators are summed as ints per product of two
    denominators, and each sum is divided once; the lcm of all denominators
    would lengthen every number when they differ."""
    right = _by_denominator(b.coords)
    sums: dict[int, list[int]] = {}
    for den1, left in _by_denominator(a.coords).items():
        for den2, terms in right.items():
            acc = sums.setdefault(den1 * den2, [0] * 12)
            for k1, x1 in left:
                for k2, x2 in terms:
                    f = x1 * x2
                    for j, k in enumerate(_MULT[k1, k2]):
                        if k:
                            acc[j] += f * k
    return ChowClass(_divide(sums))


def integrate(a: ChowClass) -> "int | Fraction":
    """Integral over the 4-fold: the coordinate of the top class h^2*hd*z."""
    return a.coordinate("211")


def i_basis_class(label: str) -> ChowClass:
    """The i-basis element with the given label, as a z-basis class."""
    if label not in _LABEL_INDEX:
        raise ValueError(f"unknown basis label {label!r}")
    a, b, c = (int(ch) for ch in label)
    base = ChowClass.basis(f"{a}{b}0")
    return mul_classes(base, I_CLASS) if c else base


def _dual_table() -> dict[str, str]:
    duals = {}
    for k in LABELS:
        matches = []
        for total in ((2, 1, 1), (1, 2, 1)):
            cand = tuple(t - int(ch) for t, ch in zip(total, k))
            lbl = "".join(str(x) for x in cand)
            if all(x >= 0 for x in cand) and lbl in _LABEL_INDEX:
                matches.append(lbl)
        matches = sorted(set(matches))
        if len(matches) != 1:
            raise AssertionError(f"dual of {k} is not unique: {matches}")
        duals[k] = matches[0]
    return duals


DUAL: dict[str, str] = _dual_table()


def to_i_basis(a: ChowClass) -> "tuple[int | Fraction, ...]":
    """Coordinates in the i-basis, ordered as I_BASIS_ORDER, each an int
    when it is integral and a Fraction otherwise.

    The z-basis and the i-basis are dual, so the coordinate of i_l is the
    integral of z_{DUAL[l]} * a: the sum, over the nonzero coordinates c_k
    of a, of c_k times the top structure constant of z_{DUAL[l]} * z_k.
    Numerators are summed as ints per denominator of a, and each sum is
    divided once.
    """
    top = _LABEL_INDEX["211"]
    sums = {den: [sum(x * _MULT[DUAL[l], k][top] for k, x in terms) for l in I_BASIS_ORDER]
            for den, terms in _by_denominator(a.coords).items()}
    return tuple(map(_exact, _divide(sums)))


def relation_failures() -> list[str]:
    """The printed relations i^2 = 3(h - hd)i and i*z = 0 that fail under
    the derived rewrite z^2 -> 3(hd - h)z, then the entries of the
    multiplication table where 1 is no unit or the factors do not commute;
    empty if none."""
    bad = []
    if mul_classes(I_CLASS, I_CLASS) != mul_classes((H - HD).scaled(3), I_CLASS):
        bad.append("i^2 != 3(h-hd)i")
    if not mul_classes(I_CLASS, Z).is_zero():
        bad.append("i*z != 0")
    for k in LABELS:
        unit = tuple(int(label == k) for label in LABELS)
        if _MULT[("000", k)] != unit or _MULT[(k, "000")] != unit:
            bad.append(f"1*{Z_BASIS_SYMBOL[k]} != {Z_BASIS_SYMBOL[k]}")
    for n, a in enumerate(LABELS):
        for b in LABELS[n + 1:]:
            if _MULT[(a, b)] != _MULT[(b, a)]:
                bad.append(f"{Z_BASIS_SYMBOL[a]}*{Z_BASIS_SYMBOL[b]} != "
                           f"{Z_BASIS_SYMBOL[b]}*{Z_BASIS_SYMBOL[a]}")
    return bad


def pairing_failures() -> list[str]:
    """The z-basis/i-basis pairings that are not Kronecker; empty if none.

    The pairing of z_k with i_l is coordinate DUAL[k] of to_i_basis(i_l),
    so this checks that to_i_basis maps each i_l to its unit vector.
    """
    coords = {l: dict(zip(I_BASIS_ORDER, to_i_basis(i_basis_class(l)))) for l in LABELS}
    bad = []
    for k in LABELS:
        for l in LABELS:
            value = coords[l][DUAL[k]]
            expect = int(l == DUAL[k])
            if value != expect:
                bad.append(f"pair({k},{l})={value} expected {expect}")
    return bad


class ChowParseError(ValueError):
    """Raised when a class expression does not parse."""


_SYMBOLS = {"h": H, "hd": HD, "i": I_CLASS, "z": Z}

#: most decimal digits of a number the parser reads or builds: the
#: interpreter's default int/str conversion limit, which refused longer
#: literals before `cli.main` lifted it for the tables; with it every step
#: of a parse costs a bounded time
MAX_DIGITS = 4300
_TOO_LONG = 10 ** MAX_DIGITS

#: largest exponent the parser accepts, so that a power takes at most 60
#: products; a scalar part reaches MAX_DIGITS long before it
MAX_EXPONENT = 10 ** 9


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch in " \t\n\r\x0b\x0c":  # string.whitespace: str.isspace also takes "\u3000"
            pos += 1
            continue
        if ch in "+-*^()/":
            tokens.append((ch, ch))
            pos += 1
            continue
        if "0" <= ch <= "9":  # ASCII only: str.isdigit also takes "²" and "３"
            start = pos
            while pos < len(text) and "0" <= text[pos] <= "9":
                pos += 1
            if pos - start > MAX_DIGITS:
                raise ChowParseError(f"numeric literal longer than {MAX_DIGITS} digits")
            tokens.append(("num", int(text[start:pos])))
            continue
        if ch.isalpha():
            start = pos
            while pos < len(text) and text[pos].isalpha():
                pos += 1
            run = text[start:pos]
            # greedy split of a letter run into known symbols, so that
            # adjacency like "hz" or "hdz" means a product
            while run:
                for sym in ("hd", "h", "i", "z"):
                    if run.startswith(sym):
                        tokens.append(("sym", sym))
                        run = run[len(sym):]
                        break
                else:
                    raise ChowParseError(f"unknown symbol in {text[start:pos]!r}")
            continue
        raise ChowParseError(f"unexpected character {ch!r}")
    return tokens


#: deepest nesting of parentheses and unary minus signs the parser accepts;
#: each level costs a few Python frames, so this stays well inside the
#: interpreter's recursion limit
MAX_NESTING = 100


def _bounded(a: ChowClass) -> ChowClass:
    """`a`, unless a coordinate has a numerator or denominator of more than
    MAX_DIGITS digits; nested powers and long products would otherwise
    build numbers of unbounded length from a short expression."""
    for x in a.coords:
        if abs(x.numerator) >= _TOO_LONG or x.denominator >= _TOO_LONG:
            raise ChowParseError(f"a coefficient has more than {MAX_DIGITS} digits")
    return a


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self) -> ChowClass:
        kind, _ = self.peek()
        negate = False
        if kind in ("+", "-"):
            negate = self.take()[0] == "-"
        out = self.term()
        if negate:
            out = -out
        while True:
            kind, _ = self.peek()
            if kind == "+":
                self.take()
                out = _bounded(out + self.term())
            elif kind == "-":
                self.take()
                out = _bounded(out - self.term())
            else:
                return out

    def term(self) -> ChowClass:
        out = self.factor()
        while True:
            kind, _ = self.peek()
            if kind == "*":
                self.take()
                out = _bounded(mul_classes(out, self.factor()))
            elif kind in ("sym", "num", "("):
                # implicit product from adjacency
                out = _bounded(mul_classes(out, self.factor()))
            else:
                return out

    def factor(self) -> ChowClass:
        base = self.atom()
        kind, _ = self.peek()
        if kind == "^":
            self.take()
            k2, v = self.take()
            if k2 != "num":
                raise ChowParseError("exponent must be a nonnegative integer")
            if v > MAX_EXPONENT:
                raise ChowParseError(f"exponent above {MAX_EXPONENT}")
            # square-and-multiply: about 2*log2(v) products
            out = ONE
            while v:
                if v & 1:
                    out = _bounded(mul_classes(out, base))
                v >>= 1
                if v:
                    base = _bounded(mul_classes(base, base))
            return out
        return base

    def nested(self, parse) -> ChowClass:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ChowParseError(f"expression nested deeper than {MAX_NESTING} levels")
        out = parse()
        self.depth -= 1
        return out

    def atom(self) -> ChowClass:
        kind, value = self.take()
        if kind == "(":
            inner = self.nested(self.expr)
            k2, _ = self.take()
            if k2 != ")":
                raise ChowParseError("unbalanced parenthesis")
            return inner
        if kind == "-":
            return -self.nested(self.atom)
        if kind == "sym":
            return _SYMBOLS[value]
        if kind == "num":
            k2, _ = self.peek()
            if k2 == "/":
                self.take()
                k3, den = self.take()
                if k3 != "num" or den == 0:
                    raise ChowParseError("malformed rational literal")
                from fractions import Fraction

                return ONE.scaled(Fraction(value, den))
            return ONE.scaled(value)
        raise ChowParseError("unexpected end of expression")


def parse_class_expr(text: str) -> ChowClass:
    """Evaluate an expression in h, hd, i, z with + - * ^ and rationals."""
    parser = _Parser(_tokenize(text))
    out = parser.expr()
    if parser.pos != len(parser.tokens):
        raise ChowParseError("trailing input after expression")
    return out
