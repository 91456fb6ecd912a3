import random
from fractions import Fraction

import pytest

from semple2 import chow
from semple2.chow import (
    ChowClass,
    ChowParseError,
    DUAL,
    H,
    HD,
    I_BASIS_ORDER,
    I_CLASS,
    LABELS,
    ONE,
    Z,
    i_basis_class,
    integrate,
    mul_classes,
    parse_class_expr,
    to_i_basis,
)
from semple2.verify import DIVISOR_RULE

H2 = mul_classes(H, H)
HD2 = mul_classes(HD, HD)


def test_structure_constants_are_ints():
    assert len(chow._MULT) == 144
    assert {type(k) for row in chow._MULT.values() for k in row} == {int}


def test_mixed_hyperplane_product():
    assert mul_classes(H, HD) == H2 + HD2


def test_infinity_divisors_disjoint():
    assert mul_classes(I_CLASS, Z).is_zero()


def test_z_square_rewrite():
    # derived from i*z = 0 and i = z + 3(h - hd)
    expected = mul_classes(HD, Z).scaled(3) - mul_classes(H, Z).scaled(3)
    assert mul_classes(Z, Z) == expected


def test_i_square_relation():
    assert mul_classes(I_CLASS, I_CLASS) == mul_classes((H - HD).scaled(3), I_CLASS)


def test_h2_hd2_vanishes():
    # normal-form oracle: h^2 hd^2 = h (h hd) hd = h^3 hd + h hd^3 = 0
    assert mul_classes(H2, HD2).is_zero()


def test_cube_relations():
    assert mul_classes(H2, H).is_zero()
    assert mul_classes(HD2, HD).is_zero()


def test_integrate_top_class():
    top = mul_classes(mul_classes(H2, HD), Z)
    assert integrate(top) == 1


def test_integrate_top_against_i():
    assert integrate(mul_classes(mul_classes(H2, HD), I_CLASS)) == 1


def test_integrate_below_top_degree():
    assert integrate(H2) == 0


def test_dual_index_examples():
    assert DUAL["000"] == "211"
    assert DUAL["100"] == "021"
    assert DUAL["020"] == "101"


def test_dual_index_unique_and_involutive():
    assert sorted(DUAL.values()) == sorted(LABELS)
    for k in LABELS:
        assert DUAL[DUAL[k]] == k


def test_pairing_matrix_is_kronecker():
    for k in LABELS:
        for l in LABELS:
            value = integrate(mul_classes(ChowClass.basis(k), i_basis_class(l)))
            assert value == (1 if l == DUAL[k] else 0), (k, l)


def test_to_i_basis_of_z():
    coords = dict(zip(I_BASIS_ORDER, to_i_basis(Z)))
    nonzero = {k: v for k, v in coords.items() if v}
    assert nonzero == {"001": 1, "100": -3, "010": 3}  # z = i - 3h + 3hd


def test_to_i_basis_fixes_shared_elements():
    coords = dict(zip(I_BASIS_ORDER, to_i_basis(H)))
    assert {k: v for k, v in coords.items() if v} == {"100": 1}


def test_hz_minus_3hd2_is_hi():
    cls = mul_classes(H, Z) - HD2.scaled(3)
    coords = dict(zip(I_BASIS_ORDER, to_i_basis(cls)))
    assert {k: v for k, v in coords.items() if v} == {"101": 1}


def test_triple_products():
    def triple(a, b, c):
        return integrate(mul_classes(mul_classes(a, b), c))

    assert triple(H, H, i_basis_class("011")) == 1  # h.h.(hd i)
    assert triple(H, H, i_basis_class("201")) == 0  # h.h.(h^2 i)
    assert triple(ONE, ONE, H2) == 0


def test_divisor_pairing_cases():
    # each basis divisor pairs with the lifted degree-d curve to its
    # multiplier in DIVISOR_RULE, so i = z + 3h - 3hd pairs to 0: the lift
    # of an immersion misses the divisor at infinity
    assert {k for k, c in zip(LABELS, I_CLASS.coords) if c} == set(DIVISOR_RULE)
    for d in (1, 2, 3, 7):
        assert DIVISOR_RULE["100"](d) == d
        assert DIVISOR_RULE["010"](d) == 2 * d - 2
        assert DIVISOR_RULE["001"](d) == 3 * d - 6
        assert sum(I_CLASS.coordinate(k) * rule(d) for k, rule in DIVISOR_RULE.items()) == 0


def test_characteristic_number_with_z_insertion():
    # <h^2 . h^2>_1 = 1 lines through two points; the z-insertion multiplies
    # by the pairing 3d-6 = -3, a characteristic number without enumerative
    # meaning
    assert DIVISOR_RULE["001"](1) * 1 == -3


def test_mul_commutative_associative_on_basis():
    classes = [ChowClass.basis(k) for k in LABELS]
    for a in classes:
        for b in classes:
            assert mul_classes(a, b) == mul_classes(b, a)
    rng = random.Random(17)
    for _ in range(60):
        a, b, c = (rng.choice(classes) for _ in range(3))
        assert mul_classes(mul_classes(a, b), c) == mul_classes(a, mul_classes(b, c))


def test_grading_of_basis_products():
    for k in LABELS:
        for l in LABELS:
            prod = mul_classes(ChowClass.basis(k), ChowClass.basis(l))
            # the codimension of a label is its digit sum
            q = sum(map(int, k + l))
            for j, coeff in enumerate(prod.coords):
                if coeff:
                    assert sum(map(int, LABELS[j])) == q


def test_parse_simple_products():
    assert parse_class_expr("i*z").is_zero()
    assert parse_class_expr("h*hd") == H2 + HD2
    assert integrate(parse_class_expr("h^2*hd*z")) == 1


def test_parse_adjacency_and_rationals():
    assert parse_class_expr("hz") == mul_classes(H, Z)
    assert parse_class_expr("hdz") == mul_classes(HD, Z)
    assert parse_class_expr("1/2*h + 1/2*h") == H
    assert parse_class_expr("-(h - hd)") == HD - H
    assert parse_class_expr("(h + hd)^2") == mul_classes(H + HD, H + HD)


def test_parse_errors():
    for bad in ("h +", "q", "h^x", "h^", "h^z", "(h", "3/0*h", "h)", "", "h²", "３", "٣h",
                "𝟑", "h\u3000+ z", "h\u00a0+ z", "h\x1c+ z"):
        with pytest.raises(ChowParseError):
            parse_class_expr(bad)


def test_power_equals_repeated_product():
    base = parse_class_expr("1+h+z")
    repeated = ONE
    for n in range(13):
        assert parse_class_expr(f"(1+h+z)^{n}") == repeated, n
        repeated = mul_classes(repeated, base)


def test_huge_power_takes_logarithmically_many_products(monkeypatch):
    calls = []
    real = chow.mul_classes

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(chow, "mul_classes", counted)
    assert parse_class_expr("h^3000000").is_zero()
    assert 0 < len(calls) <= 2 * (3000000 - 1).bit_length()  # 2*ceil(log2 n)


def test_pairing_check_reads_the_i_basis_off_the_pairing(monkeypatch):
    # 6 products build the i-basis, which is read back off the structure
    # constants, not through 12 products per element
    calls = []
    real = chow.mul_classes

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(chow, "mul_classes", counted)
    assert chow.pairing_failures() == []
    assert len(calls) == 6


def test_nesting_up_to_the_limit_evaluates():
    assert parse_class_expr("(" * 50 + "h" + ")" * 50) == H
    assert parse_class_expr("-" * 50 + "h") == H
    deepest = "(-" * (chow.MAX_NESTING // 2) + "h" + ")" * (chow.MAX_NESTING // 2)
    assert parse_class_expr(deepest) == H


@pytest.mark.parametrize("text", [
    "(" * (chow.MAX_NESTING + 1) + "h" + ")" * (chow.MAX_NESTING + 1),
    "-" * (chow.MAX_NESTING + 2) + "h",
])
def test_nesting_past_the_limit_is_a_parse_error(text):
    with pytest.raises(ChowParseError, match="nested deeper"):
        parse_class_expr(text)


def test_literals_up_to_the_digit_limit_evaluate():
    longest = "9" * chow.MAX_DIGITS
    assert parse_class_expr(longest + "*h") == H.scaled(int(longest))
    assert parse_class_expr(f"1/{longest}*h") == H.scaled(Fraction(1, int(longest)))


@pytest.mark.parametrize("text", ["1" + "0" * chow.MAX_DIGITS + "*h",
                                  "h/" + "1" * (chow.MAX_DIGITS + 1)])
def test_a_literal_past_the_digit_limit_is_a_parse_error(text):
    with pytest.raises(ChowParseError, match="longer than 4300 digits"):
        parse_class_expr(text)


def test_exponents_up_to_the_limit_evaluate():
    assert parse_class_expr(f"h^{chow.MAX_EXPONENT}").is_zero()
    assert parse_class_expr(f"(1+h)^{chow.MAX_EXPONENT}") == \
        ONE + H.scaled(chow.MAX_EXPONENT) + mul_classes(H, H).scaled(
            chow.MAX_EXPONENT * (chow.MAX_EXPONENT - 1) // 2)


@pytest.mark.parametrize("text", [f"h^{chow.MAX_EXPONENT + 1}", "(1+h)^" + "9" * 4300])
def test_an_exponent_past_the_limit_is_a_parse_error(text):
    with pytest.raises(ChowParseError, match="exponent above"):
        parse_class_expr(text)


def test_values_up_to_the_digit_limit_evaluate():
    # 10^4299, the largest power of ten with 4300 digits, as a power, a
    # product and a sum
    assert parse_class_expr("(10^1000)^4*10^299 - 1 + 1") == ONE.scaled(10 ** 4299)


@pytest.mark.parametrize("text", [
    "(10^1000)^4*10^300",       # a product
    "(10^1000)^5",              # a power
    "((2^1000)^1000)^1000",     # a tower of powers, 2^(10^9) if evaluated
    "9" * 4300 + " + 1",        # a sum
])
def test_a_value_past_the_digit_limit_is_a_parse_error(text):
    with pytest.raises(ChowParseError, match="more than 4300 digits"):
        parse_class_expr(text)
