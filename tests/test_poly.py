import random
from fractions import Fraction

from semple2.poly import (
    add_scaled,
    homogeneous_weight,
    monomial,
    monomial_weight,
    mul,
    partial,
    term,
    truncate_weight,
)

N1 = {
    monomial({"y210": 1}): Fraction(1),
    monomial({"y201": 1}): Fraction(3),
    monomial({"y021": 1}): Fraction(-3),
    monomial({"y200": 2}): Fraction(1, 2),
    monomial({"y200": 1, "y011": 1}): Fraction(-3),
    monomial({"y011": 2}): Fraction(9, 2),
}


def random_poly(rng, nterms=4):
    names = ("y200", "y020", "y210", "y101", "y011", "z010", "w001")
    p = {}
    for _ in range(rng.randrange(nterms + 1)):
        exps = {v: rng.randrange(3) for v in rng.sample(names, rng.randrange(1, 4))}
        c = Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
        add_scaled(p, term(exps, 1), c)
    return p


def test_add_additive_inverse():
    p = term({"y200": 1}, 1)
    add_scaled(p, term({"y200": 1}, 1), -1)
    assert p == {}


def test_add_merges_coefficients():
    p = term({"y020": 2}, Fraction(1, 2))
    add_scaled(p, term({"y020": 2}, Fraction(1, 2)), 1)
    assert p == term({"y020": 2}, 1)


def test_add_weight2_seed_part():
    got = term({"y201": 1}, 3)
    add_scaled(got, term({"y210": 1}, 1), 1)
    add_scaled(got, term({"y021": 1}, 1), -3)
    linear = {m: c for m, c in N1.items() if sum(e for _, e in m) == 1}
    assert got == linear
    # the seed is weight-homogeneous of weight 2
    assert {m: c for m, c in N1.items() if monomial_weight(m) == 2} == N1
    assert got == {
        monomial({"y210": 1}): Fraction(1),
        monomial({"y201": 1}): Fraction(3),
        monomial({"y021": 1}): Fraction(-3),
    }


def test_mul_squares_variable():
    assert mul(term({"y200": 1}, 1), term({"y200": 1}, 1)) == term({"y200": 2}, 1)


def test_mul_binomial_square_is_twice_seed_quadratic():
    base = term({"y200": 1}, 1)
    add_scaled(base, term({"y011": 1}, 1), -3)
    got = mul(base, base)
    assert got == {
        monomial({"y200": 2}): Fraction(1),
        monomial({"y200": 1, "y011": 1}): Fraction(-6),
        monomial({"y011": 2}): Fraction(9),
    }
    seed_quadratic = {m: c for m, c in N1.items()
                      if sum(e for _, e in m) == 2}  # the degree-2 monomials
    assert got == {m: 2 * c for m, c in seed_quadratic.items()}


def test_mul_identity():
    rng = random.Random(7)
    for _ in range(20):
        p = random_poly(rng)
        assert mul(term({}, 1), p) == p


def test_partial_cube():
    assert partial(term({"y200": 3}, 1), "y200", 3) == term({}, 6)


def test_partial_seed_linear_term():
    assert partial(N1, "y210", 1) == term({}, 1)


def test_partial_vanishes_beyond_exponent():
    assert partial(term({"y200": 2, "y011": 1}, 1), "y011", 2) == {}


def test_truncate_drops_heavy_terms():
    p = term({"y211": 1}, 1)
    add_scaled(p, term({"y200": 1, "y020": 1}, 1), 1)
    assert truncate_weight(p, 2) == term({"y200": 1, "y020": 1}, 1)


def test_truncate_with_large_cap_is_identity():
    rng = random.Random(11)
    for _ in range(20):
        p = random_poly(rng)
        assert truncate_weight(p, 100) == p


def test_ring_axioms_random():
    rng = random.Random(2024)
    for _ in range(40):
        a, b, c = (random_poly(rng) for _ in range(3))
        ab, ba, bc = dict(a), dict(b), dict(b)
        add_scaled(ab, b, 1)
        add_scaled(ba, a, 1)
        add_scaled(bc, c, 1)
        assert ab == ba
        assert mul(a, b) == mul(b, a)
        ab_c, a_bc = dict(ab), dict(a)
        add_scaled(ab_c, c, 1)
        add_scaled(a_bc, bc, 1)
        assert ab_c == a_bc
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        distributed = mul(a, b)
        add_scaled(distributed, mul(a, c), 1)
        assert mul(a, bc) == distributed


def test_partial_commutes_random():
    rng = random.Random(99)
    names = ("y200", "y020", "y011", "z010")
    for _ in range(30):
        p = random_poly(rng)
        u, v = rng.choice(names), rng.choice(names)
        assert partial(partial(p, u), v) == partial(partial(p, v), u)


def test_weight_grading_of_products():
    rng = random.Random(5)
    for _ in range(30):
        a = {m: c for m, c in random_poly(rng).items() if monomial_weight(m) == 2}
        b = {m: c for m, c in random_poly(rng).items() if monomial_weight(m) == 1}
        p = mul(a, b)
        if p:
            assert homogeneous_weight(p) == 3


def test_truncation_compatible_with_products():
    rng = random.Random(31)
    for _ in range(30):
        a, b = random_poly(rng), random_poly(rng)
        cap = rng.randrange(5)
        direct = truncate_weight(mul(a, b), cap)
        nested = truncate_weight(
            mul(truncate_weight(a, cap), truncate_weight(b, cap)), cap)
        assert direct == nested


def test_coefficients_stay_exact_rationals():
    rng = random.Random(47)
    for _ in range(20):
        p = mul(random_poly(rng), random_poly(rng))
        for c in p.values():
            assert isinstance(c, Fraction)
            assert c != 0
