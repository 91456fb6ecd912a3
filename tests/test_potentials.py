from fractions import Fraction

import pytest

from semple2.poly import (
    monomial,
    monomial_degree_in,
    truncate_weight,
    variables,
)
from semple2.potentials import (
    GLUABLE,
    build_double_cover_potential,
    build_gluing_matrix,
    build_triple_cover_potential,
)
from semple2.verify import expand_cover_series

Z_VARS = ("z010", "z110", "z210")
W_VARS = ("w001", "w101", "w201", "w011", "w021", "w211")


def test_double_cover_gluing_constant_part():
    # frozen from the brute-force expansion: (1/2) z010 z210 + (1/4) z110^2
    body = build_double_cover_potential(0).body
    assert body == {
        monomial({"z010": 1, "z210": 1}): Fraction(1, 2),
        monomial({"z110": 2}): Fraction(1, 4),
    }


def test_double_cover_weight_one_terms():
    body = build_double_cover_potential(2).body
    # the single weight-1 term allowed by the subscript budget
    assert body[monomial({"y020": 1, "z010": 1, "z110": 1})] == 1
    # first-entry sums 4 are impossible
    assert monomial({"y020": 1, "z110": 1, "z210": 1}) not in body
    assert all(monomial_degree_in(m, ("z210",)) < 2 for m in body)


def test_double_cover_alphabet():
    body = build_double_cover_potential(2).body
    assert variables(body) <= {"y020", "y210", *Z_VARS}


def test_triple_cover_gluing_constant_part():
    body = build_triple_cover_potential(0).body
    assert body == {
        monomial({"w201": 1, "w011": 1}): Fraction(1, 3),
        monomial({"w001": 1, "w211": 1}): Fraction(1, 3),
        monomial({"w101": 1, "w021": 1}): Fraction(1, 3),
    }


def test_triple_cover_selected_coefficients():
    body = build_triple_cover_potential(3).body
    assert body[monomial({"y011": 1, "w101": 2})] == Fraction(1, 2)
    assert monomial({"w001": 2}) not in body


def test_triple_cover_alphabet():
    body = build_triple_cover_potential(3).body
    assert variables(body) <= {"y101", "y201", "y011", "y021", "y211", *W_VARS}


def test_potentials_quadratic_in_gluing_slots():
    for pot, gluing in (
        (build_double_cover_potential(2), Z_VARS),
        (build_triple_cover_potential(3), W_VARS),
    ):
        for m in pot.body:
            assert monomial_degree_in(m, gluing) == 2


def test_builders_equal_brute_force_series():
    for cap in range(4):
        assert build_double_cover_potential(cap).body == \
            expand_cover_series("double_cover", cap)
        assert build_triple_cover_potential(cap).body == \
            expand_cover_series("triple_cover", cap)


def test_divisor_prefactors_recorded_symbolically():
    assert (build_double_cover_potential(2).divisor_var,
            build_double_cover_potential(2).divisor_coeff) == ("y010", 2)
    assert (build_triple_cover_potential(3).divisor_var,
            build_triple_cover_potential(3).divisor_coeff) == ("y001", 3)


def test_matrix_rejects_small_cap():
    with pytest.raises(ValueError):
        build_gluing_matrix(1)


def test_matrix_symmetry(matrix2):
    for s in GLUABLE:
        for t in GLUABLE:
            assert matrix2.entry(s, t) == matrix2.entry(t, s)


def test_matrix_vanishing_rows(matrix2):
    # indices whose dual lacks an i-factor never glue to a triple-cover slot
    for s in ("001", "101", "201", "011", "021", "211"):
        for t in ("100", "200", "010"):
            assert matrix2.entry(s, t) == {}
            assert matrix2.entry(t, s) == {}


def test_matrix_alphabet(matrix2):
    for p in matrix2.entries.values():
        names = variables(p)
        assert "y200" not in names
        assert not names & (set(Z_VARS) | set(W_VARS))


def test_matrix_prefactor_cancels_divisor_exponentials(matrix2):
    assert matrix2.y010_exponent == 2
    assert matrix2.y001_exponent == 6
    for d in range(2, 9):
        for d1 in range(1, d):
            d2 = d - d1
            assert d1 + d2 == d
            assert (2 * d1 - 2) + (2 * d2 - 2) + matrix2.y010_exponent == 2 * d - 2
            assert (3 * d1 - 6) + (3 * d2 - 6) + matrix2.y001_exponent == 3 * d - 6


def test_matrix_constant_entry_is_one_eighteenth(matrix2):
    # the pure point-point gluing entry; 18 times it is the unit that seeds
    # the quadratic term of the recursion
    assert matrix2.entry("100", "100") == {(): Fraction(1, 18)}


def test_matrix_cap_independence(matrix2):
    m3 = build_gluing_matrix(3)
    for s in GLUABLE:
        for t in GLUABLE:
            assert truncate_weight(m3.entry(s, t), 2) == \
                truncate_weight(matrix2.entry(s, t), 2)
