import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from semple2 import potentials
from semple2.poly import (
    monomial,
    monomial_degree_in,
    monomial_weight,
    partial,
    truncate_weight,
    variables,
)
from semple2.potentials import COVERS, GLUABLE, build_cover_potential, build_gluing_matrix
from semple2.verify import derive_stencil, expand_cover_series, kernel_source

Z_VARS = ("z010", "z110", "z210")
W_VARS = ("w001", "w101", "w201", "w011", "w021", "w211")


def test_double_cover_gluing_constant_part():
    # frozen from the brute-force expansion: (1/2) z010 z210 + (1/4) z110^2
    body = truncate_weight(build_cover_potential("double_cover"), 0)
    assert body == {
        monomial({"z010": 1, "z210": 1}): Fraction(1, 2),
        monomial({"z110": 2}): Fraction(1, 4),
    }


def test_double_cover_weight_one_terms():
    body = build_cover_potential("double_cover")
    # the single weight-1 term allowed by the subscript budget
    assert body[monomial({"y020": 1, "z010": 1, "z110": 1})] == 1
    # first-entry sums 4 are impossible
    assert monomial({"y020": 1, "z110": 1, "z210": 1}) not in body
    assert all(monomial_degree_in(m, ("z210",)) < 2 for m in body)


def test_double_cover_alphabet():
    body = build_cover_potential("double_cover")
    assert variables(body) <= {"y020", "y210", *Z_VARS}
    assert max(monomial_weight(m) for m in body) == 2


def test_triple_cover_gluing_constant_part():
    body = truncate_weight(build_cover_potential("triple_cover"), 0)
    assert body == {
        monomial({"w201": 1, "w011": 1}): Fraction(1, 3),
        monomial({"w001": 1, "w211": 1}): Fraction(1, 3),
        monomial({"w101": 1, "w021": 1}): Fraction(1, 3),
    }


def test_triple_cover_selected_coefficients():
    body = build_cover_potential("triple_cover")
    assert body[monomial({"y011": 1, "w101": 2})] == Fraction(1, 2)
    assert monomial({"w001": 2}) not in body


def test_triple_cover_alphabet():
    body = build_cover_potential("triple_cover")
    assert variables(body) <= {"y101", "y201", "y011", "y021", "y211", *W_VARS}
    assert max(monomial_weight(m) for m in body) == 3


def test_potentials_quadratic_in_gluing_slots():
    for body, gluing in (
        (build_cover_potential("double_cover"), Z_VARS),
        (build_cover_potential("triple_cover"), W_VARS),
    ):
        for m in body:
            assert monomial_degree_in(m, gluing) == 2


def test_builders_equal_brute_force_series():
    for kind in COVERS:
        assert build_cover_potential(kind) == expand_cover_series(kind)


def test_divisor_prefactors_recorded_symbolically():
    assert (COVERS["double_cover"]["divisor"], COVERS["double_cover"]["k"]) == ("y010", 2)
    assert (COVERS["triple_cover"]["divisor"], COVERS["triple_cover"]["k"]) == ("y001", 3)


def test_matrix_rejects_small_cap():
    with pytest.raises(ValueError):
        build_gluing_matrix(1)


def test_matrix_symmetry(matrix2):
    for s in GLUABLE:
        for t in GLUABLE:
            assert matrix2.get((s, t)) == matrix2.get((t, s))


def test_matrix_vanishing_rows(matrix2):
    # indices whose dual lacks an i-factor never glue to a triple-cover slot
    for s in ("001", "101", "201", "011", "021", "211"):
        for t in ("100", "200", "010"):
            assert (s, t) not in matrix2 and (t, s) not in matrix2


def test_matrix_alphabet(matrix2):
    for p in matrix2.values():
        names = variables(p)
        assert "y200" not in names
        assert not names & (set(Z_VARS) | set(W_VARS))


def test_matrix_prefactor_cancels_divisor_exponentials():
    # one double cover and two triple covers are glued
    y010_exponent = COVERS["double_cover"]["k"]
    y001_exponent = 2 * COVERS["triple_cover"]["k"]
    assert (y010_exponent, y001_exponent) == (2, 6)
    for d in range(2, 9):
        for d1 in range(1, d):
            d2 = d - d1
            assert d1 + d2 == d
            assert (2 * d1 - 2) + (2 * d2 - 2) + y010_exponent == 2 * d - 2
            assert (3 * d1 - 6) + (3 * d2 - 6) + y001_exponent == 3 * d - 6


def test_matrix_constant_entry_is_one_eighteenth(matrix2):
    # the pure point-point gluing entry; 18 times it is the unit that seeds
    # the quadratic term of the recursion
    assert matrix2[("100", "100")] == {(): Fraction(1, 18)}


def test_matrix_cap_independence(matrix2):
    m3 = build_gluing_matrix(3)
    for s in GLUABLE:
        for t in GLUABLE:
            assert truncate_weight(m3.get((s, t), {}), 2) == \
                truncate_weight(matrix2.get((s, t), {}), 2)


@pytest.mark.parametrize("kind, slots", [
    ("double_cover", Z_VARS),
    ("triple_cover", W_VARS),
], ids=["double_cover", "triple_cover"])
def test_one_pass_second_derivatives_equal_two_partials(kind, slots):
    # term for term and in the same order, which the stencil's order follows
    body = build_cover_potential(kind)
    hessian = potentials._slot_hessian(body, slots)
    for u in slots:
        for v in slots:
            expected = partial(partial(body, u), v)
            assert list(hessian.get((u, v), {}).items()) == list(expected.items())
            assert all(type(c) is Fraction for c in hessian.get((u, v), {}).values())
    assert all(hessian.values())
    assert set(hessian) <= {(u, v) for u in slots for v in slots}


def test_gluing_data_digests_are_independent_of_term_order():
    # both caps of the matrix and both bodies, each term sorted, pinned
    def digest(value):
        return hashlib.sha256(repr(value).encode()).hexdigest()

    matrices = [sorted((key, sorted(p.items())) for key, p in build_gluing_matrix(cap).items())
                for cap in (2, 3)]
    assert digest(matrices) == \
        "fc1f041237198529a01d720722bdb9df5a3747f8403514dd0dda3bf7839c7a6d"
    bodies = [sorted(build_cover_potential(kind).items())
              for kind in ("double_cover", "triple_cover")]
    assert digest(bodies) == \
        "6ca9b51d8fe3f1cf2991e963aea0abaf6dc44fe97c2fe971eb0c29d2e28584a6"


def test_matrix_keys_only_its_nonzero_entries(matrix2):
    # 19 nonzero entries with 42 terms in all at cap 2
    assert all(matrix2.values())
    assert (len(matrix2), sum(map(len, matrix2.values()))) == (19, 42)


def test_changing_a_built_matrix_leaves_the_next_build_unchanged():
    for cap in (2, 3):
        built = build_gluing_matrix(cap)
        expected = {key: dict(p) for key, p in built.items()}
        for p in built.values():
            for m in p:
                p[m] = Fraction(99)
            p[monomial({"y020": 7})] = Fraction(1)
        built[("000", "000")] = {(): Fraction(1)}
        again = build_gluing_matrix(cap)
        assert again == expected
        assert all(again[key] is not built[key] for key in expected)


def test_the_stencil_source_matrix_survives_other_builds():
    # cap 3 built and changed first must not move what cap 2 derives
    changed = build_gluing_matrix(3)
    for p in changed.values():
        p.clear()
    shipped = Path(potentials.__file__).with_name("_kernel.py").read_text(encoding="utf-8")
    assert kernel_source(derive_stencil(build_gluing_matrix(2))) == shipped
