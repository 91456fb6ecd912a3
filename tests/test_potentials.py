import hashlib
from fractions import Fraction
from math import lcm

import pytest

from semple2 import potentials, verify
from semple2.poly import (
    monomial,
    monomial_degree_in,
    monomial_weight,
    partial,
    truncate_weight,
    variables,
)
from semple2.potentials import COVERS, GLUABLE, build_cover_potential, build_gluing_matrix
from semple2.verify import expand_cover_series

Z_VARS = ("z010", "z110", "z210")
W_VARS = ("w001", "w101", "w201", "w011", "w021", "w211")


def rational(numerators, den):
    """The polynomial that int numerators over `den` stand for."""
    return {m: Fraction(n, den) for m, n in numerators.items()}


def cover(kind):
    """The body of the cover potential `kind` on Fractions."""
    return rational(*build_cover_potential(kind))


def rational_matrix(matrix):
    """The gluing matrix's entries on Fractions."""
    entries, den = matrix
    return {key: rational(p, den) for key, p in entries.items()}


def test_double_cover_gluing_constant_part():
    # frozen from the brute-force expansion: (1/2) z010 z210 + (1/4) z110^2
    body = truncate_weight(cover("double_cover"), 0)
    assert body == {
        monomial({"z010": 1, "z210": 1}): Fraction(1, 2),
        monomial({"z110": 2}): Fraction(1, 4),
    }


def test_double_cover_weight_one_terms():
    body = cover("double_cover")
    # the single weight-1 term allowed by the subscript budget
    assert body[monomial({"y020": 1, "z010": 1, "z110": 1})] == 1
    # first-entry sums 4 are impossible
    assert monomial({"y020": 1, "z110": 1, "z210": 1}) not in body
    assert all(monomial_degree_in(m, ("z210",)) < 2 for m in body)


def test_double_cover_alphabet():
    body, _ = build_cover_potential("double_cover")
    assert variables(body) <= {"y020", "y210", *Z_VARS}
    assert max(monomial_weight(m) for m in body) == 2


def test_triple_cover_gluing_constant_part():
    body = truncate_weight(cover("triple_cover"), 0)
    assert body == {
        monomial({"w201": 1, "w011": 1}): Fraction(1, 3),
        monomial({"w001": 1, "w211": 1}): Fraction(1, 3),
        monomial({"w101": 1, "w021": 1}): Fraction(1, 3),
    }


def test_triple_cover_selected_coefficients():
    body = cover("triple_cover")
    assert body[monomial({"y011": 1, "w101": 2})] == Fraction(1, 2)
    assert monomial({"w001": 2}) not in body


def test_triple_cover_alphabet():
    body, _ = build_cover_potential("triple_cover")
    assert variables(body) <= {"y101", "y201", "y011", "y021", "y211", *W_VARS}
    assert max(monomial_weight(m) for m in body) == 3


def test_potentials_quadratic_in_gluing_slots():
    for body, gluing in (
        (build_cover_potential("double_cover")[0], Z_VARS),
        (build_cover_potential("triple_cover")[0], W_VARS),
    ):
        for m in body:
            assert monomial_degree_in(m, gluing) == 2


def test_builders_equal_brute_force_series():
    # the bodies' numerators over their denominators, term for term
    for kind in COVERS:
        assert cover(kind) == expand_cover_series(kind)


@pytest.mark.parametrize("kind", list(COVERS))
def test_a_body_is_int_numerators_over_the_lcm_of_its_reduced_denominators(kind):
    body, den = build_cover_potential(kind)
    assert all(type(n) is int and n for n in body.values())
    assert den == lcm(*(c.denominator for c in expand_cover_series(kind).values()))


@pytest.mark.parametrize("cap", [2, 3])
def test_the_matrix_is_int_numerators_over_the_lcm_of_its_reduced_denominators(cap):
    entries, den = build_gluing_matrix(cap)
    assert all(type(n) is int and n for p in entries.values() for n in p.values())
    assert den == lcm(*(c.denominator for p in rational_matrix((entries, den)).values()
                        for c in p.values())) == 36


def test_divisor_prefactors_recorded_symbolically():
    assert (COVERS["double_cover"]["divisor"], COVERS["double_cover"]["k"]) == ("y010", 2)
    assert (COVERS["triple_cover"]["divisor"], COVERS["triple_cover"]["k"]) == ("y001", 3)


def test_matrix_rejects_small_cap():
    with pytest.raises(ValueError):
        build_gluing_matrix(1)


def test_matrix_symmetry(matrix2):
    entries, _ = matrix2
    for s in GLUABLE:
        for t in GLUABLE:
            assert entries.get((s, t)) == entries.get((t, s))


def test_matrix_vanishing_rows(matrix2):
    # indices whose dual lacks an i-factor never glue to a triple-cover slot
    entries, _ = matrix2
    for s in ("001", "101", "201", "011", "021", "211"):
        for t in ("100", "200", "010"):
            assert (s, t) not in entries and (t, s) not in entries


def test_matrix_alphabet(matrix2):
    for p in matrix2[0].values():
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
    assert rational_matrix(matrix2)[("100", "100")] == {(): Fraction(1, 18)}


def test_matrix_cap_independence(matrix2):
    m2, m3 = rational_matrix(matrix2), rational_matrix(build_gluing_matrix(3))
    for s in GLUABLE:
        for t in GLUABLE:
            assert truncate_weight(m3.get((s, t), {}), 2) == \
                truncate_weight(m2.get((s, t), {}), 2)


@pytest.mark.parametrize("kind, slots", [
    ("double_cover", Z_VARS),
    ("triple_cover", W_VARS),
], ids=["double_cover", "triple_cover"])
def test_one_pass_second_derivatives_equal_two_partials(kind, slots):
    # term for term and in the same order, which the stencil's order follows
    body, _ = build_cover_potential(kind)
    hessian = potentials._slot_hessian(body, slots)
    for u in slots:
        for v in slots:
            expected = partial(partial(body, u), v)
            assert list(hessian.get((u, v), {}).items()) == list(expected.items())
            assert all(type(c) is int for c in hessian.get((u, v), {}).values())
    assert all(hessian.values())
    assert set(hessian) <= {(u, v) for u in slots for v in slots}


def test_gluing_data_digests_are_independent_of_term_order():
    # both caps of the matrix and both bodies, on Fractions, each term
    # sorted, pinned
    def digest(value):
        return hashlib.sha256(repr(value).encode()).hexdigest()

    matrices = [sorted((key, sorted(p.items()))
                       for key, p in rational_matrix(build_gluing_matrix(cap)).items())
                for cap in (2, 3)]
    assert digest(matrices) == \
        "fc1f041237198529a01d720722bdb9df5a3747f8403514dd0dda3bf7839c7a6d"
    bodies = [sorted(cover(kind).items()) for kind in ("double_cover", "triple_cover")]
    assert digest(bodies) == \
        "6ca9b51d8fe3f1cf2991e963aea0abaf6dc44fe97c2fe971eb0c29d2e28584a6"


def test_matrix_keys_only_its_nonzero_entries(matrix2):
    # 19 nonzero entries with 42 terms in all at cap 2
    entries, _ = matrix2
    assert all(entries.values())
    assert (len(entries), sum(map(len, entries.values()))) == (19, 42)


def test_changing_a_built_matrix_leaves_the_next_build_unchanged():
    for cap in (2, 3):
        built, den = build_gluing_matrix(cap)
        expected = {key: dict(p) for key, p in built.items()}
        for p in built.values():
            for m in p:
                p[m] = 99
            p[monomial({"y020": 7})] = 1
        built[("000", "000")] = {(): 1}
        again, again_den = build_gluing_matrix(cap)
        assert (again, again_den) == (expected, den)
        assert all(again[key] is not built[key] for key in expected)


def test_the_stencil_source_matrix_survives_other_builds():
    # cap 3 built and changed first must not move what cap 2 derives
    changed, _ = build_gluing_matrix(3)
    for p in changed.values():
        p.clear()
    assert verify._check_stencil(build_gluing_matrix(2))["status"] == "pass"


#: every other value of a (2, 1) subscript entry, one step off in one place
ENTRY_MUTANTS = [(1, 1), (3, 1), (2, 0), (2, 2)]


@pytest.mark.parametrize("entry", ENTRY_MUTANTS)
def test_the_y211_entry_reaches_only_the_cap_3_matrix(monkeypatch, matrix2, entry):
    cap3 = build_gluing_matrix(3)
    monkeypatch.setitem(COVERS["triple_cover"]["y"], "y211", entry)
    assert build_gluing_matrix(2) == matrix2
    assert build_gluing_matrix(3) != cap3


@pytest.mark.parametrize("entry", ENTRY_MUTANTS)
def test_the_w211_entry_reaches_only_the_000_row_and_column(monkeypatch, matrix2, entry):
    # w211 is the slot dual to the index 000
    monkeypatch.setitem(COVERS["triple_cover"]["slots"], "w211", entry)
    (entries, den), (before, before_den) = build_gluing_matrix(2), matrix2
    changed = {key for key in entries.keys() | before.keys()
               if entries.get(key) != before.get(key)}
    assert den == before_den
    assert changed and all("000" in key for key in changed)


def test_the_stencil_reads_no_entry_of_the_000_row_or_column(matrix2):
    entries, den = matrix2
    kept = {key: p for key, p in entries.items() if "000" not in key}
    assert (len(entries), len(kept)) == (19, 15)
    assert verify.derive_stencil((kept, den)) == verify.derive_stencil(matrix2)
