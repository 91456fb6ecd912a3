"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every comparison is exact integer or exact rational equality.
"""

import random
import time
from fractions import Fraction

from semple2.chow import (
    ChowClass,
    DUAL,
    H,
    HD,
    I_CLASS,
    LABELS,
    Z,
    i_basis_class,
    integrate,
    mul_classes,
)
from semple2.contact import (
    ConditionProfile,
    CurveInvariants,
    contact_coefficients,
    contact_number,
    mixed_count,
    plucker_class,
)
from semple2.poly import truncate_weight
from semple2.potentials import GLUABLE, build_cover_potential, build_gluing_matrix
from semple2.recursion import (
    INVARIANT_LABELS,
    compute_up_to,
    kontsevich,
    ratio_failures,
)
from semple2.verify import (
    DIVISOR_RULE,
    TABLE1_REFERENCE,
    TABLE2_REFERENCE,
    expand_cover_series,
    seed_invariants,
)


def _ok(text):
    print(f"PASS {text}")


def test_criterion_1_invariant_table_through_degree_6():
    start = time.monotonic()
    table = compute_up_to(6)
    elapsed = time.monotonic() - start
    checked = 0
    for label in INVARIANT_LABELS:
        for d in range(1, 7):
            assert table.get(d, label) == TABLE1_REFERENCE[label][d - 1], (label, d)
            checked += 1
    assert checked == 78
    assert table.get(6, "h2hd") == 13300176
    assert table.get(6, "hdz.hdz") == 2948122440
    assert elapsed < 60.0
    _ok(f"criterion 1: all 78 invariants through degree 6 exact ({elapsed:.2f}s)")


def test_criterion_2_degree1_seed():
    values = seed_invariants()
    assert values == {
        "h2hd": 1, "h2z": 3, "hd2z": -3,
        "h2.h2": 1, "h2.hd2": 0, "h2.hz": 0, "h2.hdz": -3,
        "hd2.hd2": 0, "hd2.hz": 0, "hd2.hdz": 0,
        "hz.hz": 0, "hz.hdz": 0, "hdz.hdz": 9,
    }
    assert values["hd2z"] == -3 and values["h2.hdz"] == -3
    _ok("criterion 2: degree-1 seed matches the printed 13 values")


def test_criterion_3_contact_coefficients_through_degree_6(table8):
    for d in range(1, 7):
        assert contact_coefficients(d, table8) == TABLE2_REFERENCE[d], d
    assert contact_coefficients(5, table8) == (216180, 153120, 51040)
    _ok("criterion 3: contact coefficient rows for degrees 1..6 exact")


def test_criterion_4_kontsevich_oracle_through_degree_8(table8):
    for d in range(1, 9):
        assert table8.get(d, "h2.h2") == kontsevich(d), d
    for d, want in enumerate((1, 1, 12, 620, 87304, 26312976), start=1):
        assert kontsevich(d) == want
    _ok("criterion 4: point-condition row equals the independent recursion, d <= 8")


def test_criterion_5_ratio_identities_through_degree_8(table8):
    for d in range(1, 9):
        assert ratio_failures(table8.column(d)) == [], d
    _ok("criterion 5: all five 3:1 row identities hold for d <= 8")


def test_criterion_6_ring_property_suite():
    for k in LABELS:
        for l in LABELS:
            pairing = integrate(mul_classes(ChowClass.basis(k), i_basis_class(l)))
            assert pairing == (1 if l == DUAL[k] else 0), (k, l)
    assert mul_classes(I_CLASS, I_CLASS) == mul_classes((H - HD).scaled(3), I_CLASS)
    assert mul_classes(I_CLASS, Z).is_zero()
    rng = random.Random(123)
    basis = [ChowClass.basis(k) for k in LABELS]
    for a in basis:
        for b in basis:
            for c in (rng.choice(basis),):
                assert mul_classes(mul_classes(a, b), c) == \
                    mul_classes(a, mul_classes(b, c))
    assert DIVISOR_RULE["001"](1) * 1 == -3  # {h^2.h^2.z}_1 via the divisor rule
    _ok("criterion 6: pairing matrix, relations, associativity, divisor rule")


def test_criterion_7_construction_equivalence(matrix2):
    # the builders return int numerators over one denominator
    for kind in ("double_cover", "triple_cover"):
        body, den = build_cover_potential(kind)
        assert {m: Fraction(n, den) for m, n in body.items()} == expand_cover_series(kind)
    (e2, d2), (e3, d3) = matrix2, build_gluing_matrix(3)
    for s in GLUABLE:
        for t in GLUABLE:
            a = truncate_weight(e2.get((s, t), {}), 2)
            b = truncate_weight(e3.get((s, t), {}), 2)
            assert {m: Fraction(n, d2) for m, n in a.items()} == \
                {m: Fraction(n, d3) for m, n in b.items()}, (s, t)
    _ok("criterion 7: both cover builds equal the brute-force series; matrix cap-independent")


def test_criterion_8_contact_sanity(table8):
    # classical counts for a curve of degree c with nodes and cusps, which
    # read no reference row: Plücker's flex count at degree 1, and at
    # degree 2 the flexes of its image under the quadratic Cremona map
    curves = []
    for c in range(2, 12):
        for nodes in range(6):
            for cusps in range(6):
                try:
                    curves.append((c, nodes, cusps, plucker_class(c, nodes, cusps)))
                except ValueError:  # a negative class
                    pass
    assert len(curves) == 275
    for c, nodes, cusps, curve in curves:
        assert contact_number(1, curve, table8) == \
            3 * c * (c - 2) - 6 * nodes - 8 * cusps, curve
        assert contact_number(2, curve, table8) == \
            3 * 2 * c * (2 * c - 2) - 9 * c * (c - 1) - 6 * nodes - 8 * cusps, curve
    rng = random.Random(456)
    for d in range(1, 7):
        for _ in range(4):
            curve = CurveInvariants(rng.randrange(2, 8),
                                    rng.randrange(14), rng.randrange(5))
            profile = ConditionProfile(d, 3 * d - 3, osculants=(curve,))
            assert mixed_count(profile, table8) == \
                contact_number(d, curve, table8), (d, curve)
    _ok("criterion 8: flex counts at degrees 1 and 2 and triple-contact profile consistency")
