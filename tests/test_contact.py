import random
import signal
from collections import Counter
from itertools import product

import pytest

from semple2 import cli
from semple2.contact import (
    ConditionProfile,
    CurveInvariants,
    UnsupportedProfileError,
    check_profile,
    contact_coefficients,
    contact_formula,
    contact_number,
    mixed_count,
    _combo_label,
    plucker_class,
)
from semple2.verify import LABEL_MONOMIAL as ORACLE_LABEL_MONOMIAL

SMOOTH_CONIC = CurveInvariants(2, 2, 0)
CUSPIDAL_CUBIC = CurveInvariants(3, 3, 1)


def test_coefficient_rows(table8):
    assert contact_coefficients(1, table8) == (-3, 3, 1)
    assert contact_coefficients(3, table8) == (21, 30, 10)
    assert contact_coefficients(6, table8) == (64150200, 39900528, 13300176)


def test_coefficient_rows_need_computed_degree(table8):
    with pytest.raises(KeyError):
        contact_coefficients(9, table8)
    with pytest.raises(KeyError, match="degree 9 not computed"):
        mixed_count(ConditionProfile(9, 26), table8)


def test_formula_strings(table8):
    assert contact_formula(4, table8) == "1452c+1284č+428κ"
    assert contact_formula(1, table8) == "-3c+3č+κ"
    assert contact_formula(2, table8) == "3č+κ"


def test_cubics_osculating_a_conic(table8):
    assert contact_number(3, SMOOTH_CONIC, table8) == 21 * 2 + 30 * 2


def test_conics_osculating_a_cuspidal_cubic(table8):
    assert contact_number(2, CUSPIDAL_CUBIC, table8) == 3 * 3 + 1


def test_flex_count_of_smooth_curves(table8):
    for c in range(2, 11):
        smooth = CurveInvariants(c, c * (c - 1), 0)
        assert contact_number(1, smooth, table8) == 3 * c * (c - 2)


def test_contact_number_is_linear(table8):
    rng = random.Random(8)
    for d in (1, 2, 3, 5):
        for _ in range(10):
            a = CurveInvariants(rng.randrange(2, 9), rng.randrange(9), rng.randrange(4))
            b = CurveInvariants(rng.randrange(2, 9), rng.randrange(9), rng.randrange(4))
            both = CurveInvariants(a.c + b.c, a.cdual + b.cdual, a.kappa + b.kappa)
            assert contact_number(d, both, table8) == \
                contact_number(d, a, table8) + contact_number(d, b, table8)


def test_mixed_points_only(table8):
    assert mixed_count(ConditionProfile(2, 5), table8) == 1
    assert mixed_count(ConditionProfile(3, 8), table8) == 12


def test_mixed_one_tangency(table8):
    # conics through 4 points tangent to a smooth conic
    profile = ConditionProfile(2, 4, tangents=(SMOOTH_CONIC,))
    assert mixed_count(profile, table8) == 2 * 2 + 2 * 1


def test_mixed_two_tangencies_degree1(table8):
    # lines tangent to two curves: the product of the classes
    a = CurveInvariants(4, 5, 0)
    b = CurveInvariants(3, 4, 0)
    profile = ConditionProfile(1, 0, tangents=(a, b))
    assert mixed_count(profile, table8) == 5 * 4


def test_mixed_tangency_degree1_gives_class(table8):
    curve = CurveInvariants(5, 11, 2)
    assert mixed_count(ConditionProfile(1, 1, tangents=(curve,)), table8) == 11


def test_mixed_triple_contact_matches_contact_number(table8):
    rng = random.Random(21)
    for d in range(1, 7):
        for _ in range(5):
            curve = CurveInvariants(rng.randrange(2, 7),
                                    rng.randrange(12), rng.randrange(5))
            profile = ConditionProfile(d, 3 * d - 3, osculants=(curve,))
            assert mixed_count(profile, table8) == contact_number(d, curve, table8)


def test_two_triple_contacts_rejected_with_missing_invariants(table8):
    profile = ConditionProfile(3, 3, osculants=(SMOOTH_CONIC, SMOOTH_CONIC))
    with pytest.raises(UnsupportedProfileError) as info:
        mixed_count(profile, table8)
    assert len(info.value.missing) == 6
    assert any("hd2z.hd2z" in name for name in info.value.missing)


def test_tangency_plus_contact_rejected(table8):
    profile = ConditionProfile(2, 1, tangents=(SMOOTH_CONIC,),
                               osculants=(SMOOTH_CONIC,))
    with pytest.raises(UnsupportedProfileError):
        mixed_count(profile, table8)


def test_wrong_point_count_is_a_usage_error(table8):
    with pytest.raises(ValueError):
        mixed_count(ConditionProfile(2, 4), table8)
    with pytest.raises(ValueError):
        mixed_count(ConditionProfile(3, 6, tangents=(SMOOTH_CONIC,)), table8)


def _expected_outcome(d, r, s, t):
    """What a profile gives, stated apart from the labels: each invariant
    carries two classes beyond its 3d-3 points, a tangency inserts one and a
    triple contact two, and the points fill the rest of 3d-1."""
    if r < 0:
        return ValueError
    if s + 2 * t > 2:
        return UnsupportedProfileError
    if r != 3 * d - 1 - s - 2 * t:
        return ValueError
    return int


def test_the_profiles_answered_are_those_within_two_inserted_classes(table8):
    curves = (SMOOTH_CONIC, CUSPIDAL_CUBIC, CurveInvariants(4, 12, 0))
    cases = 0
    for d, s, t in product(range(1, 5), range(4), range(3)):
        right = 3 * d - 1 - s - 2 * t
        for r in sorted({-1, right - 1, right, right + 1}):
            profile = ConditionProfile(d, r, curves[:s], curves[::-1][:t])
            try:
                outcome = type(mixed_count(profile, table8))
            except ValueError as exc:  # UnsupportedProfileError is one too
                outcome = type(exc)
            assert outcome is _expected_outcome(d, r, s, t), (d, r, s, t)
            cases += 1
    assert cases == 182


@pytest.mark.parametrize("argv, message", [
    (["--points", "3", "--osculate", "2,2,0", "--osculate", "2,2,0"],
     "profile with 0 tangency and 2 triple-contact conditions needs invariants "
     "outside the stored thirteen: <(h2)^3.hd2z.hd2z>_d=3, <(h2)^3.h2z.hd2z>_d=3, "
     "<(h2)^3.h2hd.hd2z>_d=3, <(h2)^3.h2z.h2z>_d=3, <(h2)^3.h2hd.h2z>_d=3, "
     "<(h2)^3.h2hd.h2hd>_d=3"),
    (["--points", "5", "--tangent", "2,2,0", "--osculate", "2,2,0"],
     "profile with 1 tangency and 1 triple-contact conditions needs invariants "
     "outside the stored thirteen: <(h2)^5.hd2.hd2z>_d=3, <(h2)^5.h2z.hd2>_d=3, "
     "<(h2)^5.h2hd.hd2>_d=3, <(h2)^5.h2.hd2z>_d=3, <(h2)^5.h2.h2z>_d=3, "
     "<(h2)^5.h2.h2hd>_d=3"),
    (["--points", "5"] + ["--tangent", "2,2,0"] * 3,
     "profile with 3 tangency and 0 triple-contact conditions needs invariants "
     "outside the stored thirteen: <(h2)^5.hd2.hd2.hd2>_d=3, <(h2)^5.h2.hd2.hd2>_d=3, "
     "<(h2)^5.h2.h2.hd2>_d=3, <(h2)^5.h2.h2.h2>_d=3"),
], ids=["two-osculants", "tangent-and-osculant", "three-tangents"])
def test_a_refusal_names_the_missing_invariants_in_first_term_order(capsys, argv, message):
    assert cli.main(["count", "--degree", "3", *argv]) == cli.EXIT_UNSUPPORTED
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.fixture
def within_10_s():
    """Fail a test that runs for more than 10 s, where a walk over the
    2^s ordered terms of s tangencies would hang."""
    def timed_out(signum, frame):
        raise TimeoutError("the refusal took more than 10 s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_64_tangencies_are_refused_without_walking_the_ordered_terms(within_10_s):
    with pytest.raises(UnsupportedProfileError):
        check_profile(ConditionProfile(3, 0, (SMOOTH_CONIC,) * 64))


def test_a_refusal_names_at_most_eight_invariants_each_cut_short(within_10_s):
    profile = ConditionProfile(3, 0, (SMOOTH_CONIC,) * 10_000)
    with pytest.raises(UnsupportedProfileError) as info:
        check_profile(profile)
    message = str(info.value)
    assert len(message) < 2000
    assert "... (40012 characters), " in message
    assert message.endswith(" characters), ...")
    # the names themselves are kept whole
    assert len(info.value.missing) == 8
    assert info.value.missing[0] == "<(h2)^0" + ".hd2" * 10_000 + ">_d=3"


def test_plucker_class_of_smooth_and_singular_cubics():
    assert plucker_class(3, 0, 0) == CurveInvariants(3, 6, 0)
    assert plucker_class(3, 1, 0) == CurveInvariants(3, 4, 0)
    assert plucker_class(3, 0, 1) == CurveInvariants(3, 3, 1)


def test_plucker_flex_consistency(table8):
    # flexes of a nodal cubic: -9 + 12 + 0 = 3; of a cuspidal cubic: 1
    assert contact_number(1, plucker_class(3, 1, 0), table8) == 3
    assert contact_number(1, plucker_class(3, 0, 1), table8) == 1


def test_plucker_rejects_negative_class():
    with pytest.raises(ValueError):
        plucker_class(2, 2, 0)
    with pytest.raises(ValueError):
        plucker_class(0)


def test_line_input_warns():
    with pytest.warns(UserWarning):
        CurveInvariants(1, 0, 0)


def test_line_warning_points_at_the_caller():
    with pytest.warns(UserWarning) as caught:
        CurveInvariants(1, 0, 0)
    assert caught[0].filename == __file__


#: the residual monomial of each label, after the 3d-3 forced point slots
LABEL_MONOMIAL = {
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

#: the reduced variable of each class a tangency or triple contact inserts
CLASS_VAR = {"h2": "y200", "hd2": "y020", "h2hd": "y210", "h2z": "y201", "hd2z": "y021"}


def test_the_oracles_read_the_written_label_monomials():
    assert ORACLE_LABEL_MONOMIAL == LABEL_MONOMIAL
    assert list(ORACLE_LABEL_MONOMIAL) == list(LABEL_MONOMIAL)


def _label_by_monomial(points, classes, d):
    """The label whose residual monomial carries the classes and the spare points."""
    spare = points - (3 * d - 3)
    if spare < 0:
        return None
    exps = Counter(CLASS_VAR[c] for c in classes)
    exps["y200"] += spare
    wanted = {v: e for v, e in exps.items() if e}
    return next((lbl for lbl, mono in LABEL_MONOMIAL.items() if mono == wanted), None)


def test_labels_by_name_match_labels_by_monomial():
    cases = 0
    for d in range(1, 8):
        for points in range(3 * d + 3):
            for n in range(4):
                for classes in product(CLASS_VAR, repeat=n):
                    assert _combo_label(points, classes, d) == \
                        _label_by_monomial(points, classes, d), (points, classes, d)
                    cases += 1
    assert cases == 16380
