"""Value semantics of the two immutable types of the self-test's oracles.

`verify.TailPolynomial` and `verify.OracleReport` are plain classes with
`__slots__`, not dataclasses; these tests pin what they keep from the
frozen dataclasses they replaced: `==` by fields within one class, `hash`
by fields (or none, for a type holding a dict), the same reprs, the
constructors' signatures, defaults and validation, immutability, and
pickle round trips.
"""

import pickle
from fractions import Fraction

import pytest

from semple2.poly import monomial
from semple2.verify import OracleReport, TailPolynomial, seed_degree1

TAIL = seed_degree1()
REPORT = OracleReport("demo", False, "1", "2", "1..1")

#: (object, an equal one built anew, one differing in a field, a field name)
CASES = {
    "tail": (TAIL, TailPolynomial(1, dict(TAIL.poly)), TailPolynomial(1, {}), "poly"),
    "report": (REPORT, OracleReport("demo", False, "1", "2", "1..1"),
               OracleReport("demo", True, "1", "2", "1..1"), "passed"),
}


@pytest.mark.parametrize("name", CASES)
def test_equality_is_by_fields_within_one_class(name):
    obj, same, other, _ = CASES[name]
    assert obj == same and not obj != same
    assert obj != other and not obj == other
    assert obj != tuple(getattr(obj, f) for f in obj.__match_args__)


def test_a_report_hashes_by_its_fields():
    same = CASES["report"][1]
    assert hash(REPORT) == hash(same) and len({REPORT, same}) == 1


@pytest.mark.parametrize("name", ["tail"])
def test_a_type_holding_a_dict_is_unhashable(name):
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(CASES[name][0])


def test_reprs_match_the_dataclass_reprs():
    assert repr(REPORT) == ("OracleReport(name='demo', passed=False, expected='1', "
                            "actual='2', degrees='1..1')")
    assert repr(TAIL) == f"TailPolynomial(degree=1, poly={TAIL.poly!r})"


@pytest.mark.parametrize("name", CASES)
def test_fields_cannot_be_assigned_or_deleted(name):
    obj, same, _, field = CASES[name]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(obj, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(obj, field)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        obj.extra = 1
    assert obj == same


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(name, protocol):
    obj = CASES[name][0]
    back = pickle.loads(pickle.dumps(obj, protocol=protocol))
    assert type(back) is type(obj) and back == obj


def test_the_constructors_keep_their_signatures_and_defaults():
    assert TailPolynomial(degree=1, poly=TAIL.poly) == TAIL
    assert OracleReport(name="demo", passed=False, expected="1", actual="2",
                        degrees="1..1") == REPORT


@pytest.mark.parametrize("degree, poly, error, message", [
    (0, {}, ValueError, "degree must be positive"),
    (1, {monomial({"y200": 1, "y020": e}): Fraction(1) for e in range(14)},
     AssertionError, "a tail has at most thirteen terms"),
    (2, {monomial({"y200": 2, "y210": 1, "y020": 1}): Fraction(1)},
     AssertionError, "has fewer than 3 point slots"),
    (2, {monomial({"y200": 3, "y020": 1}): Fraction(1)},
     AssertionError, "has weight != 5"),
])
def test_a_tail_validates_its_terms(degree, poly, error, message):
    with pytest.raises(error, match=message):
        TailPolynomial(degree, poly)
