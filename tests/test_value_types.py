"""Value semantics of the four immutable types the queries pass around.

`InvariantTable`, `CurveInvariants`, `ConditionProfile` and `ChowClass`
are plain classes with `__slots__`, not dataclasses; these tests pin the
behaviour they keep from the frozen dataclasses they replaced: `==` and
`hash` by fields within one class, the same repr strings, immutability,
the constructor's validation, and pickle and copy round trips.
"""

import copy
import pickle
import warnings
from fractions import Fraction

import pytest

from semple2.chow import H, ChowClass
from semple2.contact import ConditionProfile, CurveInvariants
from semple2.recursion import InvariantTable

CURVE = CurveInvariants(2, 2, 0)
PROFILE = ConditionProfile(3, 6, osculants=(CURVE,))
TABLE = InvariantTable({1: {"h2hd": 1}})

#: (object, an equal one built anew, one differing in a field, a field name)
CASES = {
    "curve": (CURVE, CurveInvariants(2, 2, 0), CurveInvariants(2, 2, 1), "kappa"),
    "profile": (PROFILE, ConditionProfile(3, 6, (), (CurveInvariants(2, 2, 0),)),
                ConditionProfile(3, 6, (CURVE,)), "points"),
    "table": (TABLE, InvariantTable({1: {"h2hd": 1}}), InvariantTable({}), "values"),
    "chow": (H, ChowClass.basis("100"), ChowClass.basis("010"), "coords"),
}

#: the reprs the frozen dataclasses printed
REPRS = [
    (CURVE, "CurveInvariants(c=2, cdual=2, kappa=0)"),
    (PROFILE, "ConditionProfile(degree=3, points=6, tangents=(), "
              "osculants=(CurveInvariants(c=2, cdual=2, kappa=0),))"),
    (ConditionProfile(3, 8), "ConditionProfile(degree=3, points=8, tangents=(), osculants=())"),
    (TABLE, "InvariantTable(values={1: {'h2hd': 1}})"),
    # a coordinate is an int when it is integral, and a Fraction otherwise
    (H, "ChowClass(coords=(0, 1" + ", 0" * 10 + "))"),
    (H.scaled(Fraction(1, 2)), "ChowClass(coords=(0, Fraction(1, 2)" + ", 0" * 10 + "))"),
]


class Lookalike:
    """Another class whose objects carry the same fields."""

    def __init__(self, obj):
        for name in obj.__match_args__:
            setattr(self, name, getattr(obj, name))


@pytest.mark.parametrize("name", CASES)
def test_equality_is_by_fields_within_one_class(name):
    obj, same, other, _ = CASES[name]
    assert obj == same and not obj != same
    assert obj != other and not obj == other
    assert obj != Lookalike(obj) and Lookalike(obj) != obj
    assert obj.__eq__(Lookalike(obj)) is NotImplemented


def test_no_value_equals_a_tuple_of_its_fields():
    assert CURVE != (2, 2, 0)
    assert H != H.coords


@pytest.mark.parametrize("name", ["curve", "profile", "chow"])
def test_hash_is_by_fields(name):
    obj, same, _, _ = CASES[name]
    assert hash(obj) == hash(same)
    assert len({obj, same}) == 1


def test_a_table_is_unhashable():
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(TABLE)


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


@pytest.mark.parametrize("obj, text", REPRS)
def test_repr_matches_the_dataclass_repr(obj, text):
    assert repr(obj) == text


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("roundtrip", [
    copy.copy, copy.deepcopy,
    *(lambda obj, p=p: pickle.loads(pickle.dumps(obj, protocol=p))
      for p in range(pickle.HIGHEST_PROTOCOL + 1)),
])
def test_pickle_and_copy_round_trip(name, roundtrip):
    obj = CASES[name][0]
    back = roundtrip(obj)
    assert type(back) is type(obj) and back == obj


def test_deepcopy_copies_the_fields():
    back = copy.deepcopy(TABLE)
    assert back.values == TABLE.values and back.values is not TABLE.values


def test_the_constructors_keep_their_signatures_and_defaults():
    profile = ConditionProfile(degree=2, points=5)
    assert (profile.tangents, profile.osculants) == ((), ())
    assert CurveInvariants(c=3, cdual=6, kappa=0) == CurveInvariants(3, 6, 0)
    assert InvariantTable(values={}) == InvariantTable({})
    assert ChowClass(coords=H.coords) == H


def test_validation_is_unchanged():
    with pytest.raises(ValueError, match="curve invariants must be nonnegative"):
        CurveInvariants(2, -1, 0)
    with pytest.raises(ValueError, match="a class has exactly 12 coordinates"):
        ChowClass((Fraction(0),) * 11)


def test_unpickling_runs_the_constructor_again():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        line = CurveInvariants(1, 0, 0)
    with pytest.warns(UserWarning, match="degree-1 curve is a line"):
        pickle.loads(pickle.dumps(line))


def test_positional_patterns_match_the_fields():
    match PROFILE:
        case ConditionProfile(3, points, (), (CurveInvariants(c, _, kappa),)):
            assert (points, c, kappa) == (6, 2, 0)
        case _:
            pytest.fail("the profile did not match its own fields")
