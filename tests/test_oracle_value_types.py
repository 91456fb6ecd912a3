"""The values of the self-test's oracles are plain data.

A tail is a `Poly` whose shape `verify._tail` checks when it is built, and
a report is the dict that `semple2 verify` prints (see `test_verify.py`).
These tests pin the tail checks: their exception types and messages.
"""

from fractions import Fraction

import pytest

from semple2.poly import monomial
from semple2.verify import _tail


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
        _tail(degree, poly)
