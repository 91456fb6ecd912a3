"""Property tests for mixed counts on the degree-8 table."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from semple2.contact import ConditionProfile, CurveInvariants, mixed_count

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)

#: (tangencies, triple contacts) of the supported profiles with a fixed curve
PATTERNS = ((1, 0), (2, 0), (0, 1))
ZERO = CurveInvariants(0, 0, 0)

# a curve of degree 1 is a line, which the count's hypotheses exclude (and
# warn about); a sum of two curves below never has degree 1 either
curves = st.builds(CurveInvariants, st.integers(0, 30).filter(lambda c: c != 1),
                   st.integers(0, 30), st.integers(0, 30))


def plus(a: CurveInvariants, b: CurveInvariants) -> CurveInvariants:
    return CurveInvariants(a.c + b.c, a.cdual + b.cdual, a.kappa + b.kappa)


@PROPERTY
@given(st.integers(1, 8), st.sampled_from(PATTERNS), st.data())
def test_mixed_count_is_affine_linear_in_each_curve(table8, d, pattern, data):
    tangencies, contacts = pattern
    fixed = data.draw(st.lists(curves, min_size=tangencies + contacts,
                               max_size=tangencies + contacts))
    slot = data.draw(st.integers(0, len(fixed) - 1))
    x, y = data.draw(curves), data.draw(curves)

    def count(curve: CurveInvariants) -> int:
        chosen = fixed[:slot] + [curve] + fixed[slot + 1:]
        points = 3 * d - 1 - tangencies - 2 * contacts
        return mixed_count(ConditionProfile(d, points, tuple(chosen[:tangencies]),
                                            tuple(chosen[tangencies:])), table8)

    assert count(plus(x, y)) + count(ZERO) == count(x) + count(y)
    if slot < tangencies:
        # a tangency reads (c, č) only
        assert count(replace(x, kappa=x.kappa + 1)) == count(x)
