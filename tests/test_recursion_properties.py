"""Property tests of the recursion kernel against the stencil's definition."""

from math import comb

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from semple2._kernel import degree_forms
from semple2.potentials import build_gluing_matrix
from semple2.recursion import (
    INVARIANT_LABELS,
    RATIO_IDENTITIES,
    binomial_row,
    ratio_failures,
    recursion_rhs,
)
from semple2.verify import derive_stencil, stencil_rhs

#: without the explain phase, which reruns a shrunk failing example about
#: 4000 times to mark which parts of it may vary
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                    phases=[phase for phase in Phase if phase is not Phase.explain])

#: the stencil the shipped kernel `semple2._kernel` computes
DERIVED = derive_stencil(build_gluing_matrix(2))

column = st.tuples(*[st.integers(-10 ** 30, 10 ** 30)] * len(INVARIANT_LABELS))


def with_ratio_rows(column):
    """The column with each first row of RATIO_IDENTITIES, in their order,
    made three times the second, as in every column of the table."""
    out = dict(zip(INVARIANT_LABELS, column))
    for big, small in RATIO_IDENTITIES:
        out[big] = 3 * out[small]
    return tuple(out.values())


#: the indices of the eight rows that the kernel computes
FREE = [i for i, lbl in enumerate(INVARIANT_LABELS)
        if lbl not in {big for big, _ in RATIO_IDENTITIES}]


def free(column):
    return [column[i] for i in FREE]


@PROPERTY
@given(st.integers(2, 12), st.data())
def test_shipped_recursion_equals_the_per_term_definition_of_the_derived_stencil(d, data):
    columns = {dd: with_ratio_rows(data.draw(column)) for dd in range(1, d)}
    forms = {dd: degree_forms(dd, c) for dd, c in columns.items()}
    assert recursion_rhs(d, forms) == stencil_rhs(d, columns, DERIVED)


@PROPERTY
@given(st.integers(2, 12), st.data())
def test_the_eight_computed_rows_do_not_read_the_ratio_rows(d, data):
    # the lower columns with arbitrary entries in the five 3:1 rows
    columns = {dd: data.draw(column) for dd in range(1, d)}
    forms = {dd: degree_forms(dd, c) for dd, c in columns.items()}
    filled = {dd: with_ratio_rows(c) for dd, c in columns.items()}
    want = free(stencil_rhs(d, filled, DERIVED))
    assert free(recursion_rhs(d, forms)) == want
    assert free(stencil_rhs(d, columns, DERIVED)) == want


@PROPERTY
@given(st.integers(2, 12), st.data())
def test_the_derived_stencil_maps_three_to_one_columns_to_three_to_one_columns(d, data):
    columns = {dd: with_ratio_rows(data.draw(column)) for dd in range(1, d)}
    assert ratio_failures(dict(zip(INVARIANT_LABELS, stencil_rhs(d, columns, DERIVED)))) == []


@PROPERTY
@given(st.integers(0, 400), st.data())
def test_binomial_row_is_the_row_of_comb(m, data):
    assert binomial_row(m) == [comb(m, k) for k in range(m + 1)]
    # the point counts build each row only as far as their splits read
    length = data.draw(st.integers(1, m + 1))
    assert binomial_row(m, length) == [comb(m, k) for k in range(length)]
