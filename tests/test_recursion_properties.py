"""Property tests of the recursion kernel against the stencil's definition."""

from math import comb

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from semple2._kernel import degree_forms
from semple2.potentials import build_gluing_matrix
from semple2.recursion import INVARIANT_LABELS, binomial_row, recursion_rhs
from semple2.verify import derive_stencil, stencil_rhs

#: without the explain phase, which reruns a shrunk failing example about
#: 4000 times to mark which parts of it may vary
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                    phases=[phase for phase in Phase if phase is not Phase.explain])

#: the stencil the shipped kernel `semple2._kernel` computes
DERIVED = derive_stencil(build_gluing_matrix(2))

column = st.tuples(*[st.integers(-10 ** 30, 10 ** 30)] * len(INVARIANT_LABELS))


@PROPERTY
@given(st.integers(2, 12), st.data())
def test_shipped_recursion_equals_the_per_term_definition_of_the_derived_stencil(d, data):
    columns = {dd: data.draw(column) for dd in range(1, d)}
    forms = {dd: degree_forms(dd, c) for dd, c in columns.items()}
    assert recursion_rhs(d, forms, binomial_row(3 * d - 6)) == stencil_rhs(d, columns, DERIVED)


@PROPERTY
@given(st.integers(0, 400))
def test_binomial_row_is_the_row_of_comb(m):
    assert binomial_row(m) == [comb(m, k) for k in range(m + 1)]
