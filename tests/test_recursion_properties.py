"""Property tests of the recursion kernel against the stencil's definition."""

from functools import lru_cache
from math import comb

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from semple2._kernel import degree_forms
from semple2.potentials import build_gluing_matrix
from semple2.recursion import DIVISOR_RULE, INVARIANT_LABELS, binomial_row, recursion_rhs
from semple2.verify import derive_stencil, kernel_source

#: without the explain phase, which reruns a shrunk failing example about
#: 4000 times to mark which parts of it may vary; it took two thirds of the
#: two minutes a failure of the random-stencil test took to report
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                    phases=[phase for phase in Phase if phase is not Phase.explain])

N = len(INVARIANT_LABELS)

#: the stencil the shipped kernel `semple2._kernel` is generated from
DERIVED = derive_stencil(build_gluing_matrix(2))


def multiplier(kind, d: int) -> int:
    return 1 if kind is None else DIVISOR_RULE[kind](d)


def binomial(m: int, k: int) -> int:
    return comb(m, k) if k >= 0 else 0


def naive_rhs(d, columns, stencil):
    """The degree-d column straight from the contract stated above
    `semple2.verify.Stencil`: every term of stencil[j1] adds w * c * k_s(d1)
    * k_t(d2) * n_d1[L1] * n_d2[L2] to Lout, for every ordered split
    d1 + d2 = d."""
    m = 3 * d - 6
    out = [0] * N
    for d1 in range(1, d):
        d2 = d - d1
        for j1, terms in enumerate(stencil):
            c = (binomial(m, 3 * d1 - 4 + j1) * d1 * d2
                 - binomial(m, 3 * d1 - 3 + j1) * d1 * d1)
            for ks, kt, i1, i2, iout, w in terms:
                out[iout] += (w * c * multiplier(ks, d1) * multiplier(kt, d2)
                              * columns[d1][i1] * columns[d2][i2])
    return tuple(out)


def swap(term):
    ks, kt, i1, i2, iout, w = term
    return (kt, ks, i2, i1, iout, w)


kinds = st.sampled_from((None, *DIVISOR_RULE))
indices = st.integers(0, N - 1)
weights = st.integers(-40, 40)
terms = st.tuples(kinds, kinds, indices, indices, indices, weights)


@st.composite
def symmetric_stencils(draw):
    """Random stencils symmetric under swapping the factors, in which every
    divisor kind occurs on both sides."""
    row0 = draw(st.lists(terms, max_size=25))
    for kind in DIVISOR_RULE:
        row0.append(draw(st.tuples(st.just(kind), kinds, indices, indices, indices, weights)))
        row0.append(draw(st.tuples(kinds, st.just(kind), indices, indices, indices, weights)))
    half = draw(st.lists(terms, max_size=25))
    return (tuple(row0), tuple(half + [swap(t) for t in half]), tuple(map(swap, row0)))


@lru_cache(maxsize=64)
def generated_kernel(stencil):
    """The column function of the module text that `kernel_source` writes
    for the stencil: per-degree forms of each lower column, then `kernel`.
    Each stencil's text is compiled once, so that shrinking a failing
    example, which retries one stencil with many degrees and columns, does
    not compile it again each time."""
    namespace = {}
    exec(compile(kernel_source(stencil), "<generated kernel>", "exec"), namespace)
    forms, kernel = namespace["degree_forms"], namespace["kernel"]

    def rhs(d, columns):
        lower = {dd: forms(dd, column) for dd, column in columns.items()}
        return kernel(d, lower, binomial_row(3 * d - 6))
    return rhs


column = st.tuples(*[st.integers(-10 ** 30, 10 ** 30)] * N)


@PROPERTY
@given(st.one_of(st.just(DERIVED), symmetric_stencils()), st.integers(2, 12), st.data())
def test_kernel_equals_the_per_term_definition(stencil, d, data):
    columns = {dd: data.draw(column) for dd in range(1, d)}
    assert generated_kernel(stencil)(d, columns) == naive_rhs(d, columns, stencil)


@PROPERTY
@given(st.integers(2, 12), st.data())
def test_shipped_recursion_equals_the_per_term_definition_of_the_derived_stencil(d, data):
    columns = {dd: data.draw(column) for dd in range(1, d)}
    forms = {dd: degree_forms(dd, c) for dd, c in columns.items()}
    assert recursion_rhs(d, forms, binomial_row(3 * d - 6)) == naive_rhs(d, columns, DERIVED)


@PROPERTY
@given(st.integers(0, 400))
def test_binomial_row_is_the_row_of_comb(m):
    assert binomial_row(m) == [comb(m, k) for k in range(m + 1)]
