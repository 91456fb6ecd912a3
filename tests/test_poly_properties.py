"""Property tests for the sparse polynomial arithmetic against a dense reference.

The reference keeps a polynomial as a map from full exponent vectors (one
entry per variable of `NAMES`) to coefficients, so it needs neither
monomial canonicalisation nor zero handling until the final conversion.
The drawn inputs are built to cancel exactly: `add_scaled` meets negated
copies of some terms, and `mul` multiplies (u + v) by (u - v).
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from semple2.poly import VAR_ORDER, add_scaled, monomial, monomial_mul, mul, partial

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

#: variables from the start, middle and end of VAR_ORDER
NAMES = ("y200", "y020", "y011", "z010", "w001", "w211")

rationals = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))
exponents = st.tuples(*[st.integers(0, 3)] * len(NAMES))
dense_terms = st.lists(st.tuples(exponents, rationals), max_size=6)


def dense(terms) -> dict:
    out = {}
    for e, c in terms:
        out[e] = out.get(e, 0) + c
    return out


def dense_lin(a: dict, b: dict, q) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + q * c
    return out


def dense_mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def dense_partial(a: dict, name: str, order: int) -> dict:
    i = NAMES.index(name)
    out = {}
    for e, c in a.items():
        fall = 1
        for k in range(order):
            fall *= e[i] - k
        lowered = e[:i] + (e[i] - order,) + e[i + 1:]
        if fall:
            out[lowered] = out.get(lowered, 0) + c * fall
    return out


def sparse(a: dict) -> dict:
    """The canonical sparse form of a dense polynomial."""
    return {monomial(dict(zip(NAMES, e))): Fraction(c) for e, c in a.items() if c}


def assert_canonical(p: dict) -> None:
    for m, c in p.items():
        assert c != 0, (m, c)
        names = [name for name, _ in m]
        assert names == sorted(set(names), key=VAR_ORDER.index), m
        assert all(e > 0 for _, e in m), m


@st.composite
def cancelling_pairs(draw):
    """(a, b) where b holds the negatives of some terms of a, plus others."""
    a = dense(draw(dense_terms))
    keep = draw(st.lists(st.sampled_from(sorted(a)), unique=True)) if a else []
    b = dense_lin(dense(draw(dense_terms)), {e: a[e] for e in keep}, -1)
    return a, b


@PROPERTY
@given(cancelling_pairs())
def test_add_matches_the_dense_sum(pair):
    # the plain sum, as the cover products accumulate it: add_scaled by 1
    a, b = pair
    acc, pb = sparse(a), sparse(b)
    add_scaled(acc, pb, 1)
    assert acc == sparse(dense_lin(a, b, 1))
    assert_canonical(acc)
    assert pb == sparse(b)


@PROPERTY
@given(cancelling_pairs(), rationals)
def test_add_scaled_matches_the_dense_sum(pair, q):
    a, b = pair
    # scale a so that q * b cancels what it negated
    a = {e: c * q for e, c in a.items()}
    acc, pb = sparse(a), sparse(b)
    assert add_scaled(acc, pb, q) is None
    assert acc == sparse(dense_lin(a, b, q))
    assert_canonical(acc)
    assert pb == sparse(b)


@PROPERTY
@given(dense_terms, dense_terms, dense_terms)
def test_mul_matches_the_dense_product(u, v, w):
    u, v, w = dense(u), dense(v), dense(w)
    plus, minus = dense_lin(u, v, 1), dense_lin(u, v, -1)
    for a, b in ((plus, minus), (plus, w)):
        pa, pb = sparse(a), sparse(b)
        out = mul(pa, pb)
        assert out == sparse(dense_mul(a, b))
        assert_canonical(out)
        assert (pa, pb) == (sparse(a), sparse(b))


@PROPERTY
@given(dense_terms, st.sampled_from(NAMES), st.integers(0, 4))
def test_partial_matches_the_dense_derivative(terms, name, order):
    a = dense(terms)
    pa = sparse(a)
    out = pa
    for _ in range(order):
        out = partial(out, name)
    assert out == sparse(dense_partial(a, name, order))
    assert_canonical(out)
    assert pa == sparse(a)


def sorted_items_monomial_mul(a, b):
    """The product of two monomials as first written, the merged exponents
    sorted by a lambda over the items: the oracle for `monomial_mul`."""
    merged = dict(a)
    for name, e in b:
        merged[name] = merged.get(name, 0) + e
    return tuple(sorted(merged.items(), key=lambda it: VAR_ORDER.index(it[0])))


#: monomials over the whole alphabet, the constant monomial () among them
monomials = st.dictionaries(st.sampled_from(VAR_ORDER), st.integers(0, 3)).map(monomial)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(monomials, monomials)
def test_monomial_mul_equals_the_sorted_merge_of_the_items(a, b):
    assert monomial_mul(a, b) == sorted_items_monomial_mul(a, b)
