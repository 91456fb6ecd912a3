"""Property tests for the Chow ring on random rational classes."""

import pickle
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from semple2.chow import (
    _MULT,
    DUAL,
    I_BASIS_ORDER,
    I_BASIS_SYMBOL,
    LABELS,
    ChowClass,
    format_coords,
    integrate,
    mul_classes,
    parse_class_expr,
    to_i_basis,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
classes = st.tuples(*[rationals] * 12).map(ChowClass)
#: classes with many zero coordinates, the products' skipped terms
sparse_classes = st.tuples(*[st.one_of(st.just(Fraction(0)), rationals)] * 12).map(ChowClass)
#: coordinates over many distinct denominators, some shared, some zero, and
#: the zero class itself
mixed_rationals = st.one_of(st.just(Fraction(0)), rationals,
                            st.builds(Fraction, st.integers(-10**12, 10**12),
                                      st.integers(1, 10**9)))
mixed_classes = st.one_of(st.just(ChowClass((Fraction(0),) * 12)),
                          st.tuples(*[mixed_rationals] * 12).map(ChowClass))


@PROPERTY
@given(classes, classes, rationals)
def test_to_i_basis_is_linear(a, b, q):
    expected = tuple(x + q * y for x, y in zip(to_i_basis(a), to_i_basis(b)))
    assert to_i_basis(a + b.scaled(q)) == expected


@PROPERTY
@given(classes)
def test_printed_class_parses_back(a):
    assert parse_class_expr(str(a)) == a


@PROPERTY
@given(classes)
def test_printed_i_basis_form_parses_back(a):
    # the parser expands i = z + 3h - 3hd on its own: no pairing involved
    text = format_coords(to_i_basis(a), I_BASIS_ORDER, I_BASIS_SYMBOL)
    assert parse_class_expr(text) == a


@PROPERTY
@given(classes, classes, classes)
def test_ring_laws(a, b, c):
    assert mul_classes(a, b) == mul_classes(b, a)
    assert mul_classes(mul_classes(a, b), c) == mul_classes(a, mul_classes(b, c))
    assert mul_classes(a, b + c) == mul_classes(a, b) + mul_classes(a, c)


def naive_product(a, b):
    """The product as the plain triple sum over the structure constants."""
    out = [Fraction(0)] * 12
    for k1, x in zip(LABELS, a.coords):
        for k2, y in zip(LABELS, b.coords):
            for j, k in enumerate(_MULT[(k1, k2)]):
                out[j] += Fraction(x) * Fraction(y) * Fraction(k)
    return ChowClass(tuple(out))


@PROPERTY
@given(sparse_classes, sparse_classes)
def test_product_equals_the_naive_triple_sum(a, b):
    product = mul_classes(a, b)
    assert product == naive_product(a, b)
    assert all(type(x) is Fraction for x in product.coords)


@PROPERTY
@given(sparse_classes)
def test_i_basis_coordinates_are_the_pairings_with_the_duals(a):
    # the structure constants give what the full products' integrals give
    coords = to_i_basis(a)
    assert coords == tuple(integrate(mul_classes(ChowClass.basis(DUAL[l]), a))
                           for l in I_BASIS_ORDER)
    assert all(type(x) is Fraction for x in coords)


@PROPERTY
@given(st.sampled_from(LABELS))
def test_a_basis_element_is_the_class_of_its_unit_vector(label):
    built = ChowClass(tuple(Fraction(int(k == label)) for k in LABELS))
    shared = ChowClass.basis(label)
    assert shared == built and hash(shared) == hash(built)
    assert repr(shared) == repr(built)
    assert pickle.loads(pickle.dumps(shared)) == built
    assert ChowClass.basis(label) is shared


def per_term_product(a, b):
    """The product as one Fraction per term: c1 * c2 times each structure
    constant, added to the coordinate."""
    coords = [Fraction(0)] * 12
    right = [(k2, c2) for k2, c2 in zip(LABELS, b.coords) if c2]
    for k1, c1 in zip(LABELS, a.coords):
        if not c1:
            continue
        for k2, c2 in right:
            f = c1 * c2
            for j, k in enumerate(_MULT[(k1, k2)]):
                if k:
                    coords[j] += f * k
    return ChowClass(tuple(coords))


def per_term_i_basis(a):
    """The i-basis coordinates as one Fraction per term."""
    terms = [(k, c) for k, c in zip(LABELS, a.coords) if c]
    return tuple(sum((c * _MULT[DUAL[l], k][-1] for k, c in terms), Fraction(0))
                 for l in I_BASIS_ORDER)


@PROPERTY
@given(mixed_classes, mixed_classes)
def test_grouped_products_equal_the_per_term_fraction_sums(a, b):
    # the integer numerator sums divide once per denominator; the values,
    # their types and their reprs are those of the per-term Fraction loops
    product, expected = mul_classes(a, b), per_term_product(a, b)
    assert product == expected and repr(product) == repr(expected)
    assert all(type(x) is Fraction for x in product.coords)
    coords, expected = to_i_basis(a), per_term_i_basis(a)
    assert coords == expected and repr(coords) == repr(expected)
    assert all(type(x) is Fraction for x in coords)


def test_a_square_over_twelve_long_distinct_denominators_equals_the_per_term_sum():
    # each product of two denominators is summed on its own, never over the
    # lcm of all twelve, which is twelve times as long
    rng = random.Random(12)
    a = ChowClass(tuple(Fraction(rng.randrange(1, 10**4000), rng.randrange(10**3999, 10**4000))
                        for _ in range(12)))
    assert len({x.denominator for x in a.coords}) == 12
    product = mul_classes(a, a)
    assert product.coords == per_term_product(a, a).coords
    assert all(type(x) is Fraction for x in product.coords)
    assert to_i_basis(a) == per_term_i_basis(a)
