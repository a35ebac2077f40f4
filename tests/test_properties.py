"""Property tests for the sign-vector calculus and algebra invariants."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from omcanon import SignVector, algebra_of

from conftest import cyclic_line_chirotope
from oracle_ops import compose, conforms_to, is_orthogonal, support

GROUND = (0, 1, 2, 3, 4)

signs = st.sampled_from((-1, 0, 1))
vectors = st.tuples(*([signs] * len(GROUND))).map(
    lambda s: SignVector(GROUND, s))


@given(vectors, vectors)
def test_composition_idempotent_absorbing(x, y):
    assert compose(x, x) == x
    assert support(compose(x, y)) == support(x) | support(y)
    assert conforms_to(compose(x, y), compose(x, y))


@given(vectors, vectors, vectors)
def test_composition_associative(x, y, z):
    assert compose(compose(x, y), z) == compose(x, compose(y, z))


@given(vectors, vectors)
def test_orthogonality_symmetric_and_negation_stable(x, y):
    assert is_orthogonal(x, y) == is_orthogonal(y, x)
    assert is_orthogonal(x, y) == is_orthogonal(-x, y)


@given(vectors)
def test_zero_orthogonal_to_all(x):
    zero = SignVector(GROUND, (0,) * len(GROUND))
    assert is_orthogonal(zero, x)
    assert conforms_to(x, x)


@st.composite
def os_elements(draw, grade):
    from omcanon import oriented_matroid_for
    alg = algebra_of(oriented_matroid_for(cyclic_line_chirotope(4)))
    keys = alg.nbc[grade]
    coeffs = draw(st.lists(
        st.integers(min_value=-5, max_value=5),
        min_size=len(keys), max_size=len(keys)))
    return alg.from_terms(grade, {k: Fraction(c) for k, c in zip(keys, coeffs)
                                  if c})


@settings(max_examples=40)
@given(os_elements(2))
def test_boundary_squared_vanishes(x):
    alg = x.algebra
    assert alg.boundary(alg.boundary(x)).is_zero


@settings(max_examples=40)
@given(os_elements(1), os_elements(1))
def test_wedge_antisymmetric_in_grade_one(x, y):
    assert x.wedge(y) == -(y.wedge(x))
    assert x.wedge(x).is_zero


@settings(max_examples=40)
@given(os_elements(1), os_elements(1), os_elements(1))
def test_wedge_bilinear(x, y, z):
    assert x.wedge(y + z) == x.wedge(y) + x.wedge(z)
    assert (x + y).wedge(z) == x.wedge(z) + y.wedge(z)


@settings(max_examples=30)
@given(os_elements(2))
def test_boundary_image_is_reduced(x):
    alg = x.algebra
    y = alg.boundary(x)
    assert alg.boundary(y).is_zero
    assert alg.coordinates_in(y, alg.reduced_basis(1)) is not None
