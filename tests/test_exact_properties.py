"""Property tests of the exact layer on random elements.

Algebra elements are sums of normal-ordered monomials of degree at most 3
with small Gaussian-rational coefficients, some of them times lp, so every
product below stays far under the algebra's degree limit.
"""

from hypothesis import assume, given, settings, strategies as st

from fuzzyqrg.algebra import AlgElem, DEGREE_LIMIT, X1
from fuzzyqrg.forms import d, theta, wedge
from fuzzyqrg.scalars import ParamScalar, I, LP, ONE

MAX_DEGREE = 3
assert 2 * MAX_DEGREE < DEGREE_LIMIT

_rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_gauss = st.builds(lambda a, b: ParamScalar.of(a) + ParamScalar.of(b) * I,
                   _rational, _rational)
_coeff = st.builds(lambda g, factor: ParamScalar.of(g) * factor,
                   _gauss, st.sampled_from([ONE, LP]))
_key = st.tuples(st.integers(0, MAX_DEGREE), st.integers(0, MAX_DEGREE),
                 st.integers(0, 1)).filter(lambda k: sum(k) <= MAX_DEGREE)
elements = st.lists(st.tuples(_key, _coeff), max_size=4).map(
    lambda terms: sum((AlgElem.monomial(k, c) for k, c in terms),
                      AlgElem.zero()))

# polynomials of degree <= 2 in lp, and ratios of them
_poly = st.lists(_gauss, min_size=1, max_size=3).map(
    lambda cs: sum((ParamScalar.of(c) * LP ** k for k, c in enumerate(cs)),
                   ParamScalar.zero()))
scalars = st.tuples(_poly, _poly).map(
    lambda nd: nd[0] / nd[1] if nd[1] else nd[0])

_fast = settings(max_examples=20, deadline=None)


@_fast
@given(elements, elements)
def test_star_involution_and_antihomomorphism(a, b):
    assert a.star().star() == a
    assert (a * b).star() == b.star() * a.star()


@_fast
@given(elements)
def test_d_squared_vanishes(a):
    assert d(d(a)).is_zero()


@_fast
@given(elements, elements)
def test_leibniz_rule(a, b):
    assert d(a * b) == d(a) * b + a * d(b)


@_fast
@given(elements)
def test_inner_calculus(a):
    th = theta()
    assert d(a) == th * a - a * th


@_fast
@given(scalars, elements, elements)
def test_constant_products_match_normal_ordering(x, a, b):
    s = AlgElem.scalar(x)
    assert s * a == a * s == x * a
    # (s + x1) * a is normal-ordered term by term
    assert s * a == (s + X1) * a - X1 * a
    assert (a * s) * b == a * (s * b)


@_fast
@given(scalars, elements, elements)
def test_wedge_is_linear_in_constants(x, a, b):
    w1, w2 = d(a), d(b)
    assert wedge(x * w1, w2) == x * wedge(w1, w2)


@settings(max_examples=30, deadline=None)
@given(scalars, scalars, scalars)
def test_param_scalar_field_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assume(a)
    assert a * a.inverse() == ONE


@settings(max_examples=30, deadline=None)
@given(scalars, scalars)
def test_equal_scalars_hash_equal(a, b):
    assume(b)
    for lhs, rhs in (((a * b) / b, a), ((a + b) - b, a),
                     (b.inverse().inverse(), b), (a.star().star(), a)):
        assert lhs == rhs
        assert hash(lhs) == hash(rhs)
