"""Property tests of the exact layer on random elements.

Algebra elements are sums of normal-ordered monomials of degree at most 3
with small Gaussian-rational coefficients, some of them times lp, so every
product below stays far under the algebra's degree limit.  Connections are
random exact coefficient arrays whose denominators need not divide the
metric's.
"""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from fuzzyqrg.algebra import AlgElem, DEGREE_LIMIT, X1
from fuzzyqrg.forms import EPS, d, theta, wedge
from fuzzyqrg.geometry import (Connection3, Metric3, cotorsion, curvature,
                               metric_compat_defect, nabla_g, torsion)
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

IDX = (0, 1, 2)
# metric entries over 1, 2 or 4; coefficients ints or over 3, 5 or 7, so a
# coefficient's denominator never divides the metric's
_metric_rows = st.lists(
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 4])),
    min_size=6, max_size=6).map(lambda v: [[v[0], v[1], v[2]],
                                           [v[1], v[3], v[4]],
                                           [v[2], v[4], v[5]]])
_coefficients = st.lists(
    st.one_of(st.integers(-3, 3),
              st.builds(Fraction, st.integers(-6, 6),
                        st.sampled_from([3, 5, 7]))),
    min_size=27, max_size=27).map(
    lambda v: [[v[9 * i + 3 * j:9 * i + 3 * j + 3] for j in IDX]
               for i in IDX])


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


def _inverse(e):
    """The inverse of a 3x3 matrix of Fractions by cofactors, or None."""
    cof = [[e[(i + 1) % 3][(j + 1) % 3] * e[(i + 2) % 3][(j + 2) % 3]
            - e[(i + 1) % 3][(j + 2) % 3] * e[(i + 2) % 3][(j + 1) % 3]
            for j in IDX] for i in IDX]
    det = sum(e[0][j] * cof[0][j] for j in IDX)
    return [[cof[j][i] / det for j in IDX] for i in IDX] if det else None


def _t3(f):
    return tuple(tuple(tuple(f(i, j, k) for k in IDX) for j in IDX)
                 for i in IDX)


@_fast
@given(_metric_rows, _coefficients)
def test_connection_outputs_match_fraction_formulas(rows, ga):
    e, gi = rows, _inverse(rows)
    assume(gi is not None)
    conn = Connection3(ga, Metric3(rows))

    def eps_g(i, j, k):  # g_im eps_mjk
        return sum(e[i][m] * EPS[m][j][k] for m in IDX)

    up = _t3(lambda i, j, k: sum(gi[i][m] * ga[m][j][k] for m in IDX))
    rho = _t3(lambda i, j, k: up[i][j][k] / 4 - sum(
        EPS[j][m][n] * up[i][m][l] * up[l][n][k]
        for m in IDX for n in IDX for l in IDX) / 8)
    ricci = tuple(tuple(sum(rho[i][j][n] * EPS[j][i][m]
                            for i in IDX for j in IDX) for n in IDX)
                  for m in IDX)
    data = curvature(conn)
    expected = [
        (torsion(conn), _t3(lambda i, j, k:
                            ga[i][j][k] - ga[i][k][j] - 2 * eps_g(i, j, k))),
        (cotorsion(conn), _t3(lambda i, j, k:
                              ga[i][j][k] - ga[j][i][k] - 2 * eps_g(k, i, j))),
        (metric_compat_defect(conn),
         _t3(lambda l, i, k: Fraction(ga[l][i][k] + ga[k][i][l]))),
        (nabla_g(conn),
         _t3(lambda m, i, n: -Fraction(ga[n][m][i] + ga[i][m][n]) / 2)),
        (conn.raised(), up), (data.rho, rho)]
    for got, want in expected:
        assert got == want
        assert all(type(x) is Fraction for p in got for r in p for x in r)
    assert data.ricci == ricci
    assert data.scalar == sum(ricci[m][n] * gi[m][n]
                              for m in IDX for n in IDX)
    assert type(data.scalar) is Fraction
