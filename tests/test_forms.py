"""Differential calculus: d, wedge, inner form, basis reconstruction."""

import random
from fractions import Fraction

import pytest

from fuzzyqrg.scalars import ParamScalar, ONE, I, LP
from fuzzyqrg.algebra import AlgElem, X1, X2, X3
from fuzzyqrg.forms import (
    DiffForm, TensorForm, d, wedge, tensor, theta, s_from_dx, partials,
    s_basis, eps3)

S1, S2, S3 = s_basis(1), s_basis(2), s_basis(3)


def monomials_up_to(deg):
    out = []
    for a in range(deg + 1):
        for b in range(deg + 1 - a):
            for c in (0, 1):
                if a + b + c <= deg:
                    out.append((a, b, c))
    return out


def rand_alg(rng, max_deg=3):
    out = AlgElem.zero()
    for _ in range(3):
        a = rng.randint(0, max_deg)
        b = rng.randint(0, max_deg - a)
        c = rng.randint(0, min(1, max_deg - a - b))
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        out = out + AlgElem.monomial((a, b, c), coeff)
    return out


def test_d_on_generators():
    assert d(X1) == X2 * S3 - X3 * S2
    assert d(X2) == X3 * S1 - X1 * S3
    assert d(X3) == X1 * S2 - X2 * S1


def test_d_of_one_is_zero():
    assert d(AlgElem.one()).is_zero()


def test_d_of_sphere_relation_is_zero():
    cas = X1 * X1 + X2 * X2 + X3 * X3
    assert d(cas).is_zero()


def test_wedge_anticommutes_on_basis():
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            si, sj = s_basis(i), s_basis(j)
            assert wedge(si, sj) == -wedge(sj, si)
            if i == j:
                assert wedge(si, sj).is_zero()


def test_wedge_coefficients_multiply_in_order():
    # (x1 s1) ^ (x2 s2) carries coefficient x1*x2 on s1^s2
    w = wedge(X1 * S1, X2 * S2)
    assert w.component(1, 2) == X1 * X2


def test_top_degree_retained():
    vol = wedge(wedge(S1, S2), S3)
    assert vol.degree == 3
    assert not vol.is_zero()
    assert wedge(S2, wedge(S1, S3)) == -vol


def test_d_squared_zero_on_monomials():
    for key in monomials_up_to(3):
        a = AlgElem.monomial(key)
        assert d(d(a)).is_zero(), f"d^2 != 0 on {key}"


def test_d_squared_zero_on_basis_one_forms():
    for i in (1, 2, 3):
        assert d(d(s_basis(i))).is_zero()


def test_d_squared_zero_on_random_elements():
    rng = random.Random(53)
    for _ in range(20):
        a = rand_alg(rng)
        assert d(d(a)).is_zero()


def test_leibniz_degree_zero():
    rng = random.Random(59)
    for _ in range(12):
        u, v = rand_alg(rng, 2), rand_alg(rng, 2)
        assert d(u * v) == d(u) * v + u * d(v)


def test_graded_leibniz_one_form():
    rng = random.Random(61)
    for _ in range(8):
        a = rand_alg(rng, 2)
        w = a * S1 + rand_alg(rng, 2) * S2
        u = rand_alg(rng, 2)
        # d(u w) = (d u) ^ w + u d(w)
        assert d(u * w) == wedge(d(u), w) + u * d(w)


def test_calculus_is_inner_in_degree_zero():
    th = theta()
    for key in monomials_up_to(4):
        a = AlgElem.monomial(key)
        assert d(a) == th * a - a * th, f"inner property fails on {key}"


def test_theta_from_x_dx():
    # (1/(2 i lp)^2) x_i d x_i equals theta
    acc = DiffForm(1)
    for i in (1, 2, 3):
        acc = acc + AlgElem.generator(i) * d(AlgElem.generator(i))
    scale = (ONE / (2 * I * LP)) ** 2
    assert scale * acc == theta()


def test_s_from_dx_reconstructs_basis():
    for l in (1, 2, 3):
        assert s_from_dx(l) == s_basis(l)


def test_partials():
    # d x1 = x2 s3 - x3 s2 so partial_2 x1 = -x3, partial_3 x1 = x2
    p = partials(X1)
    assert p[0].is_zero()
    assert p[1] == -X3
    assert p[2] == X2


def test_ds_formula():
    for i in (1, 2, 3):
        expected = DiffForm(2)
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                e = eps3(i, j, k)
                if e:
                    expected = expected + AlgElem.scalar(
                        ParamScalar.of(-e) / 2) * wedge(s_basis(j), s_basis(k))
        assert d(s_basis(i)) == expected


def test_star_on_forms():
    w = (2 * I * LP) * S1
    assert w.star() == (-2 * I * LP) * S1
    vol = wedge(wedge(S1, S2), S3)
    assert vol.star() == vol


def test_tensor_bilinear():
    t = tensor(X1 * S1, X2 * S2)
    assert isinstance(t, TensorForm)
    assert t.component((1,), 2) == X1 * X2
    t2 = tensor(wedge(S1, S2), S3)
    assert t2.left_degree == 2
    assert t2.component((1, 2), 3) == AlgElem.one()


def test_tensor_degree_checks():
    with pytest.raises(ValueError):
        tensor(S1, wedge(S1, S2))


def test_diff_and_tensor_forms_do_not_mix():
    t = tensor(S1, S2)
    with pytest.raises(TypeError):
        S1 + t
    with pytest.raises(TypeError):
        t + S1
    assert (DiffForm(1) == TensorForm(1)) is False


def test_sums_require_equal_grade():
    with pytest.raises(ValueError):
        DiffForm(1) + DiffForm(2)
    with pytest.raises(ValueError):
        S1 + wedge(S1, S2)
    with pytest.raises(ValueError):
        TensorForm(1) + TensorForm(2)
    with pytest.raises(ValueError):
        tensor(S1, S2) + tensor(wedge(S1, S2), S3)


def test_tensor_form_rendering():
    assert str(tensor(X1 * S1 + LP * S3, X3 * S2 + S1)) == (
        "((1) * x1) s1(x)s1 + ((1) * x1 x3) s1(x)s2"
        " + ((lp) * 1) s3(x)s1 + ((lp) * x3) s3(x)s2")
    assert str(tensor(wedge(S1, S2), I * S3)) == "((i) * 1) s1^s2(x)s3"


# -- reference d from the paper's three rules (arXiv:2004.14363, section 2):
# -- inner in degree 0, d s^i below, and the graded Leibniz rule
# -- d(a s^I) = (d a) ^ s^I + a d(s^I) over the central basis

def _ref_ds(i):
    """d s^i = -(1/2) eps_ijk s^j ^ s^k."""
    out = DiffForm(2)
    for j in (1, 2, 3):
        for k in (1, 2, 3):
            out = out + AlgElem.scalar(ParamScalar.of(-eps3(i, j, k)) / 2) \
                * wedge(s_basis(j), s_basis(k))
    return out


_REF_DS = {i: _ref_ds(i) for i in (1, 2, 3)}


def _ref_d(form):
    if isinstance(form, AlgElem):
        return theta() * form - form * theta()
    if form.degree == 3:
        return DiffForm(3)
    out = DiffForm(form.degree + 1)
    for key, a in form.components.items():
        if len(key) == 1:
            ds = _REF_DS[key[0]]
        else:   # d(s^i ^ s^j) = d s^i ^ s^j - s^i ^ d s^j
            i, j = key
            ds = _REF_DS[i].wedge(s_basis(j)) - s_basis(i).wedge(_REF_DS[j])
        basis = DiffForm(form.degree, {key: ONE})
        out = out + _ref_d(a).wedge(basis) + a * ds
    return out


KEYS = {1: ((1,), (2,), (3,)), 2: ((1, 2), (1, 3), (2, 3)), 3: ((1, 2, 3),)}


def rand_form(rng, degree):
    """A form with a random polynomial coefficient (some with lp and i) on
    every basis key of the degree."""
    comps = {}
    for key in KEYS[degree]:
        c = rand_alg(rng)
        if rng.random() < 0.5:
            c = c + (LP if rng.random() < 0.5 else I) * rand_alg(rng, 2)
        comps[key] = c
    return DiffForm(degree, comps)


@pytest.mark.parametrize("degree", [1, 2])
def test_d_matches_reference_on_random_forms(degree):
    rng = random.Random(67 + degree)
    for _ in range(15):
        w = rand_form(rng, degree)
        dw = d(w)
        assert dw.degree == degree + 1
        assert dw == _ref_d(w)
        assert d(dw).is_zero()


def test_d_matches_reference_on_basis_forms():
    for degree in (1, 2, 3):
        for key in KEYS[degree]:
            basis = DiffForm(degree, {key: AlgElem.one()})
            assert d(basis) == _ref_d(basis), f"d differs on s^{key}"
    assert d(wedge(wedge(S1, S2), S3)) == DiffForm(3)


def test_d_of_a_two_form_with_polynomial_coefficients():
    # d(x1 s2^s3) = (d x1) ^ s2^s3 = (x2 s3 - x3 s2) ^ s2^s3 = 0 and
    # d(x2 s2^s3) = (x3 s1 - x1 s3) ^ s2^s3 = x3 s1^s2^s3
    s23 = wedge(S2, S3)
    vol = wedge(s23, S1)
    assert d(X1 * s23).is_zero()
    assert d(X2 * s23) == X3 * vol
    assert d(X3 * X2 * s23) == _ref_d(X3 * X2 * s23)


def test_d_results_do_not_share_state():
    first = d(X1 * X2 * S1)
    for coeff in first.components.values():
        coeff.terms.clear()
    assert d(X1 * X2 * S1) == _ref_d(X1 * X2 * S1)
