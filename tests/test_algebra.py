"""Fuzzy sphere algebra: normal ordering, relations, star, degree guard."""

import random
from fractions import Fraction

import pytest

from fuzzyqrg.scalars import ParamScalar, ONE, I, LP
from fuzzyqrg.algebra import (
    AlgElem, commutator, DegreeLimitError, DEGREE_LIMIT, X1, X2, X3, ONE_A)

TWO_I_LP = 2 * I * LP


def rand_elem(rng, max_deg=3, nterms=3):
    out = AlgElem.zero()
    for _ in range(nterms):
        a = rng.randint(0, max_deg)
        b = rng.randint(0, max_deg - a)
        c = rng.randint(0, min(1, max_deg - a - b))
        coeff = ParamScalar.of(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        if rng.random() < 0.4:
            coeff = coeff + I * Fraction(rng.randint(-2, 2))
        if rng.random() < 0.3:
            coeff = coeff * LP
        out = out + AlgElem.monomial((a, b, c), coeff)
    return out


def test_product_reorders_x2_x1():
    assert X2 * X1 == AlgElem.monomial((1, 1, 0)) \
        + AlgElem.monomial((0, 0, 1), -TWO_I_LP)


def test_product_x3_x3_uses_sphere_relation():
    expected = AlgElem.scalar(ONE - LP * LP) \
        - AlgElem.monomial((2, 0, 0)) - AlgElem.monomial((0, 2, 0))
    assert X3 * X3 == expected


def test_product_x3_x1():
    assert X3 * X1 == AlgElem.monomial((1, 0, 1)) \
        + AlgElem.monomial((0, 1, 0), TWO_I_LP)


def test_commutation_relations():
    assert commutator(X1, X2) == TWO_I_LP * X3
    assert commutator(X2, X3) == TWO_I_LP * X1
    assert commutator(X3, X1) == TWO_I_LP * X2


def test_sphere_relation():
    assert X1 * X1 + X2 * X2 + X3 * X3 == AlgElem.scalar(ONE - LP * LP)


def test_casimir_is_central():
    cas = X1 * X1 + X2 * X2 + X3 * X3
    for x in (X1, X2, X3):
        assert commutator(cas, x).is_zero()


def test_associativity_random():
    rng = random.Random(31)
    for _ in range(15):
        u, v, w = (rand_elem(rng, max_deg=2) for _ in range(3))
        assert (u * v) * w == u * (v * w)


def test_distributivity_random():
    rng = random.Random(37)
    for _ in range(15):
        u, v, w = (rand_elem(rng) for _ in range(3))
        assert u * (v + w) == u * v + u * w


def test_star_fixes_generators():
    for x in (X1, X2, X3):
        assert x.star() == x


def test_star_antihomomorphism():
    rng = random.Random(41)
    for _ in range(15):
        u, v = rand_elem(rng, max_deg=2), rand_elem(rng, max_deg=2)
        assert (u * v).star() == v.star() * u.star()
        assert u.star().star() == u


def test_star_conjugates_coefficients():
    u = AlgElem.monomial((1, 0, 0), TWO_I_LP)
    assert u.star() == AlgElem.monomial((1, 0, 0), -TWO_I_LP)


def test_normal_order_keeps_c_at_most_one():
    rng = random.Random(43)
    for _ in range(10):
        u, v = rand_elem(rng), rand_elem(rng)
        for (a, b, c) in (u * v).terms:
            assert c <= 1


def test_monomial_rejects_non_normal_key():
    with pytest.raises(ValueError):
        AlgElem.monomial((0, 0, 2))


def test_constructor_rejects_non_normal_key():
    # x3^2 is not stored as such: X3 * X3 applies the sphere relation
    with pytest.raises(ValueError, match="normal-ordered"):
        AlgElem({(0, 0, 2): 1})
    with pytest.raises(ValueError, match="normal-ordered"):
        AlgElem({(-1, 0, 0): 1})


def test_constructor_rejects_inexact_coefficient():
    with pytest.raises(TypeError):
        AlgElem({(0, 0, 0): 2.5})
    assert AlgElem({(1, 0, 0): Fraction(1, 2), (0, 1, 0): 0}) \
        == Fraction(1, 2) * X1


def test_degree_guard_on_constant_products():
    big = AlgElem.monomial((DEGREE_LIMIT + 1, 0, 0))
    for s in (AlgElem.scalar(2), ONE_A):
        with pytest.raises(DegreeLimitError):
            s * big
        with pytest.raises(DegreeLimitError):
            big * s


def test_degree_guard():
    big = AlgElem.monomial((13, 0, 0))
    with pytest.raises(DegreeLimitError):
        big * big


def test_scalar_embedding_commutes():
    s = AlgElem.scalar(Fraction(3, 2))
    assert s * X1 == X1 * s


def test_rendering():
    u = X1 * X2
    assert str(u) == "(1) * x1 x2"
    assert str(AlgElem.zero()) == "0"
    assert str(ONE_A) == "(1) * 1"
