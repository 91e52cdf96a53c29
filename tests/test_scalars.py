"""Exact scalar field: canonical form, field laws, star, evaluation."""

import random
from fractions import Fraction

import pytest

from fuzzyqrg.scalars import ParamScalar, ZERO, ONE, I, LP


def rand_scalar(rng, max_deg=3):
    """Random nonzero-denominator rational function in lp."""
    def rand_poly():
        return tuple(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            + Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * I
            for _ in range(rng.randint(1, max_deg + 1)))
    num = rand_poly()
    den = rand_poly()
    while not any(den):
        den = rand_poly()
    return ParamScalar(num, den)


def test_gauss_rational_basics():
    a = 1 + 2 * I
    b = Fraction(1, 3) - I
    assert a + b == Fraction(4, 3) + I
    assert a * b == Fraction(7, 3) - Fraction(1, 3) * I
    assert (a / a) == ONE
    assert a.star() == 1 - 2 * I
    assert (1 - I).eval(0) == 1 - 1j


def test_canonical_form_reduction():
    # (lp^2 - 1) / (lp - 1) reduces to lp + 1
    s = ParamScalar((-1, 0, 1), (-1, ONE))
    assert s == LP + 1
    assert s.den == (ONE,)


def test_canonical_form_monic_denominator():
    # 1 / (2 lp) has monic denominator lp and numerator 1/2
    s = ONE / (2 * LP)
    assert s.den == (ZERO, ONE)
    assert s.num == (ParamScalar.of(Fraction(1, 2)),)


def test_equality_is_structural():
    rng = random.Random(101)
    for _ in range(50):
        a = rand_scalar(rng)
        b = rand_scalar(rng)
        c = a * b
        assert (c / b) == a
        assert ((a - b) + b) == a
        d = a - a
        assert d.is_zero() and d == ZERO


@pytest.mark.parametrize("number, scalar", [
    (2, ParamScalar.of(2)),
    (Fraction(1, 2), ParamScalar.of(Fraction(1, 2))),
    (Fraction(3, 2), ParamScalar((3,), (2,))),
    (2, ParamScalar((ParamScalar.of(2),))),
])
def test_equal_constants_hash_alike(number, scalar):
    assert number == scalar
    assert number in {scalar}


def test_field_laws_random():
    rng = random.Random(7)
    for _ in range(40):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a + b == b + a
        if not b.is_zero():
            assert (a / b) * b == a


def test_star_is_conjugation():
    two_i_lp = 2 * I * LP
    assert two_i_lp.star() == -2 * I * LP
    assert (ONE / (ONE - LP * LP)).star() == ONE / (ONE - LP * LP)
    rng = random.Random(13)
    for _ in range(30):
        a, b = rand_scalar(rng), rand_scalar(rng)
        assert (a * b).star() == a.star() * b.star()
        assert (a + b).star() == a.star() + b.star()
        assert a.star().star() == a


def test_eval_homomorphism():
    s = ONE / (2 * I * LP)
    assert abs(s.eval(0.5) - (-1j)) < 1e-12
    rng = random.Random(23)
    for _ in range(30):
        a, b = rand_scalar(rng), rand_scalar(rng)
        v = rng.uniform(0.1, 0.9)
        try:
            lhs = (a * b).eval(v)
            rhs = a.eval(v) * b.eval(v)
        except ZeroDivisionError:
            continue
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs) <= 1e-9 * scale
        lhs = (a + b).eval(v)
        rhs = a.eval(v) + b.eval(v)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_eval_at_pole_raises():
    s = ONE / LP
    with pytest.raises(ZeroDivisionError):
        s.eval(0.0)


def test_pow():
    assert LP ** 3 == LP * LP * LP
    assert (2 * LP) ** -2 == ONE / (4 * LP * LP)
    assert LP ** 0 == ONE


def test_rendering_uses_lp():
    assert str(LP) == "lp"
    assert str(ONE - LP * LP) == "1 - lp^2"
    # denominators are normalized monic, so 1/(1 - lp^2) = (-1)/(lp^2 - 1)
    s = ONE / (ONE - LP * LP)
    assert str(s) == "(-1)/(-1 + lp^2)"
    assert str(2 * I * LP) == "2*i*lp"


def test_one_half_by_three_routes_is_one_value():
    routes = (ParamScalar.of(Fraction(1, 2)), ONE / 2,
              ParamScalar((Fraction(1, 2),)))
    for s in routes[1:]:
        assert s == routes[0]
        assert hash(s) == hash(routes[0])


def test_big_integer_coefficients_cancel():
    p = LP + Fraction(10 ** 40, 3)
    assert p ** 6 / p ** 5 == p
    assert (p ** 6 / p ** 5).den == (ONE,)


def test_rational_rendering_golden():
    assert str(ONE / (2 * I * LP)) == "(-1/2*i)/(lp)"
    assert str(ONE / (ONE + LP)) == "(1)/(1 + lp)"
    assert str((4 * I) / (LP - 1)) == "(4*i)/(-1 + lp)"


def test_polynomial_arithmetic_makes_no_fraction(monkeypatch):
    # operands with denominator 1, one with a content denominator 3
    a = (2 + I) * LP ** 2 - LP + 5
    b = (LP - 7 * I) / 3
    c = Fraction(2, 5) - I
    made = []
    new_fraction = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new_fraction(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    results = [a * b, a + b, a - b, b * b + a, -a, a.star(), c.inverse(),
               a * c.inverse(), (a * b) == (b * a), hash(a * b)]
    assert made == []
    monkeypatch.undo()
    assert results[0] == results[3] - b * b - a + a * b
    assert results[6] * c == ONE


def test_constructor_rejects_inexact_coefficients():
    with pytest.raises(TypeError):
        ParamScalar((ONE, 1.5))
    with pytest.raises(TypeError):
        ParamScalar((ONE,), (0.5,))
    with pytest.raises(TypeError):
        ParamScalar((1, LP))
    with pytest.raises(TypeError):
        ParamScalar((ONE,), (ONE / LP,))


@pytest.mark.parametrize("scalar, text", [
    (ParamScalar.of(Fraction(-3, 4)), "-3/4"),
    (ZERO, "0"),
    (I, "i"),
    (-I, "-i"),
    (Fraction(2, 3) * I, "2/3*i"),
    (Fraction(-2, 3) * I, "-2/3*i"),
    (Fraction(1, 2) + Fraction(2, 3) * I, "1/2+2/3*i"),
    (Fraction(1, 2) - Fraction(2, 3) * I, "1/2-2/3*i"),
    (3 - I, "3-i"),
    (1 - LP + LP ** 3 - LP ** 4, "1 - lp + lp^3 - lp^4"),
    (-I * LP, "-i*lp"),
    (Fraction(-3, 4) * LP - Fraction(2, 3) * I * LP ** 2,
     "-3/4*lp - 2/3*i*lp^2"),
    ((Fraction(1, 2) - I) * LP + (2 + I) * LP ** 2
     - Fraction(1, 3) * I * LP ** 3 + I * LP ** 5 - I * LP ** 6,
     "(1/2-i)*lp + (2+i)*lp^2 - 1/3*i*lp^3 + i*lp^5 - i*lp^6"),
    ((Fraction(-1, 2) + I) * LP, "(-1/2+i)*lp"),
    (2 + (Fraction(-1, 2) - I) * LP, "2 + (-1/2-i)*lp"),
    (ONE / (Fraction(2, 3) * LP), "(3/2)/(lp)"),
    ((1 + I) / (LP + I), "(1+i)/(i + lp)"),
    ((Fraction(1, 2) - I * LP ** 2) / (Fraction(2, 3) * I + LP ** 2 * (1 - I)),
     "(1/4+1/4*i + (1/2-1/2*i)*lp^2)/(-1/3+1/3*i + lp^2)"),
])
def test_coefficient_rendering_golden(scalar, text):
    assert str(scalar) == text
    assert repr(scalar) == text


def test_complex_quotient_canonical_form():
    q = (1 + I) / (LP + I)
    assert q.num == (1 + I,)
    assert q.den == (I, ONE)
