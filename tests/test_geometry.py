"""Metric geometry: connection uniqueness, defect tensors, curvature."""

import math
import random
from fractions import Fraction

import pytest

from fuzzyqrg.algebra import AlgElem, X3
from fuzzyqrg.forms import EPS, tensor, s_basis
from fuzzyqrg.scalars import I, LP
from fuzzyqrg.geometry import (
    Metric3, Connection3, qlc, solve_qlc_linear, torsion, cotorsion,
    metric_compat_defect, nabla_g, sigma, curvature, scalar_closed_form,
    scalar_perturbation, curvature_2form, rho_2forms,
    connection_from_gamma_matrix)

IDX = (0, 1, 2)


def tensor_is_zero(t):
    return all(not x for p in t for r in p for x in r)


def rand_metric(rng, span=6):
    """Random symmetric invertible metric with small rational entries."""
    while True:
        e = [[Fraction(rng.randint(-span, span), rng.randint(1, 4))
              for _ in IDX] for _ in IDX]
        for i in IDX:
            for j in range(i + 1, 3):
                e[j][i] = e[i][j]
        try:
            return Metric3(e)
        except ValueError:
            continue


def test_metric_validation():
    with pytest.raises(ValueError, match="not symmetric"):
        Metric3([[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="not invertible"):
        Metric3.diagonal(1, 1, 0)


@pytest.mark.parametrize("rows, msg", [
    ([[math.nan, 0, 0], [0, 1, 0], [0, 0, 1]], "entries must be finite"),
    ([[1.0, 0, 0], [0, 1, 0], [0, 0, math.inf]], "entries must be finite"),
    ([[1.0, 0, 0], [0, 1, 0], [0, 0, 1e-320]], "inverse is not finite"),
    ([[1e200, 0, 0], [0, 1e200, 0], [0, 0, 1.0]], "determinant or inverse"),
])
def test_metric_rejects_non_finite_float_data(rows, msg):
    with pytest.raises(ValueError, match=msg):
        Metric3(rows)


def test_metric_inverse_exact():
    rng = random.Random(3)
    for _ in range(20):
        g = rand_metric(rng)
        prod = [[sum(g.entries[i][k] * g.inverse[k][j] for k in IDX)
                 for j in IDX] for i in IDX]
        assert prod == [[1 if i == j else 0 for j in IDX] for i in IDX]


def test_metric_negative_determinant_accepted():
    g = Metric3.diagonal(1, 1, -1)
    assert g.det == -1
    qlc(g)  # geometry layer accepts indefinite metrics


def test_qlc_round_metric_is_epsilon():
    conn = qlc(Metric3.identity())
    assert conn.gamma == EPS


def test_qlc_example_diag123():
    conn = qlc(Metric3.diagonal(1, 2, 3))
    # Gamma_123 = 2 eps_132 g_22 + Tr(g) eps_123 = -4 + 6 = 2
    assert conn.gamma[0][1][2] == 2


def test_qlc_defects_vanish_random():
    rng = random.Random(71)
    for _ in range(30):
        g = rand_metric(rng)
        conn = qlc(g)
        assert tensor_is_zero(torsion(conn))
        assert tensor_is_zero(cotorsion(conn))
        assert tensor_is_zero(metric_compat_defect(conn))
        assert tensor_is_zero(nabla_g(conn))


def test_defects_detect_wrong_connection():
    g = Metric3.identity()
    zero_conn = Connection3(
        [[[Fraction(0)] * 3 for _ in IDX] for _ in IDX], metric=g)
    t = torsion(zero_conn)
    assert t[0][1][2] == -2 and t[0][2][1] == 2
    c = cotorsion(zero_conn)
    assert {abs(x) for p in c for r in p for x in r if x} == {2}


def test_metric_compat_defect_example():
    # Gamma_ijk = delta_ij delta_k1 has defect D_lik = d_li d_k1 + d_ki d_l1
    gamma = [[[1 if (l == i and k == 0) else 0 for k in IDX]
              for i in IDX] for l in IDX]
    conn = Connection3(gamma)
    dfc = metric_compat_defect(conn)
    for l in IDX:
        for i in IDX:
            for k in IDX:
                expect = (1 if (l == i and k == 0) else 0) \
                    + (1 if (k == i and l == 0) else 0)
                assert dfc[l][i][k] == expect


def test_linear_solver_matches_closed_form():
    rng = random.Random(73)
    for _ in range(30):
        g = rand_metric(rng)
        gm = solve_qlc_linear(g)
        tr = g.trace()
        expected = tuple(
            tuple(2 * g.entries[m][n] - (tr if m == n else 0) for n in IDX)
            for m in IDX)
        assert gm == expected
        assert connection_from_gamma_matrix(gm, g) == qlc(g)


def test_linear_solver_identity_and_diag():
    assert solve_qlc_linear(Metric3.identity()) == (
        (-1, 0, 0), (0, -1, 0), (0, 0, -1))
    assert solve_qlc_linear(Metric3.diagonal(1, 2, 3)) == (
        (-4, 0, 0), (0, -2, 0), (0, 0, 0))


def test_curvature_round_metric():
    cd = curvature(qlc(Metric3.identity()))
    for i in IDX:
        for j in IDX:
            for k in IDX:
                assert cd.rho[i][j][k] == Fraction(EPS[i][j][k], 8)
    assert cd.ricci == tuple(
        tuple(Fraction(-1, 4) if m == n else 0 for n in IDX) for m in IDX)
    assert cd.scalar == Fraction(-3, 4)


def test_scalar_curvature_examples():
    assert scalar_closed_form(Metric3.identity()) == Fraction(-3, 4)
    assert scalar_closed_form(Metric3.diagonal(1, 1, 2)) == Fraction(-1, 2)
    lam = Fraction(2)
    assert scalar_closed_form(Metric3.diagonal(lam, lam, lam)) \
        == Fraction(-3, 4) / lam


def test_scalar_closed_form_matches_contraction():
    rng = random.Random(79)
    for _ in range(30):
        g = rand_metric(rng)
        assert curvature(qlc(g)).scalar == scalar_closed_form(g)


def test_scalar_invariant_under_signed_permutation():
    rng = random.Random(83)
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2), (2, 1, 0)]
    for _ in range(10):
        g = rand_metric(rng)
        p = perms[rng.randrange(6)]
        signs = [rng.choice((-1, 1)) for _ in IDX]
        cmat = [[signs[j] if p[j] == i else 0 for j in IDX] for i in IDX]
        conj = [[sum(cmat[k][i] * g.entries[k][l] * cmat[l][j]
                     for k in IDX for l in IDX) for j in IDX] for i in IDX]
        assert scalar_closed_form(Metric3(conj)) == scalar_closed_form(g)


def test_scalar_perturbation_identity_direction():
    # along E = t*id the model matches -3/(4(1+t)) through second order
    t = Fraction(1, 100)
    e = [[t if i == j else Fraction(0) for j in IDX] for i in IDX]
    model = scalar_perturbation(e)
    exact = Fraction(-3, 4) + Fraction(3, 4) * t - Fraction(3, 4) * t * t
    assert model == exact


def test_scalar_perturbation_cubic_remainder():
    # seed chosen so the cubic term dominates; draws with an accidentally
    # small third-order coefficient scale quartically (ratio near 16)
    rng = random.Random(5)
    for _ in range(10):
        e = [[rng.uniform(-1, 1) for _ in IDX] for _ in IDX]
        for i in IDX:
            for j in range(i + 1, 3):
                e[j][i] = e[i][j]
        ratios = []
        res = {}
        for t in (0.02, 0.01):
            pert = [[t * e[i][j] for j in IDX] for i in IDX]
            gm = [[(1.0 if i == j else 0.0) + pert[i][j] for j in IDX]
                  for i in IDX]
            res[t] = abs(scalar_closed_form(Metric3(gm))
                         - scalar_perturbation(pert))
        assert 7.0 <= res[0.02] / res[0.01] <= 9.0


def test_sigma_is_flip_for_constant_coefficients():
    const = [[[AlgElem.scalar(Fraction(k - j, 2)) for k in range(1, 4)]
              for j in range(1, 4)] for _ in range(3)]
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert sigma(const, i, j) == tensor(s_basis(j), s_basis(i))


def test_sigma_rejects_float_coefficients():
    const = [[[1.5] * 3 for _ in IDX] for _ in IDX]
    with pytest.raises(TypeError):
        sigma(const, 1, 2)


def test_sigma_algebra_valued_example():
    # Gamma^1_11 = x3 and (i,j) = (1,3): the correction is i*lp s1 (x) s1
    zero = AlgElem.zero()
    gam = [[[zero] * 3 for _ in range(3)] for _ in range(3)]
    gam[0][0][0] = X3
    expected = tensor(s_basis(3), s_basis(1)) \
        + tensor((I * LP) * s_basis(1), s_basis(1))
    assert sigma(gam, 1, 3) == expected


def test_curvature_2form_round_metric():
    r = curvature_2form(qlc(Metric3.identity()))
    # R(s^1) = -(1/4) s1^s2 (x) s2 - (1/4) s1^s3 (x) s3
    quarter = AlgElem.scalar(Fraction(-1, 4))
    assert r[0].component((1, 2), 2) == quarter
    assert r[0].component((1, 3), 3) == quarter
    assert r[0].component((2, 3), 1) == AlgElem.zero()


def test_curvature_2form_zero_connection():
    g = Metric3.identity()
    zero_conn = Connection3(
        [[[Fraction(0)] * 3 for _ in IDX] for _ in IDX], metric=g)
    for t in curvature_2form(zero_conn):
        assert t.is_zero()


def test_curvature_2form_agrees_on_random_metrics():
    rng = random.Random(97)
    for _ in range(5):
        g = rand_metric(rng, span=3)
        conn = qlc(g)
        assert curvature_2form(conn) == rho_2forms(conn)


def test_float_metric_pathway():
    g = Metric3([[1.0, 0.2, 0.0], [0.2, 2.0, 0.1], [0.0, 0.1, 1.5]])
    assert not g.is_exact
    conn = qlc(g)
    assert max(abs(x) for p in torsion(conn) for r in p for x in r) < 1e-12
    s_closed = scalar_closed_form(g)
    s_contr = curvature(conn).scalar
    assert abs(s_closed - s_contr) < 1e-12


def test_curvature_float_connection_over_exact_metric_bits():
    # float coefficients over an exact metric keep the float arithmetic of
    # g^{-1} Gamma; the values are pinned bit for bit
    g = Metric3.diagonal(1, 2, 3)
    conn = Connection3([[[(i + j - k) / 2 for k in IDX] for j in IDX]
                        for i in IDX], g)
    data = curvature(conn)
    assert data.scalar.hex() == "0x1.0000000000000p-56"
    assert [[x.hex() for x in r] for r in data.ricci] == [
        ["-0x1.5c71c71c71c70p-5", "0x1.71c71c71c71c4p-5",
         "0x1.1000000000000p-3"],
        ["0x1.038e38e38e38fp-2", "0x1.0e38e38e38e39p-3",
         "0x1.5555555555550p-7"],
        ["0x1.7555555555554p-4", "0x1.5555555555554p-7",
         "-0x1.2000000000000p-4"]]


def test_raised_exact_metric_value():
    g = Metric3([[2, Fraction(1, 2), 0], [Fraction(1, 2), 3, Fraction(-1, 3)],
                 [0, Fraction(-1, 3), 1]])
    over_597 = (((-18, -36, -204), (-36, -190, -54), (-204, -1248, 208)),
                ((72, 144, -378), (144, -36, 216), (816, 216, -36)),
                ((621, 1242, -126), (48, -609, 72), (-126, 72, -12)))
    up = qlc(g).raised()
    assert up == tuple(tuple(tuple(Fraction(n, 597) for n in r) for r in p)
                       for p in over_597)
    assert all(type(x) is Fraction for p in up for r in p for x in r)


def test_connection_requires_metric_for_torsion():
    conn = Connection3([[[0] * 3 for _ in IDX] for _ in IDX])
    with pytest.raises(ValueError, match="no metric"):
        torsion(conn)
