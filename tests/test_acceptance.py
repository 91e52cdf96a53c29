"""End-to-end acceptance suite.

Each test covers one acceptance criterion, enforces its runtime budget,
and prints a single verdict line (visible with pytest -s or on failure).
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from fuzzyqrg.algebra import AlgElem, X1, X2, X3, commutator
from fuzzyqrg.forms import d, s_basis, s_from_dx, theta
from fuzzyqrg.geometry import (
    Metric3, qlc, solve_qlc_linear, connection_from_gamma_matrix, torsion,
    cotorsion, metric_compat_defect, curvature, scalar_closed_form,
    scalar_perturbation, curvature_2form, rho_2forms)
from fuzzyqrg.monopole import (
    AlgMatrix, projector, coords, grassmann_connection,
    grassmann_closed_form, monopole_curvature)
from fuzzyqrg.qgravity import (
    QGConfig, moment_set, mc_matrix_oracle, uvw_map, uvw_inverse, quad_form,
    quad_form_uvw, partial_Zu, sweep)
from fuzzyqrg.scalars import I, LP, ONE

IDX = (0, 1, 2)

# Regime for the asymptotic moment ratios, frozen from the calibration
# scan documented in the README: on the corner/pinned balance curve at
# L/sqrt(G) = 8 the ratios sit within 3% of their limits, so a 5%
# tolerance has comfortable margin.
REGIME_G = 1.5625
REGIME_EPS = 6.236294250248896e-30
REGIME_L = 10.0
REGIME_TOL = 0.05


@contextmanager
def criterion(num, name, limit_s):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print("criterion %d (%s): FAIL" % (num, name))
        raise
    dt = time.monotonic() - t0
    if dt >= limit_s:
        print("criterion %d (%s): FAIL (%.1fs exceeds %gs)"
              % (num, name, dt, limit_s))
        raise AssertionError(
            "criterion %d exceeded its %gs budget: %.1fs" % (num, limit_s, dt))
    print("criterion %d (%s): PASS (%.2fs)" % (num, name, dt))


def tensor_is_zero(t):
    return all(not x for p in t for r in p for x in r)


def rand_metric(rng, span=6):
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


def normal_monomials(max_deg):
    out = []
    for a in range(max_deg + 1):
        for b in range(max_deg + 1 - a):
            for c in (0, 1):
                if a + b + c <= max_deg:
                    out.append(AlgElem.monomial((a, b, c)))
    return out


def test_criterion_1_round_metric():
    with criterion(1, "round metric curvature", 1.0):
        data = curvature(qlc(Metric3.identity()))
        assert data.scalar == Fraction(-3, 4)
        assert data.ricci == tuple(
            tuple(Fraction(-1, 4) if i == j else 0 for j in IDX) for i in IDX)
        assert scalar_closed_form(Metric3.identity()) == Fraction(-3, 4)


def test_criterion_2_qlc_property_suite():
    with criterion(2, "connection defects on 100 random metrics", 10.0):
        rng = random.Random(101)
        for _ in range(100):
            g = rand_metric(rng)
            conn = qlc(g)
            assert tensor_is_zero(torsion(conn))
            assert tensor_is_zero(cotorsion(conn))
            assert tensor_is_zero(metric_compat_defect(conn))
            gamma = solve_qlc_linear(g)
            tr = g.trace()
            assert gamma == tuple(
                tuple(2 * g.entries[m][n] - (tr if m == n else 0)
                      for n in IDX) for m in IDX)
            assert connection_from_gamma_matrix(gamma, g) == conn


def test_criterion_3_dual_path_curvature():
    with criterion(3, "curvature via two independent routes", 30.0):
        rng = random.Random(101)
        metrics = [rand_metric(rng) for _ in range(100)]
        for g in metrics:
            conn = qlc(g)
            assert curvature(conn, g).scalar == scalar_closed_form(g)
        for g in metrics[:10]:
            conn = qlc(g)
            assert curvature_2form(conn, g) == rho_2forms(conn, g)


def test_criterion_4_calculus_identities():
    with criterion(4, "exterior calculus identities", 5.0):
        th = theta()
        for a in normal_monomials(3):
            assert d(d(a)).is_zero()
            assert d(a) == th * a - a * th
        for i in (1, 2, 3):
            assert d(d(s_basis(i))).is_zero()
            assert s_from_dx(i) == s_basis(i)


def test_criterion_5_monopole_suite():
    with criterion(5, "monopole projector geometry", 10.0):
        p = projector()
        assert (p @ p - p).is_zero()
        assert grassmann_connection() == grassmann_closed_form()
        f12, f31, f23 = monopole_curvature()
        lp_a = AlgElem.one() * LP
        assert (f12 - 2 * (AlgMatrix([[X3 - lp_a, 0], [0, X3 + lp_a]]) @ p)
                ).is_zero()
        assert (f31 - 2 * (AlgMatrix([[X2, I * lp_a], [-I * lp_a, X2]]) @ p)
                ).is_zero()
        assert (f23 - 2 * (AlgMatrix([[X1, lp_a], [lp_a, X1]]) @ p)
                ).is_zero()
        for f in (f12, f31, f23):
            assert f @ p == f
        x, z = coords()
        assert commutator(x, z) == AlgElem.one() * LP * z
        assert z.star() * z == x * (AlgElem.one() - x)


def test_criterion_6_perturbation_scaling():
    with criterion(6, "cubic remainder of the quadratic model", 1.0):
        rng = random.Random(0)
        count = 0
        while count < 10:
            e = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in IDX] for _ in IDX]
            for i in IDX:
                for j in range(i + 1, 3):
                    e[j][i] = e[i][j]
            m = max(abs(x) for row in e for x in row)
            if m == 0:
                continue
            direction = [[x / m for x in row] for row in e]
            count += 1

            def residual(t):
                scaled = [[t * direction[i][j] for j in IDX] for i in IDX]
                g = Metric3([[int(i == j) + scaled[i][j] for j in IDX]
                             for i in IDX])
                return abs(scalar_closed_form(g)
                           - scalar_perturbation(scaled))

            ratio = residual(Fraction(2, 100)) / residual(Fraction(1, 100))
            assert 7 <= ratio <= 9, "remainder not cubic: ratio %s" % ratio


def test_criterion_7_functional_integral_numerics():
    with criterion(7, "metric integral quadrature vs MC and asymptotics",
                   300.0):
        # (a) two parameterizations, no shared code, 3 sigma agreement
        cfg = QGConfig(G=1.0, eps=0.1, L=3.0, resolution=48,
                       samples=200_000, seed=11)
        quad = moment_set(cfg, [(1,), (1, 2, 3), (1, 1)])
        checks = [
            (3 * quad[(1,)].value, 3 * quad[(1,)].error,
             mc_matrix_oracle(cfg, lambda g: np.trace(g))),
            (quad[(1, 2, 3)].value, quad[(1, 2, 3)].error,
             mc_matrix_oracle(cfg, lambda g: np.linalg.det(g))),
            (3 * quad[(1, 1)].value, 3 * quad[(1, 1)].error,
             mc_matrix_oracle(cfg, lambda g: np.trace(g @ g))),
        ]
        for qv, qe, mc in checks:
            assert abs(qv - mc.value) < 3 * math.hypot(mc.stderr, qe)

        # (b) sweeps are bit-reproducible
        scfg = QGConfig(G=1.0, eps=0.1, L=3.0, resolution=24)
        first = sweep(scfg, [2.0, 3.0], specs=[(1,), (1, 2)])
        second = sweep(scfg, [2.0, 3.0], specs=[(1,), (1, 2)])
        assert first.to_csv() == second.to_csv()
        assert first.to_json() == second.to_json()

        # (c) permutation symmetry and resolution-doubling stability
        est = moment_set(cfg, [(1,), (3,), (1, 2), (2, 3)])
        assert est[(1,)].value == est[(3,)].value
        assert est[(1, 2)].value == est[(2, 3)].value
        coarse = moment_set(QGConfig(G=1.0, eps=0.1, L=3.0, resolution=24),
                            [(1,)])[(1,)]
        fine = moment_set(cfg, [(1,)])[(1,)]
        tol = max(coarse.error, 1e-12 * abs(fine.value))
        assert abs(coarse.value - fine.value) <= tol

        # (d) frozen balance regime: moment ratios near their asymptotes
        regime = QGConfig(G=REGIME_G, eps=REGIME_EPS, L=REGIME_L,
                          resolution=48)
        est = moment_set(regime, [(1,), (1, 2), (1, 1)])
        m1, m12, m11 = est[(1,)], est[(1, 2)], est[(1, 1)]
        ratio = m12.value / m1.value ** 2
        unc = math.sqrt(max(m11.value - m1.value ** 2, 0.0)) / m1.value
        assert abs(ratio - 16.0 / 3.0) / (16.0 / 3.0) < REGIME_TOL
        assert abs(unc - math.sqrt(13.0 / 3.0)) / math.sqrt(13.0 / 3.0) \
            < REGIME_TOL


def test_criterion_8_partial_theory():
    with criterion(8, "fixed-u fluctuation integral", 60.0):
        rng = random.Random(17)
        for _ in range(25):
            lams = sorted(Fraction(rng.randint(-12, 12), rng.randint(1, 7))
                          for _ in range(3))
            u, v, w = uvw_map(*lams)
            assert uvw_inverse(u, v, w) == tuple(lams)
            assert quad_form_uvw(u, v, w) == quad_form(*lams)
        assert uvw_map(Fraction(1), Fraction(2), Fraction(3)) == (
            Fraction(2), Fraction(1, 2), Fraction(1, 2))
        assert quad_form_uvw(Fraction(2), Fraction(1, 2), Fraction(1, 2)) \
            == -8

        a = partial_Zu(2.0, 1.0, resolution=64)
        b = partial_Zu(2.0, 1.0, resolution=128)
        assert abs(a.value - b.value) / b.value < 0.01
        vals = [partial_Zu(2.0, G, resolution=64).value
                for G in (4.0, 2.0, 1.0, 0.5, 0.25)]
        assert all(x > y for x, y in zip(vals, vals[1:]))
