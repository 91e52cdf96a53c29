"""Exact identity suites behind the ``verify`` command.

Each check re-derives one defining identity of the package from first
principles and compares exactly (no floating point).  Reports carry the
equation being checked so a failure names the violated identity.  The
exact layer's compute functions do not check themselves; this registry does,
and the CLI's ``monopole`` reports share its predicates.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import AlgElem, X1, X2, X3, commutator
from .forms import d, eps3, s_basis, s_from_dx, theta
from .geometry import (Metric3, qlc, solve_qlc_linear, _gamma_matrix,
                       connection_from_gamma_matrix, torsion, cotorsion,
                       metric_compat_defect, curvature, scalar_closed_form,
                       curvature_2form, rho_2forms)
from .monopole import (AlgMatrix, FormMatrix, projector, projector_dP,
                       coords, grassmann_connection, grassmann_closed_form,
                       monopole_curvature, f23_factor)
from .scalars import I, LP, ONE

__all__ = ["SUITES", "run_suite", "iter_checks",
           "connection_closed_form_holds", "curvature_factors_hold"]

_IDX = (0, 1, 2)


def _tensor_is_zero(t):
    return all(not x for p in t for r in p for x in r)


def _random_metrics(count, seed=12):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        e = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
              for _ in _IDX] for _ in _IDX]
        for i in _IDX:
            for j in range(i + 1, 3):
                e[j][i] = e[i][j]
        try:
            out.append(Metric3(e))
        except ValueError:
            continue
    return out


# -- algebra ------------------------------------------------------------------


def _check_commutators():
    gens = (X1, X2, X3)
    two_i_lp = 2 * I * LP
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        if commutator(gens[i], gens[j]) != two_i_lp * gens[k]:
            return False
    return True


def _check_radius():
    return X1 * X1 + X2 * X2 + X3 * X3 == AlgElem.one() * (ONE - LP * LP)


def _check_star():
    for g in (X1, X2, X3):
        if g.star() != g:
            return False
    a, b = X1 + I * X2, X3 * X1
    return (a * b).star() == b.star() * a.star()


# -- calculus -----------------------------------------------------------------


def _check_dx():
    gens = (X1, X2, X3)
    for i in _IDX:
        acc = None
        for j in _IDX:
            for k in _IDX:
                e = eps3(i + 1, j + 1, k + 1)
                if e:
                    term = (e * gens[j]) * s_basis(k + 1)
                    acc = term if acc is None else acc + term
        if d(gens[i]) != acc:
            return False
    return True


def _check_d_squared():
    samples = [X1, X2, X3, X1 * X2, X3 * X3, X1 * X2 * X3]
    if any(not d(d(a)).is_zero() for a in samples):
        return False
    return all(d(d(s_basis(i))).is_zero() for i in (1, 2, 3))


def _check_leibniz():
    pairs = [(X1, X2), (X3, X1 * X2), (X2 * X2, X3)]
    return all(d(u * v) == d(u) * v + u * d(v) for u, v in pairs)


def _check_inner():
    th = theta()
    samples = [X1, X2, X3, X1 * X3, X2 * X2 * X1]
    return all(d(a) == th * a - a * th for a in samples)


def _check_s_recovery():
    return all(s_from_dx(l) == s_basis(l) for l in (1, 2, 3))


# -- metric connection ---------------------------------------------------------


def _vanishes_on_qlc(defect):
    """A check that ``defect(qlc(g))`` vanishes on random metrics."""
    return lambda: all(_tensor_is_zero(defect(qlc(g)))
                       for g in _random_metrics(5))


def _check_qlc_solver():
    for g in _random_metrics(5):
        gm = solve_qlc_linear(g)
        if gm != _gamma_matrix(g):
            return False
        if connection_from_gamma_matrix(gm, g) != qlc(g):
            return False
    return True


def _check_round_scalar():
    data = curvature(qlc(Metric3.identity()))
    if data.scalar != Fraction(-3, 4):
        return False
    want = tuple(tuple(Fraction(-1, 4) if i == j else 0 for j in _IDX)
                 for i in _IDX)
    return data.ricci == want


def _check_scalar_closed_form():
    return all(curvature(qlc(g)).scalar == scalar_closed_form(g)
               for g in _random_metrics(5, seed=13))


def _check_two_form_route():
    for g in _random_metrics(2, seed=14):
        conn = qlc(g)
        if curvature_2form(conn, g) != rho_2forms(conn, g):
            return False
    return True


# -- monopole -----------------------------------------------------------------


def _check_projector():
    p = projector()
    if not (p @ p - p).is_zero():
        return False
    if not (p.star() - p).is_zero():
        return False
    return p.trace() == AlgElem.one() * (ONE + LP)


def _check_coords():
    x, z = coords()
    if commutator(x, z) != AlgElem.one() * LP * z:
        return False
    return z.star() * z == x * (AlgElem.one() - x)


def _check_basis_relation():
    # e^1 = (1 + lp - x, z) and e^2 = (z*, x)
    x, z = coords()
    x_lp = x - AlgElem.scalar(LP)
    return (x_lp * (AlgElem.scalar(ONE + LP) - x) == z * z.star()
            and x_lp * z == z * x)


def connection_closed_form_holds(conn):
    """Whether ``conn`` equals the closed form of the Grassmann connection,
    ((1+lp)/2) dP + lp P theta + (i(1-lp^2)/4) Q - (lp(1-lp)/2) theta Id."""
    return conn == grassmann_closed_form()


def _curvature_factor_matrices():
    """The factors M in f = 2 M P of f12, f31 and f23."""
    lp_a = AlgElem.one() * LP
    return (AlgMatrix([[X3 - lp_a, 0], [0, X3 + lp_a]]),
            AlgMatrix([[X2, I * lp_a], [-I * lp_a, X2]]),
            AlgMatrix([[X1, lp_a], [lp_a, X1]]))


def curvature_factors_hold(f12, f31, f23):
    """Whether each curvature coefficient matrix factors as f = 2 M P with
    M = diag(x3 - lp, x3 + lp), [[x2, i lp], [-i lp, x2]] and
    [[x1, lp], [lp, x1]] respectively, and satisfies f P = f."""
    p = projector()
    return all(f == 2 * (m @ p) and f @ p == f
               for f, m in zip((f12, f31, f23), _curvature_factor_matrices()))


def _check_f23_factor():
    return f23_factor() == _curvature_factor_matrices()[2]


def _check_connection_star():
    p = projector()
    dp = projector_dP()
    conn = grassmann_connection()
    p_dp = FormMatrix([
        [p.m[a][0] * dp.m[0][c] + p.m[a][1] * dp.m[1][c] for c in (0, 1)]
        for a in (0, 1)])
    return conn.star() == p_dp


SUITES = {
    "algebra": (
        ("generator commutators",
         "[x_i, x_j] = 2 i lp eps_ijk x_k", _check_commutators),
        ("sphere radius relation",
         "x1^2 + x2^2 + x3^2 = 1 - lp^2", _check_radius),
        ("star anti-involution",
         "(a b)* = b* a*, x_i* = x_i", _check_star),
    ),
    "calculus": (
        ("derivative of generators",
         "d x_i = eps_ijk x_j s^k", _check_dx),
        ("nilpotent derivative",
         "d(d a) = 0", _check_d_squared),
        ("Leibniz rule",
         "d(a b) = (d a) b + a (d b)", _check_leibniz),
        ("inner calculus in degree 0",
         "d a = theta a - a theta", _check_inner),
        ("basis recovery from dx",
         "eps_lim (d x_i) x_m recovers s^l", _check_s_recovery),
    ),
    "qlc": (
        ("torsion vanishes",
         "T_ijk = Gamma_ijk - Gamma_ikj - 2 g_im eps_mjk = 0",
         _vanishes_on_qlc(torsion)),
        ("cotorsion vanishes",
         "C_ijk = Gamma_ijk - Gamma_jik - 2 g_km eps_mij = 0",
         _vanishes_on_qlc(cotorsion)),
        ("metric compatibility",
         "Gamma_lik + Gamma_kil = 0", _vanishes_on_qlc(metric_compat_defect)),
        ("closed form solves the linear system",
         "Gamma_ijk = 2 eps_ikm g_mj + Tr(g) eps_ijk", _check_qlc_solver),
        ("round metric curvature",
         "Ricci = -(1/4) id, S = -3/4", _check_round_scalar),
        ("scalar curvature closed form",
         "S = (Tr g^2 - (Tr g)^2 / 2) / (2 det g)", _check_scalar_closed_form),
        ("2-form route matches contraction",
         "rho from wedge route = coefficient route", _check_two_form_route),
    ),
    "monopole": (
        ("projector",
         "P^2 = P, P* = P, Tr P = 1 + lp", _check_projector),
        ("step coordinates",
         "[x, z] = lp z, z* z = x (1 - x)", _check_coords),
        ("projective basis relation",
         "(x - lp) e^1 = z e^2", _check_basis_relation),
        ("Grassmann connection closed form",
         "(dP)P = ((1+lp)/2) dP + lp P theta + (i/4)(1-lp^2) Q"
         " - (lp(1-lp)/2) theta",
         lambda: connection_closed_form_holds(grassmann_connection())),
        ("connection star symmetry",
         "((dP)P)* = P dP", _check_connection_star),
        ("curvature factorizations",
         "f12 = 2 diag(x3 - lp, x3 + lp) P, f31 = 2 [[x2, i lp],"
         " [-i lp, x2]] P, f23 = 2 [[x1, lp], [lp, x1]] P, f P = f",
         lambda: curvature_factors_hold(*monopole_curvature())),
        ("third curvature factor solved",
         "f23 = 2 M P gives M = [[x1, lp], [lp, x1]]", _check_f23_factor),
    ),
}


def iter_checks(suite):
    """Yield (suite, description, anchor, fn) for one suite or ``all``."""
    names = list(SUITES) if suite == "all" else [suite]
    for name in names:
        if name not in SUITES:
            raise KeyError("unknown suite: %s" % name)
        for description, anchor, fn in SUITES[name]:
            yield name, description, anchor, fn


def run_suite(suite, write=print):
    """Run a suite, print one line per identity, return overall success.

    A check that raises is reported as a FAIL line naming the exception, and
    the remaining checks still run.
    """
    ok = True
    for name, description, anchor, fn in iter_checks(suite):
        try:
            passed = bool(fn())
            verdict = "PASS" if passed else "FAIL"
        except Exception as e:
            passed = False
            verdict = "FAIL (%s: %s)" % (type(e).__name__, e)
        ok = ok and passed
        write("%s: %s [%s]: %s" % (name, description, anchor, verdict))
    return ok
