"""Quantum Riemannian geometry over the central 1-form basis.

Metrics are constant real symmetric invertible 3x3 coefficient matrices
g = g_ij s^i (x) s^j.  For every such metric there is a unique quantum
Levi-Civita connection with constant coefficients,

    nabla s^i = -(1/2) Gamma^i_jk s^j (x) s^k,    Gamma_ijk = eps_ikm gamma_mj,

where gamma = 2g - Tr(g) id is the closed form of ``_gamma_matrix``.  The
module computes gamma both from that closed form and by solving the 9x9
linear system expressing torsion and cotorsion freeness, the defect
tensors for torsion / cotorsion / metric compatibility, the braiding sigma,
and curvature data (rho coefficients, Ricci, scalar curvature).  The
curvature 2-forms come by two independent routes, :func:`curvature_2form`
through the calculus and :func:`rho_2forms` by coefficient contraction;
``verify`` compares them.

All operations are generic over the scalar kind.  For exact data
``Metric3``, ``qlc``, ``solve_qlc_linear``, ``torsion``, ``cotorsion``,
``metric_compat_defect``, ``nabla_g``, ``raised`` and ``curvature`` work on
integer numerators over one denominator (``_numerators``), with one
``Fraction`` per output entry.  Floats take the same formulas with
denominator 1, which adds only exact scalings by powers of two, so their
bits are those of plain float arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .scalars import ParamScalar, ONE, I, LP
from .algebra import AlgElem, _acc, commutator
from .forms import (
    DiffForm, TensorForm, _coerce_coeff, d, wedge, tensor, s_basis, EPS)
from .linalg import SingularSystemError, _eliminate

__all__ = [
    "Metric3", "Connection3", "CurvatureData",
    "qlc", "solve_qlc_linear", "torsion", "cotorsion",
    "metric_compat_defect", "nabla_g", "sigma",
    "curvature", "scalar_closed_form", "scalar_perturbation",
    "curvature_2form", "rho_2forms",
]

_IDX = (0, 1, 2)
# the nonzero eps_jmn for each j, as (m, n, eps_jmn) in ascending m
_EPS_NZ = tuple(tuple((m, 3 - j - m, EPS[j][m][3 - j - m])
                      for m in _IDX if m != j) for j in _IDX)
_PAIRS = ((0, 1), (0, 2), (1, 2))  # the (m, n), m < n, of each constraint


def _t3(f):
    """The 3x3x3 array with entry [i][j][k] = f(i, j, k)."""
    return tuple(tuple(tuple(f(i, j, k) for k in _IDX) for j in _IDX)
                 for i in _IDX)


def _eps_dot(i, j, v, zero):
    """eps_ijm v[m], read from its one nonzero term m = 3 - i - j.

    ``zero`` is the zero of v's entry type, returned when i == j; the
    result is ``zero`` plus or minus v[m], so a float result is never -0.0.
    """
    if i == j:
        return zero
    m = 3 - i - j
    return zero + v[m] if EPS[i][j][m] > 0 else zero - v[m]


def _signed_sum(terms):
    """sum(e * t) over (e, t) pairs with e = +-1, adding or subtracting t.

    IEEE gives the bits of the products, signed zeros included, without
    multiplying by e.
    """
    acc = 0
    for e, t in terms:
        acc = acc + t if e > 0 else acc - t
    return acc


def _normalize_entries(rows):
    rows = [list(r) for r in rows]
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError("metric must be a 3x3 matrix")
    has_float = any(isinstance(v, float) for r in rows for v in r)
    out = [tuple(map(float if has_float else Fraction, r)) for r in rows]
    if has_float and not all(math.isfinite(v) for r in out for v in r):
        raise ValueError("metric entries must be finite")
    return tuple(out), not has_float


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _adjugate3(m):
    c = [[None] * 3 for _ in _IDX]
    for i in _IDX:
        for j in _IDX:
            r = [k for k in _IDX if k != i]
            s = [k for k in _IDX if k != j]
            minor = m[r[0]][s[0]] * m[r[1]][s[1]] \
                - m[r[0]][s[1]] * m[r[1]][s[0]]
            c[j][i] = minor if (i + j) % 2 == 0 else -minor
    return tuple(tuple(row) for row in c)


class Metric3:
    """Constant real symmetric invertible 3x3 metric coefficient matrix."""

    __slots__ = ("entries", "is_exact", "det", "inverse")

    def __init__(self, rows):
        entries, exact = _normalize_entries(rows)
        for i in _IDX:
            for j in _IDX:
                if entries[i][j] != entries[j][i]:
                    raise ValueError("metric not symmetric")
        e, _, den = _numerators(entries)
        det = _det3(e)
        if not det:
            raise ValueError("metric not invertible")
        inverse = tuple(tuple(_over(v * den, det) for v in row)
                        for row in _adjugate3(e))
        det = _over(det, den ** 3)
        if not exact and not all(
                map(math.isfinite, (det,) + sum(inverse, ()))):
            raise ValueError("metric determinant or inverse is not finite")
        self.entries = entries
        self.is_exact = exact
        self.det = det
        self.inverse = inverse

    @classmethod
    def identity(cls):
        return cls.diagonal(1, 1, 1)

    @classmethod
    def diagonal(cls, a, b, c):
        z = 0
        return cls([[a, z, z], [z, b, z], [z, z, c]])

    def trace(self):
        e = self.entries
        return e[0][0] + e[1][1] + e[2][2]

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        if not isinstance(other, Metric3):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"Metric3({[list(r) for r in self.entries]!r})"


class Connection3:
    """Connection coefficients Gamma_ijk (first index lowered by ``metric``)."""

    __slots__ = ("gamma", "metric")

    def __init__(self, gamma, metric=None):
        gamma = tuple(tuple(tuple(row) for row in plane) for plane in gamma)
        if len(gamma) != 3 or any(
                len(p) != 3 or any(len(r) != 3 for r in p) for p in gamma):
            raise ValueError("connection coefficients must be 3x3x3")
        self.gamma = gamma
        self.metric = metric

    def _metric_or(self, g):
        g = g if g is not None else self.metric
        if g is None:
            raise ValueError("no metric attached to this connection")
        return g

    def raised(self, g=None):
        """Gamma^i_jk = g^{im} Gamma_mjk."""
        u, delta = _raised_over(self, self._metric_or(g))
        return _t3(lambda i, j, k: _over(u[i][j][k], delta))

    def __eq__(self, other):
        if not isinstance(other, Connection3):
            return NotImplemented
        return self.gamma == other.gamma

    def __repr__(self):
        return f"Connection3({self.gamma!r})"


@dataclass(frozen=True)
class CurvatureData:
    """Curvature coefficients rho^i_jk, Ricci R_mn, and scalar curvature."""

    rho: tuple
    ricci: tuple
    scalar: object


def _gamma_matrix(e):
    """The closed form gamma = 2g - Tr(g) id of the quantum Levi-Civita
    connection of the metric with entries ``e``."""
    tr = e[0][0] + e[1][1] + e[2][2]
    return tuple(tuple(2 * e[m][n] - tr if m == n else 2 * e[m][n]
                       for n in _IDX) for m in _IDX)


def qlc(g):
    """The unique quantum Levi-Civita connection of ``g`` in closed form."""
    if not isinstance(g, Metric3):
        g = Metric3(g)
    e, _, den = _numerators(g.entries)
    ga = connection_from_gamma_matrix(_gamma_matrix(e)).gamma
    return Connection3(_t3(lambda i, j, k: _over(ga[i][j][k], den)), g)


@lru_cache(maxsize=None)
def _qlc_operator():
    """(K, k) with A^{-1} = K / k, K's rows as (column, entry) pairs, from one
    elimination of [A | I]; row (i, m, n) of ``solve_qlc_linear``'s 0/+-1
    matrix A is (L_i gamma)_mn - (L_i gamma)_nm, gamma_pq at column 3p + q."""
    rows = [[Fraction(EPS[i][m][p] * (q == n) - EPS[i][n][p] * (q == m))
             for p in _IDX for q in _IDX] for i in _IDX for m, n in _PAIRS]
    rows = [r + [Fraction(c == t) for c in range(9)]
            for t, r in enumerate(rows)]
    if len(_eliminate(rows, 9)) < 9:
        raise SingularSystemError("system has a nontrivial kernel")
    inv = [[x / r[c] for x in r[9:]] for c, r in enumerate(rows)]
    k = math.lcm(*(x.denominator for r in inv for x in r))
    return tuple(tuple((t, int(x * k)) for t, x in enumerate(r) if x)
                 for r in inv), k


def solve_qlc_linear(g):
    """Solve the torsion/cotorsion constraints as an explicit 9x9 system.

    The constraints reduce to L_i gamma - (L_i gamma)^t + 2 g_im L_m = 0 with
    (L_i)_mn = eps_imn; the unique solution is returned as the 3x3 matrix
    gamma (so that Gamma_ijk = eps_ikm gamma_mj).  The 0/+-1 matrix does not
    depend on g, so it is eliminated once per process (``_qlc_operator``),
    and only that elimination can raise SingularSystemError.
    """
    if not isinstance(g, Metric3):
        g = Metric3(g)
    e, _, den = _numerators(g.entries)
    zero = e[0][0] - e[0][0]
    b = [-2 * _eps_dot(m, n, e[i], zero) for i in _IDX for m, n in _PAIRS]
    op, k = _qlc_operator()
    return tuple(tuple(_over(sum(c * b[t] for t, c in row), k * den)
                       for row in op[3 * m:3 * m + 3]) for m in _IDX)


def connection_from_gamma_matrix(gamma_mat, g=None):
    """Connection with Gamma_ijk = eps_ikm gamma_mj."""
    cols = tuple(zip(*gamma_mat))
    zero = gamma_mat[0][0] - gamma_mat[0][0]
    return Connection3(_t3(lambda i, j, k: _eps_dot(i, k, cols[j], zero)),
                       metric=g)


def torsion(conn, g=None):
    """Defect T_ijk = Gamma_ijk - Gamma_ikj - 2 g_im eps_mjk."""
    e, ga, den = _numerators(conn._metric_or(g).entries, conn.gamma)
    zero = e[0][0] - e[0][0]
    return _t3(lambda i, j, k: _over(
        ga[i][j][k] - ga[i][k][j] - 2 * _eps_dot(j, k, e[i], zero), den))


def cotorsion(conn, g=None):
    """Defect C_ijk = Gamma_ijk - Gamma_jik - 2 g_km eps_mij."""
    e, ga, den = _numerators(conn._metric_or(g).entries, conn.gamma)
    zero = e[0][0] - e[0][0]
    return _t3(lambda i, j, k: _over(
        ga[i][j][k] - ga[j][i][k] - 2 * _eps_dot(i, j, e[k], zero), den))


def metric_compat_defect(conn):
    """Defect D_lik = Gamma_lik + Gamma_kil; zero iff nabla g = 0."""
    _, ga, den = _numerators((), conn.gamma)
    return _t3(lambda l, i, k: _over(ga[l][i][k] + ga[k][i][l], den))


def nabla_g(conn):
    """Coefficients of nabla g in s^m (x) s^i (x) s^n.

    Returns the 3x3x3 array T[m][i][n] = -(1/2)(Gamma_nmi + Gamma_imn).
    """
    _, ga, den = _numerators((), conn.gamma)
    return _t3(lambda m, i, n: _over(-(ga[n][m][i] + ga[i][m][n]), 2 * den))


def _numerators(e, ga=()):
    """(E, G, D): the 3x3 rows ``e`` = E/D and the 3x3x3 ``ga`` = G/D as int
    numerators over one lcm denominator D if every entry is an int or a
    Fraction; else ``e`` and ``ga`` themselves, in their own arithmetic."""
    flat = sum(e + sum(ga, ()), ())
    if not {int, Fraction}.issuperset(map(type, flat)):
        return e, ga, 1
    ratios = [x.as_integer_ratio() for x in flat]
    den = math.lcm(*{q for _, q in ratios})
    num = [p * (den // q) for p, q in ratios]
    rows = [num[t:t + 3] for t in range(0, len(num), 3)]
    n = len(e)
    return rows[:n], [rows[t:t + 3] for t in range(n, len(rows), 3)], den


def _over(n, d):
    """n / d: one reduced Fraction for an int n, else n's own division."""
    return Fraction(n, d) if type(n) is int else n if d == 1 else n / d


def _raised_over(conn, g):
    """(U, delta) with Gamma^i_jk = U[i][j][k] / delta.  If the metric and
    every coefficient are exact, g = E/D and Gamma = Gamma_E/D by
    ``_numerators``, and U = adj(E) Gamma_E and delta = det E are ints;
    otherwise U = g^{-1} Gamma in the entries' own arithmetic, delta = 1."""
    e, ga, _ = _numerators(g.entries, conn.gamma)
    minv, delta = ((g.inverse, 1) if e is g.entries
                   else (_adjugate3(e), _det3(e)))
    return _t3(lambda i, j, k: sum(minv[i][m] * ga[m][j][k]
                                   for m in _IDX)), delta


def curvature(conn, g=None):
    """Curvature data from the coefficient contraction route.

    rho^i_jk = (1/4) Gamma^i_jk - (1/8) eps_jmn Gamma^i_ml Gamma^l_nk for a
    constant connection, R_mn = rho^i_jn eps_jim, S = R_mn g^{mn}.  With
    Gamma = U / delta (``_raised_over``), rho = (2 delta U - C) / (8 delta^2)
    for C^i_jk = eps_jmn U^i_ml U^l_nk; for floats (delta = 1) that has the
    bits of U/4 - C/8.
    """
    g = conn._metric_or(g)
    u, delta = _raised_over(conn, g)
    den = 8 * delta * delta
    rho = _t3(lambda i, j, k: _over(
        2 * delta * u[i][j][k]
        - _signed_sum((e, u[i][m][l] * u[l][n][k])
                      for m, n, e in _EPS_NZ[j] for l in _IDX), den))
    # eps_jim = -eps_mij over the nonzero (i, j) of _EPS_NZ[m]
    ricci = tuple(
        tuple(_signed_sum((-e, rho[i][j][n]) for i, j, e in _EPS_NZ[m])
              for n in _IDX)
        for m in _IDX)
    ginv = g.inverse
    scalar = sum(ricci[m][n] * ginv[m][n] for m in _IDX for n in _IDX)
    return CurvatureData(rho=rho, ricci=ricci, scalar=scalar)


def scalar_closed_form(g):
    """Scalar curvature S = (Tr(g^2) - Tr(g)^2/2) / (2 det g)."""
    if not isinstance(g, Metric3):
        g = Metric3(g)
    e = g.entries
    tr = g.trace()
    tr2 = sum(e[i][j] * e[j][i] for i in _IDX for j in _IDX)
    return (tr2 - tr * tr / 2) / (2 * g.det)


def scalar_perturbation(eps_matrix):
    """Quadratic model of S(id + E) for a small symmetric perturbation E:

    -3/4 + Tr(E)/4 - Tr(E)^2/12 + (E12^2 + E13^2 + E23^2)/4
    + ((E11-E22)^2 + (E11-E33)^2 + (E22-E33)^2)/24.
    """
    e = eps_matrix.entries if isinstance(eps_matrix, Metric3) else eps_matrix
    tr = e[0][0] + e[1][1] + e[2][2]
    off = e[0][1] ** 2 + e[0][2] ** 2 + e[1][2] ** 2
    diag = ((e[0][0] - e[1][1]) ** 2 + (e[0][0] - e[2][2]) ** 2
            + (e[1][1] - e[2][2]) ** 2)
    return (Fraction(-3, 4) + tr / 4 - tr * tr / 12
            + off / 4 + diag / 24)


# --------------------------------------------------------------------------
# braiding and the 2-form curvature route (exact algebra-valued pathway)

def sigma(gamma_up, i, j):
    """Braiding sigma(s^i (x) s^j) for connection coefficients Gamma^i_jk.

    ``gamma_up`` is a 3x3x3 array (entries in the algebra, or exact scalars)
    of the coefficients in nabla s^i = -(1/2) Gamma^i_jk s^j (x) s^k; ``i``
    and ``j`` are 1-based.  For constant coefficients the commutator terms
    vanish and sigma is the flip map.
    """
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise ValueError("tensor factor indices must be 1, 2 or 3")
    out = tensor(s_basis(j), s_basis(i))
    scale = ONE / (2 * (ONE - LP * LP))
    inner_scale = ONE / (2 * I * LP)
    xj = AlgElem.generator(j)
    for l in (1, 2, 3):
        for k in (1, 2, 3):
            gam = _coerce_coeff(gamma_up[i - 1][l - 1][k - 1])
            if not gam:
                continue
            c1 = AlgElem.zero()
            c2 = AlgElem.zero()
            for n in (1, 2, 3):
                xn = AlgElem.generator(n)
                c1 = c1 + xj * xn * commutator(gam, xn)
                if n != j:
                    # eps_jmn is nonzero only at m = 6 - j - n
                    m = 6 - j - n
                    t = commutator(gam, AlgElem.generator(m)) * xn
                    c2 = c2 + (t if EPS[j - 1][m - 1][n - 1] > 0 else -t)
            coeff = scale * (inner_scale * c1 + c2)
            if coeff:
                out = out + tensor(coeff * s_basis(l), s_basis(k))
    return out


def _rho_contraction_tensor(rho, i):
    """rho^i_jk eps_jmn s^m ^ s^n (x) s^k as a TensorForm; by antisymmetry
    the sum over m, n is twice the one over m < n."""
    return TensorForm(2, {((m + 1, n + 1), k + 1): 2 * e * rho[i - 1][j][k]
                          for j in _IDX for k in _IDX
                          for m, n, e in _EPS_NZ[j] if m < n})


def rho_2forms(conn, g=None):
    """Curvature 2-forms R(s^i) by coefficient contraction of the rho of
    :func:`curvature`; returns (R(s^1), R(s^2), R(s^3))."""
    rho = curvature(conn, g).rho
    return tuple(_rho_contraction_tensor(rho, i) for i in (1, 2, 3))


def curvature_2form(conn, g=None):
    """Curvature 2-forms R(s^i) computed through the calculus operations.

    Evaluates (d (x) id - id ^ nabla) nabla on each basis 1-form: with
    nabla s^i = l^i_k (x) s^k for the 1-forms l^i_k = -(1/2) Gamma^i_jk s^j,
    R(s^i) = d(l^i_k) (x) s^k - l^i_k ^ l^k_n (x) s^n.  Returns the tuple
    (R(s^1), R(s^2), R(s^3)) of left-degree-2 tensor forms.
    """
    g = conn._metric_or(g)
    if not g.is_exact:
        raise TypeError("curvature_2form requires an exact metric")
    up = conn.raised(g)
    ell = [[DiffForm._of(1, {(j + 1,): AlgElem.scalar(ParamScalar.of(-c / 2))
                             for j in _IDX if (c := up[i][j][k])})
            for k in _IDX] for i in _IDX]
    results = []
    for i in _IDX:
        acc = {}
        for k in _IDX:
            # (d (x) id)
            for lkey, c in d(ell[i][k]).components.items():
                _acc(acc, (lkey, k + 1), c)
            # -(id ^ nabla)
            for n in _IDX:
                for lkey, c in wedge(ell[i][k], ell[k][n]).components.items():
                    _acc(acc, (lkey, n + 1), -c)
        results.append(TensorForm._of(2, acc))
    return tuple(results)
