"""Charge-1 monopole bundle on the fuzzy sphere.

The bundle is the image of the 2x2 idempotent

    P = (1/2) [[1 + lp - x3, x1 + i x2], [x1 - i x2, 1 + lp + x3]],

with P^2 = P, P* = P and tr(P) = 1 + lp.  Step coordinates
x = (x3 + 1 + lp)/2 and z = (x1 + i x2)/2 obey [x, z] = lp z and
z* z = x (1 - x).  The Grassmann connection (dP)P has the closed form

    (dP)P = ((1+lp)/2) dP + lp P theta + (i(1-lp^2)/4) Q
            - (lp(1-lp)/2) theta Id,
    Q = [[-s3, s1 + i s2], [s1 - i s2, s3]],

and the curvature dP ^ (dP)P = (i(1-lp)/4)(f12 s1^s2 + f31 s3^s1
+ f23 s2^s3) with each coefficient matrix factoring through P on the right.
The functions here compute; ``verify`` checks these identities.
``AlgMatrix`` and ``FormMatrix`` take their linear structure (sums,
negation, scalar multiples, star, equality, rendering) from ``Mat2``.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .scalars import ParamScalar, ONE, I, LP
from .algebra import AlgElem, X1, X2, X3
from .forms import DiffForm, _coerce_coeff, d, s_basis, theta
from .linalg import solve_overdetermined

__all__ = [
    "Mat2", "AlgMatrix", "FormMatrix", "coords", "projector", "projector_dP",
    "grassmann_connection", "grassmann_closed_form", "monopole_curvature",
    "f23_factor",
]

_R2 = (0, 1)


def _product(left, right, mul):
    """Rows of the 2x2 product of the row tuples ``left`` and ``right``,
    with ``mul`` as the product of two entries."""
    return [[mul(left[a][0], right[0][c]) + mul(left[a][1], right[1][c])
             for c in _R2] for a in _R2]


class Mat2:
    """Linear structure shared by ``AlgMatrix`` and ``FormMatrix``: a 2x2
    tuple of rows ``m`` with entrywise sums, scalar multiples and star."""

    __slots__ = ("m",)

    def _check_shape(self):
        if len(self.m) != 2 or any(len(r) != 2 for r in self.m):
            raise ValueError("expected a 2x2 matrix")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)([[self.m[a][c] + other.m[a][c] for c in _R2]
                           for a in _R2])

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return type(self)([[self.m[a][c] - other.m[a][c] for c in _R2]
                           for a in _R2])

    def __neg__(self):
        return type(self)([[-v for v in row] for row in self.m])

    def __rmul__(self, k):
        return type(self)([[k * v for v in row] for row in self.m])

    def star(self):
        """Conjugate transpose with entrywise star."""
        return type(self)([[self.m[c][a].star() for c in _R2] for a in _R2])

    def is_zero(self):
        return all(not v for row in self.m for v in row)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.m == other.m

    def __str__(self):
        return "[[{}, {}],\n [{}, {}]]".format(
            self.m[0][0], self.m[0][1], self.m[1][0], self.m[1][1])

    __repr__ = __str__


class AlgMatrix(Mat2):
    """2x2 matrix over the fuzzy sphere algebra."""

    __slots__ = ()

    def __init__(self, rows):
        self.m = tuple(tuple(_coerce_coeff(v) for v in row) for row in rows)
        self._check_shape()

    @classmethod
    def identity(cls):
        return cls([[AlgElem.one(), AlgElem.zero()],
                    [AlgElem.zero(), AlgElem.one()]])

    @classmethod
    def zero(cls):
        z = AlgElem.zero()
        return cls([[z, z], [z, z]])

    def __matmul__(self, other):
        if not isinstance(other, AlgMatrix):
            return NotImplemented
        return AlgMatrix(_product(self.m, other.m, operator.mul))

    def trace(self):
        return self.m[0][0] + self.m[1][1]

    def times_form(self, w):
        """Entrywise product with a single differential form on the right."""
        return FormMatrix([[self.m[a][c] * w for c in _R2] for a in _R2])


class FormMatrix(Mat2):
    """2x2 matrix of homogeneous differential forms of equal degree."""

    __slots__ = ("degree",)

    def __init__(self, rows):
        self.m = tuple(tuple(row) for row in rows)
        self._check_shape()
        degs = {v.degree for row in self.m for v in row}
        if len(degs) != 1:
            raise ValueError("mixed form degrees in matrix")
        self.degree = degs.pop()

    def __matmul__(self, other):
        """Right action of an algebra-valued matrix."""
        if not isinstance(other, AlgMatrix):
            return NotImplemented
        return FormMatrix(_product(self.m, other.m, operator.mul))

    def wedge(self, other):
        if not isinstance(other, FormMatrix):
            raise TypeError("wedge expects a FormMatrix")
        return FormMatrix(_product(self.m, other.m, DiffForm.wedge))

    def coefficient_matrix(self, *key):
        """Algebra matrix of components on a basis wedge monomial."""
        return AlgMatrix([[self.m[a][c].component(*key) for c in _R2]
                          for a in _R2])


# --------------------------------------------------------------------------

_HALF = ParamScalar.of(Fraction(1, 2))


def coords():
    """Step coordinates (x, z) with [x, z] = lp z and z* z = x(1-x)."""
    x = _HALF * (X3 + AlgElem.scalar(ONE + LP))
    z = _HALF * (X1 + I * X2)
    return x, z


def projector():
    """The monopole projector P (P^2 = P, P* = P, tr P = 1 + lp)."""
    one_lp = AlgElem.scalar(ONE + LP)
    return _HALF * AlgMatrix([
        [one_lp - X3, X1 + I * X2],
        [X1 - I * X2, one_lp + X3],
    ])


def projector_dP():
    """Entrywise exterior derivative of the projector."""
    p = projector()
    return FormMatrix([[d(p.m[a][c]) for c in _R2] for a in _R2])


def grassmann_connection():
    """The connection 1-form matrix (dP)P."""
    return projector_dP() @ projector()


def grassmann_closed_form():
    """The closed form of (dP)P:
    ((1+lp)/2) dP + lp P theta + (i(1-lp^2)/4) Q - (lp(1-lp)/2) theta Id."""
    p = projector()
    th = theta()
    s1, s2, s3 = s_basis(1), s_basis(2), s_basis(3)
    q = FormMatrix([[-s3, s1 + I * s2], [s1 - I * s2, s3]])
    return ((ONE + LP) * _HALF) * projector_dP() \
        + LP * p.times_form(th) \
        + (I * (ONE - LP * LP) / 4) * q \
        - (LP * (ONE - LP) * _HALF) * AlgMatrix.identity().times_form(th)


_CURV_SCALE = I * (ONE - LP) / 4


def monopole_curvature():
    """Curvature coefficient matrices (f12, f31, f23) of the bundle, read
    off dP ^ (dP)P = (i(1-lp)/4)(f12 s1^s2 + f31 s3^s1 + f23 s2^s3)."""
    dp = projector_dP()
    curv = dp.wedge(dp @ projector())
    inv = _CURV_SCALE.inverse()
    return (inv * curv.coefficient_matrix(1, 2),
            -(inv * curv.coefficient_matrix(1, 3)),  # s3^s1 = -s1^s3
            inv * curv.coefficient_matrix(2, 3))


def f23_factor():
    """Factor f23 = 2 M P and return M.

    The factor in f = 2 M P is not unique on its own: M and M + N give the
    same product whenever N P = 0, and any constant left multiple of 1 - P
    is such an N with entries affine in the generators.  The f12 and f31
    factors both take the form (linear in x1, x2, x3) * Id plus a constant
    matrix, and within that family the factor is unique (a constant multiple
    of 1 - P has non-constant off-diagonal entries).  This solves for the
    unique such M by matching normal-ordered coefficients.  The solve
    raises SingularSystemError unless every normal-ordered coefficient of
    f23 is matched, so 2 M P = f23 holds exactly for the M returned.
    """
    p = projector()
    _, _, f23 = monopole_curvature()
    gens = (X1, X2, X3)
    # unknowns u = [a1, a2, a3, h00, h01, h10, h11] for
    # M = (a1 x1 + a2 x2 + a3 x3) Id + [[h00, h01], [h10, h11]]
    # h_{a b} multiplies P_{b c}; the two h unknowns touching entry (a, c)
    # are h_{a 0} and h_{a 1}
    cols = {}
    for a in _R2:
        for c in _R2:
            col = [2 * (gens[w] * p.m[a][c]) for w in range(3)]
            col.extend(2 * p.m[b][c] for b in _R2)
            cols[(a, c)] = col
    rows, rhs = [], []
    for a in _R2:
        for c in _R2:
            prods = cols[(a, c)]
            keys = sorted({k for e in prods for k in e.terms}
                          | set(f23.m[a][c].terms))
            for key in keys:
                row = [ParamScalar.zero()] * 7
                for w in range(3):
                    row[w] = prods[w].coefficient(key)
                for b in _R2:
                    row[3 + 2 * a + b] = prods[3 + b].coefficient(key)
                rows.append(row)
                rhs.append(f23.m[a][c].coefficient(key))
    sol = solve_overdetermined(rows, rhs)
    scal = sum((sol[w] * gens[w] for w in range(3)), AlgElem.zero())
    return AlgMatrix([
        [scal + AlgElem.scalar(sol[3]), AlgElem.scalar(sol[4])],
        [AlgElem.scalar(sol[5]), scal + AlgElem.scalar(sol[6])],
    ])
