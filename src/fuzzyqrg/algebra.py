"""Normal-ordered coordinate algebra of the fuzzy sphere.

Generators x1, x2, x3 obey

    x_i x_j - x_j x_i = 2*i*lp * eps_ijk x_k,
    x1^2 + x2^2 + x3^2 = 1 - lp^2,

with x_i self-adjoint and ``lp`` a real formal parameter.  Elements are
stored as finite sums of normal-ordered monomials x1^a x2^b x3^c with exact
``ParamScalar`` coefficients; the sphere relation is applied eagerly so that
c <= 1 in every stored monomial.
"""

from __future__ import annotations

from functools import lru_cache

from .scalars import ParamScalar, ZERO, ONE, I, LP

__all__ = [
    "AlgElem", "commutator", "DegreeLimitError", "DEGREE_LIMIT",
    "X1", "X2", "X3", "ONE_A",
]

# products whose combined degree exceeds this raise DegreeLimitError
DEGREE_LIMIT = 24

_TWO_I_LP = 2 * I * LP
_SPHERE_CONST = ONE - LP * LP  # x1^2 + x2^2 + x3^2
_UNIT = (0, 0, 0)  # the key of the monomial 1


class DegreeLimitError(ValueError):
    """Raised when an operation would exceed the configured degree limit."""


def _acc(d, key, coeff):
    cur = d.get(key)
    if cur is None:
        if coeff:
            d[key] = coeff
        return
    s = cur + coeff
    if s:
        d[key] = s
    else:
        del d[key]


@lru_cache(maxsize=None)
def _mono_times_gen(a, b, c, g):
    """Normal-ordered expansion of (x1^a x2^b x3^c) * x_g.

    Returns a tuple of ((a', b', c'), ParamScalar) pairs with c' <= 1.
    """
    if g == 3:
        if c == 0:
            return (((a, b, 1), ONE),)
        # x3^2 -> (1 - lp^2) - x1^2 - x2^2, then restore normal order
        out = {(a, b, 0): _SPHERE_CONST, (a, b + 2, 0): -ONE}
        for key, coeff in _items_times_gen(_mono_times_gen(a, b, 0, 1), 1):
            _acc(out, key, -coeff)
        return tuple(out.items())
    if g == 2:
        if c == 0:
            return (((a, b + 1, 0), ONE),)
        # x3 x2 = x2 x3 - 2 i lp x1
        out = {(a, b + 1, 1): ONE}
        for key, coeff in _mono_times_gen(a, b, 0, 1):
            _acc(out, key, -_TWO_I_LP * coeff)
        return tuple(out.items())
    # g == 1
    if c == 1:
        # x3 x1 = x1 x3 + 2 i lp x2
        out = {(a, b + 1, 0): _TWO_I_LP}
        for key, coeff in _items_times_gen(_mono_times_gen(a, b, 0, 1), 3):
            _acc(out, key, coeff)
        return tuple(out.items())
    if b == 0:
        return (((a + 1, 0, 0), ONE),)
    # x2 x1 = x1 x2 - 2 i lp x3
    out = {(a, b - 1, 1): -_TWO_I_LP}
    for key, coeff in _items_times_gen(_mono_times_gen(a, b - 1, 0, 1), 2):
        _acc(out, key, coeff)
    return tuple(out.items())


def _items_times_gen(items, g):
    out = {}
    for (a, b, c), coeff in items:
        for key, k in _mono_times_gen(a, b, c, g):
            _acc(out, key, coeff * k)
    return tuple(out.items())


def _terms_times_mono(terms, mono):
    """Multiply a terms dict by the normal-ordered monomial ``mono``."""
    items = tuple(terms.items())
    a, b, c = mono
    for g, count in ((1, a), (2, b), (3, c)):
        for _ in range(count):
            items = _items_times_gen(items, g)
    return items


def _alg(terms):
    """The AlgElem on ``terms`` as given, which must already be canonical."""
    out = object.__new__(AlgElem)
    out.terms = terms
    return out


def _scaled(terms, k):
    """terms times the ParamScalar k (central, and without zero divisors)."""
    return _alg({key: c * k for key, c in terms.items()} if k else {})


class AlgElem:
    """Element of the fuzzy sphere algebra in normal-ordered form.

    ``terms`` maps normal-ordered keys (a, b, c), c <= 1, to nonzero
    ``ParamScalar`` coefficients.  Only the constructor validates (ValueError
    for a key, ``ParamScalar.of``'s TypeError for a coefficient); results of
    the operations are built by ``_alg`` from canonical terms.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for key, coeff in (terms or {}).items():
            a, b, c = key
            if min(a, b, c) < 0 or c > 1:
                raise ValueError(f"not a normal-ordered monomial key: {key}")
            if coeff := ParamScalar.of(coeff):
                self.terms[a, b, c] = coeff

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls):
        return _alg({})

    @classmethod
    def one(cls):
        return _alg({_UNIT: ONE})

    @classmethod
    def scalar(cls, c):
        k = ParamScalar.of(c)
        return _alg({_UNIT: k} if k else {})

    @classmethod
    def generator(cls, i):
        if i not in (1, 2, 3):
            raise ValueError(f"generator index must be 1, 2 or 3, got {i}")
        return _alg({tuple(1 if j == i else 0 for j in (1, 2, 3)): ONE})

    @classmethod
    def monomial(cls, key, coeff=1):
        return cls({tuple(key): coeff})

    # -- structure ----------------------------------------------------------
    def degree(self):
        return max(map(sum, self.terms), default=0)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def coefficient(self, key):
        return self.terms.get(tuple(key), ZERO)

    # -- linear operations ----------------------------------------------
    def __add__(self, other):
        o = _coerce_alg(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for key, c in o.terms.items():
            _acc(out, key, c)
        return _alg(out)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce_alg(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for key, c in o.terms.items():
            _acc(out, key, -c)
        return _alg(out)

    def __rsub__(self, other):
        o = _coerce_alg(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _alg({k: -v for k, v in self.terms.items()})

    # -- multiplication -----------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, AlgElem):
            # a product by a constant (degree 0) needs no normal ordering
            a, b = self.terms, other.terms
            if len(a) == 1 and _UNIT in a and other.degree() <= DEGREE_LIMIT:
                return _scaled(b, a[_UNIT])
            if len(b) == 1 and _UNIT in b and self.degree() <= DEGREE_LIMIT:
                return _scaled(a, b[_UNIT])
            if self.degree() + other.degree() > DEGREE_LIMIT:
                raise DegreeLimitError(
                    f"product degree {self.degree()} + {other.degree()} "
                    f"exceeds limit {DEGREE_LIMIT}")
            out = {}
            for mono, q in b.items():
                for key, c in _terms_times_mono(a, mono):
                    _acc(out, key, c * q)
            return _alg(out)
        try:
            k = ParamScalar.of(other)
        except TypeError:
            return NotImplemented
        return _scaled(self.terms, k)

    # scalars commute with everything; AlgElem * AlgElem is handled above
    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = AlgElem.one()
        for _ in range(n):
            out = out * self
        return out

    # -- star structure ------------------------------------------------------
    def star(self):
        """Antilinear anti-homomorphism fixing the generators."""
        out = {}
        for (a, b, c), q in self.terms.items():
            items = (((0, 0, 0), q.star()),)
            for g, count in ((3, c), (2, b), (1, a)):
                for _ in range(count):
                    items = _items_times_gen(items, g)
            for key, coeff in items:
                _acc(out, key, coeff)
        return _alg(out)

    # -- comparison / rendering ----------------------------------------------
    def __eq__(self, other):
        o = _coerce_alg(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):
            a, b, c = key
            factors = []
            for name, p in (("x1", a), ("x2", b), ("x3", c)):
                if p == 1:
                    factors.append(name)
                elif p > 1:
                    factors.append(f"{name}^{p}")
            mono = " ".join(factors) if factors else "1"
            parts.append(f"({self.terms[key]}) * {mono}")
        return " + ".join(parts)

    __repr__ = __str__


def _coerce_alg(x):
    if isinstance(x, AlgElem):
        return x
    try:
        return AlgElem.scalar(x)
    except TypeError:
        return None


def commutator(u, v):
    """u v - v u."""
    return u * v - v * u


X1 = AlgElem.generator(1)
X2 = AlgElem.generator(2)
X3 = AlgElem.generator(3)
ONE_A = AlgElem.one()
