"""Exact scalars: rational functions of ``lp`` over the Gaussian rationals.

The coefficient field used by the symbolic layers is Q(i)(lp): rational
functions in a single formal parameter ``lp`` with Gaussian-rational
coefficients.  ``ParamScalar`` is its one exact type; a coefficient is a
constant ``ParamScalar``.

A ``ParamScalar`` stores its numerator and its denominator each as a
polynomial over the Gaussian integers -- a tuple of ``(re, im)`` int pairs
in ascending powers of ``lp`` -- divided by one positive int, its content
denominator.  The form is canonical, so equality is structural, ``hash``
agrees with ``==``, and ``a - b`` is the zero object iff ``a == b``:

- tuples carry no trailing ``(0, 0)``; zero is the empty numerator;
- a content denominator is coprime to the gcd of the ints in its tuple;
- numerator and denominator have no common factor of positive degree, and
  the denominator is monic: its last pair is ``(dd, 0)``, ``dd`` its content
  denominator; a polynomial has the denominator ``((1, 0),)`` over 1.

Polynomials, almost every coefficient the algebra meets, are added,
multiplied, negated, conjugated and compared on ints alone, and a constant
is inverted the same way.  Only a non-trivial denominator goes through the
polynomial gcd.  ``num`` and ``den`` give the canonical form as tuples of
constants, which is also what ``ParamScalar(num, den)`` takes.

Conjugation (``star``) fixes ``lp`` and conjugates coefficients, i.e. ``lp``
is treated as a real parameter.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = ["ParamScalar", "ZERO", "ONE", "I", "LP"]


# --------------------------------------------------------------------------
# polynomials over the Gaussian integers: tuples of (re, im) int pairs in
# ascending powers of lp, trimmed (the zero polynomial is the empty tuple)

_P1 = ((1, 0),)  # the polynomial 1, shared by every polynomial ParamScalar


def _trim(cs):
    n = len(cs)
    while n and cs[n - 1] == (0, 0):
        n -= 1
    return tuple(cs[:n])


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, (br, bi) in enumerate(b):
        ar, ai = out[k]
        out[k] = (ar + br, ai + bi)
    return _trim(out)


def _scale(a, k):
    """``a`` times the int ``k``."""
    if k == 1:
        return a
    return tuple((re * k, im * k) for re, im in a)


def _mul(a, b):
    """Product of two nonzero polynomials.  The Gaussian integers have no
    zero divisors, so the leading pair is nonzero and nothing is trimmed."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        (ar, ai), = a
        if not ai:
            return tuple((ar * br, ar * bi) for br, bi in b)
        return tuple((ar * br - ai * bi, ar * bi + ai * br) for br, bi in b)
    n = len(a) + len(b) - 1
    re, im = [0] * n, [0] * n
    for i, (ar, ai) in enumerate(a):
        for j, (br, bi) in enumerate(b):
            re[i + j] += ar * br - ai * bi
            im[i + j] += ar * bi + ai * br
    return tuple(zip(re, im))


def _content(a, m):
    """Divide ``a`` and the positive int ``m`` by their common int factor."""
    if m == 1:
        return a, m
    g = m
    for re, im in a:
        g = gcd(g, re, im)
        if g == 1:
            return a, m
    return tuple((re // g, im // g) for re, im in a), m // g


def _pdivmod(a, b):
    """Pseudo-division by ``b``, whose leading pair is a positive int:
    (q, r, m) with a positive int ``m``, ``m a = q b + r``, deg r < deg b."""
    lead, nb = b[-1][0], len(b)
    r = list(a)
    q = [(0, 0)] * (len(a) - nb + 1)
    m = 1
    for k in range(len(a) - nb, -1, -1):
        cr, ci = r[k + nb - 1]
        if cr % lead or ci % lead:
            m *= lead
            q = [(x * lead, y * lead) for x, y in q]
            r = [(x * lead, y * lead) for x, y in r]
        else:
            cr, ci = cr // lead, ci // lead
        q[k] = (cr, ci)
        for j, (br, bi) in enumerate(b):
            xr, xi = r[k + j]
            r[k + j] = (xr - cr * br + ci * bi, xi - cr * bi - ci * br)
    return tuple(q), _trim(r[:nb - 1]), m


def _primitive(a):
    """The associate of a nonzero ``a`` with a positive int leading pair and
    no common int factor."""
    lr, li = a[-1]
    if li or lr < 0:
        a = _mul(a, ((lr, -li),))
    g = gcd(*(v for c in a for v in c))
    return tuple((re // g, im // g) for re, im in a) if g > 1 else a


def _pgcd(a, b):
    """The primitive associate of the gcd of ``a`` and ``b`` over Q(i)."""
    a, b = _primitive(a), _primitive(b)
    while b:
        r = _pdivmod(a, b)[1]
        a, b = b, r and _primitive(r)
    return a


def _peval(a, m, v):
    acc = 0j
    for re, im in reversed(a):
        acc = acc * v + complex(re / m, im / m)
    return acc


def _from_consts(cs):
    """A sequence of exact constants as a polynomial and its content
    denominator."""
    cs = [_coerce(c) for c in cs]
    if not all(c is not None and len(c._d) == 1 and len(c._n) <= 1
               for c in cs):
        raise TypeError("polynomial coefficients must be exact constants")
    m = lcm(1, *(c._nd for c in cs))
    return _trim([_scale(c._n, m // c._nd)[0] if c._n else (0, 0)
                  for c in cs]), m


def _consts(a, m):
    """The polynomial ``a`` over ``m`` as a tuple of constants."""
    return tuple(_make(*_content((c,), m)) if c != (0, 0) else ZERO
                 for c in a)


def _cstr(re, im, m):
    """The coefficient (re + im i) / m as text."""
    if not im:
        return str(Fraction(re, m))
    i = "i" if abs(im) == m else f"{Fraction(abs(im), m)}*i"
    if not re:
        return i if im > 0 else f"-{i}"
    return f"{Fraction(re, m)}{'+' if im > 0 else '-'}{i}"


def _pstr(a, m):
    if not a:
        return "0"
    parts = []
    for k, (re, im) in enumerate(a):
        if not (re or im):
            continue
        cs = _cstr(re, im, m)
        if k:
            mono = "lp" if k == 1 else f"lp^{k}"
            if cs == "1":
                cs = mono
            elif cs == "-1":
                cs = f"-{mono}"
            elif ("+" in cs[1:]) or ("-" in cs[1:]):
                cs = f"({cs})*{mono}"
            else:
                cs = f"{cs}*{mono}"
        parts.append(cs)
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


# --------------------------------------------------------------------------


def _make(n, nd, d=_P1, dd=1):
    s = object.__new__(ParamScalar)
    s._n, s._nd, s._d, s._dd = n, nd, d, dd
    return s


def _ratio(n, d, coprime=False):
    """The canonical ParamScalar n/d of two polynomials, ``d`` nonzero;
    ``coprime`` skips the gcd when n and d are known to have none."""
    if not n:
        return ZERO
    if not coprime and len(d) > 1 and len(n) > 1:
        g = _pgcd(d, n)
        if len(g) > 1:
            # n/g = qn/mn and d/g = qd/md
            n, _, mn = _pdivmod(n, g)
            d, _, md = _pdivmod(d, g)
            n, d = _scale(n, md), _scale(d, mn)
    lr, li = d[-1]
    if li or lr < 0:
        # times the conjugate of the leading pair, which becomes an int > 0
        c = ((lr, -li),)
        n, d, lr = _mul(n, c), _mul(d, c), lr * lr + li * li
    if len(d) == 1:
        return _make(*_content(n, lr))
    return _make(*_content(n, lr), *_content(d, lr))


def _plus(x, y):
    a, b = x._n, y._n
    if not b:
        return x
    if not a:
        return y
    na, nb = x._nd, y._nd
    d, dd = x._d, x._dd
    if d is y._d or (d == y._d and dd == y._dd):
        # one denominator: add the numerators
        if na == nb:
            n = _add(a, b)
        else:
            n, na = _add(_scale(a, nb), _scale(b, na)), na * nb
        if d is _P1:
            return _make(*_content(n, na)) if n else ZERO
        return _ratio(_scale(n, dd), _scale(d, na))
    # a/na over d/dd plus b/nb over y._d/y._dd
    return _ratio(_add(_scale(_mul(a, y._d), dd * nb),
                       _scale(_mul(b, d), y._dd * na)),
                  _scale(_mul(d, y._d), na * nb))


def _conj(a):
    return tuple((re, -im) for re, im in a)


class ParamScalar:
    """Element of Q(i)(lp): a reduced ratio of polynomials in ``lp``."""

    __slots__ = ("_n", "_nd", "_d", "_dd")

    def __init__(self, num, den=(1,)):
        n, nd = _from_consts(num)
        d, dd = _from_consts(den)
        if not d:
            raise ZeroDivisionError("zero denominator")
        s = _ratio(_scale(n, dd), _scale(d, nd))
        self._n, self._nd, self._d, self._dd = s._n, s._nd, s._d, s._dd

    # -- constructors ---------------------------------------------------
    @classmethod
    def of(cls, x):
        """Coerce an int, Fraction, or ParamScalar."""
        s = _coerce(x)
        if s is None:
            raise TypeError(f"cannot coerce {type(x).__name__} to ParamScalar")
        return s

    @classmethod
    def zero(cls):
        return ZERO

    @classmethod
    def one(cls):
        return ONE

    # -- canonical form as tuples of constants -------------------------------
    @property
    def num(self):
        return _consts(self._n, self._nd)

    @property
    def den(self):
        return _consts(self._d, self._dd)

    # -- predicates -------------------------------------------------------
    def is_zero(self):
        return not self._n

    def __bool__(self):
        return bool(self._n)

    # -- field operations -------------------------------------------------
    def __add__(self, other):
        o = other if type(other) is ParamScalar else _coerce(other)
        if o is None:
            return NotImplemented
        return _plus(self, o)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is ParamScalar else _coerce(other)
        if o is None:
            return NotImplemented
        return _plus(self, -o)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _plus(o, -self)

    def __neg__(self):
        if not self._n:
            return self
        return _make(tuple((-re, -im) for re, im in self._n), self._nd,
                     self._d, self._dd)

    def __mul__(self, other):
        o = other if type(other) is ParamScalar else _coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._n, o._n
        if not a or not b:
            return ZERO
        n, nd = _mul(a, b), self._nd * o._nd
        if self._d is _P1 and o._d is _P1:
            return _make(*_content(n, nd))
        return _ratio(_scale(n, self._dd * o._dd),
                      _scale(_mul(self._d, o._d), nd))

    __rmul__ = __mul__

    def inverse(self):
        n = self._n
        if not n:
            raise ZeroDivisionError("inverse of zero scalar")
        if self._d is _P1 and len(n) == 1:
            # nd / (re + i im) = nd (re - i im) / (re^2 + im^2)
            (re, im), = n
            nd = self._nd
            return _make(*_content(((re * nd, -im * nd),), re * re + im * im))
        return _ratio(_scale(self._d, self._nd), _scale(n, self._dd),
                      coprime=True)

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- star structure, evaluation ----------------------------------------
    def star(self):
        """Conjugate coefficients; ``lp`` itself is fixed (real parameter).
        Conjugation keeps every canonical-form invariant."""
        d = self._d
        return _make(_conj(self._n), self._nd,
                     d if d is _P1 else _conj(d), self._dd)

    def eval(self, v):
        """Evaluate at a numeric value of ``lp``; raises at a pole."""
        x = complex(v)
        d = _peval(self._d, self._dd, x)
        if d == 0:
            raise ZeroDivisionError(f"pole of scalar at lp={v}")
        return _peval(self._n, self._nd, x) / d

    # -- comparison / rendering ---------------------------------------------
    def __eq__(self, other):
        o = other if type(other) is ParamScalar else _coerce(other)
        if o is None:
            return NotImplemented
        return (self._n == o._n and self._nd == o._nd
                and self._d == o._d and self._dd == o._dd)

    def __hash__(self):
        n = self._n
        if len(self._d) == 1 and len(n) <= 1:
            re, im = n[0] if n else (0, 0)
            if not im:
                # a real constant hashes as the int or Fraction it equals
                return hash(Fraction(re, self._nd))
        return hash((n, self._nd, self._d, self._dd))

    def __str__(self):
        if len(self._d) == 1:
            return _pstr(self._n, self._nd)
        return (f"({_pstr(self._n, self._nd)})/"
                f"({_pstr(self._d, self._dd)})")

    def __repr__(self):
        return str(self)


def _coerce(x):
    if isinstance(x, ParamScalar):
        return x
    if isinstance(x, int):
        return _make(((x, 0),), 1) if x else ZERO
    if isinstance(x, Fraction):
        return _make(((x.numerator, 0),), x.denominator) if x else ZERO
    return None


ZERO = _make((), 1)
ONE = _make(_P1, 1)
I = _make(((0, 1),), 1)
LP = _make(((0, 0), (1, 0)), 1)
