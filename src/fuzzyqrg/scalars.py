"""Exact scalars: Gaussian rationals and rational functions of ``lp``.

The coefficient field used by the symbolic layers is Q(i)(lp): rational
functions in a single formal parameter ``lp`` with Gaussian-rational
coefficients.  Everything is exact (arbitrary-precision integers underneath)
and kept in a canonical form -- numerator and denominator reduced by their
polynomial gcd, denominator monic -- so equality is structural and
``a - b`` is the zero object iff ``a == b``.

Conjugation (``star``) fixes ``lp`` and conjugates coefficients, i.e. ``lp``
is treated as a real parameter.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["GaussRational", "ParamScalar", "ZERO", "ONE", "I", "LP"]

_F0 = Fraction(0)
_F1 = Fraction(1)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GaussRational:
    """Exact complex rational ``re + im*i``."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    def conjugate(self):
        return GaussRational(self.re, -self.im)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero")
        return GaussRational(self.re / n, -self.im / n)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        o = _to_gauss(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _to_gauss(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _to_gauss(other)
        if o is None:
            return NotImplemented
        return GaussRational(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __mul__(self, other):
        o = _to_gauss(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re * o.re - self.im * o.im,
                             self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _to_gauss(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _to_gauss(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        o = _to_gauss(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{_imag_str(abs(self.im)).lstrip('+')}"

    __repr__ = __str__


def _imag_str(im):
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}*i"


def _to_gauss(x):
    if isinstance(x, GaussRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRational(x)
    return None


_G0 = GaussRational(0)
_G1 = GaussRational(1)


# --------------------------------------------------------------------------
# dense univariate polynomials over GaussRational, as trimmed tuples
# (ascending powers; the zero polynomial is the empty tuple)

def _ptrim(cs):
    cs = tuple(cs)
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return cs[:n]


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] = out[k] + c
    return _ptrim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [_G0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if cb:
                out[i + j] = out[i + j] + ca * cb
    return _ptrim(out)


def _pscale(a, k):
    if not k:
        return ()
    return _ptrim(tuple(c * k for c in a))


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [_G0] * max(0, len(a) - len(b) + 1)
    r = list(a)
    inv_lead = b[-1].inverse()
    while len(r) >= len(b):
        c = r[-1] * inv_lead
        k = len(r) - len(b)
        q[k] = c
        for j, cb in enumerate(b):
            r[k + j] = r[k + j] - c * cb
        while r and not r[-1]:
            r.pop()
    return _ptrim(q), _ptrim(r)


def _pmonic(a):
    lead = a[-1]
    if lead == _G1:
        return a
    return _pscale(a, lead.inverse())


def _pgcd(a, b):
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return ()
    return _pmonic(a)


def _peval(a, v):
    acc = 0j
    for c in reversed(a):
        acc = acc * v + complex(c)
    return acc


def _pstr(a):
    if not a:
        return "0"
    parts = []
    for k, c in enumerate(a):
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
            continue
        mono = "lp" if k == 1 else f"lp^{k}"
        if c == _G1:
            parts.append(mono)
        elif c == GaussRational(-1):
            parts.append(f"-{mono}")
        else:
            cs = str(c)
            if ("+" in cs[1:]) or ("-" in cs[1:]):
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


# --------------------------------------------------------------------------


class ParamScalar:
    """Element of Q(i)(lp): a reduced ratio of polynomials in ``lp``."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(_G1,)):
        num = _ptrim(num)
        den = _ptrim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num, self.den = (), (_G1,)
            return
        if len(den) > 1:
            g = _pgcd(num, den)
            if len(g) > 1:
                num = _pdivmod(num, g)[0]
                den = _pdivmod(den, g)[0]
        lead = den[-1]
        if lead != _G1:
            inv = lead.inverse()
            num = _pscale(num, inv)
            den = _pscale(den, inv)
        self.num, self.den = num, den

    # -- constructors ---------------------------------------------------
    @classmethod
    def of(cls, x):
        """Coerce an int, Fraction, GaussRational, or ParamScalar."""
        if isinstance(x, ParamScalar):
            return x
        g = _to_gauss(x)
        if g is None:
            raise TypeError(f"cannot coerce {type(x).__name__} to ParamScalar")
        return cls((g,))

    @classmethod
    def zero(cls):
        return ZERO

    @classmethod
    def one(cls):
        return ONE

    # -- predicates -------------------------------------------------------
    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    # -- field operations -------------------------------------------------
    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return ParamScalar(_padd(self.num, o.num), self.den)
        return ParamScalar(
            _padd(_pmul(self.num, o.den), _pmul(o.num, self.den)),
            _pmul(self.den, o.den))

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        if not self.num:
            return self
        s = ParamScalar.__new__(ParamScalar)
        s.num, s.den = _pneg(self.num), self.den
        return s

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if not self.num or not o.num:
            return ZERO
        return ParamScalar(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero scalar")
        return ParamScalar(self.den, self.num)

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
        """Conjugate coefficients; ``lp`` itself is fixed (real parameter)."""
        return ParamScalar(tuple(c.conjugate() for c in self.num),
                           tuple(c.conjugate() for c in self.den))

    def eval(self, v):
        """Evaluate at a numeric value of ``lp``; raises at a pole."""
        d = _peval(self.den, complex(v))
        if d == 0:
            raise ZeroDivisionError(f"pole of scalar at lp={v}")
        return _peval(self.num, complex(v)) / d

    # -- comparison / rendering ---------------------------------------------
    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den == (_G1,):
            return _pstr(self.num)
        return f"({_pstr(self.num)})/({_pstr(self.den)})"

    def __repr__(self):
        return str(self)


def _coerce(x):
    if isinstance(x, ParamScalar):
        return x
    g = _to_gauss(x)
    if g is None:
        return None
    return ParamScalar((g,))


ZERO = ParamScalar(())
ONE = ParamScalar((_G1,))
I = ParamScalar((GaussRational(0, 1),))
LP = ParamScalar((_G0, _G1))
