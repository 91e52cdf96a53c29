"""Three-dimensional differential calculus on the fuzzy sphere.

The calculus has a central Grassmann basis of 1-forms s1, s2, s3 commuting
with the algebra ([s^i, x_j] = 0) and

    d x_i = eps_ijk x_j s^k,
    d s^i = -(1/2) eps_ijk s^j ^ s^k,
    s^i ^ s^j = -s^j ^ s^i,

with the top degree Omega^3 = A.(s1^s2^s3) retained.  The calculus is inner
in degree 0: d a = theta a - a theta with theta = (1/(2 i lp)) x_i s^i.
``d`` is the graded Leibniz extension of the two rules above (``_DX``,
``_DS``), computed once per (monomial, basis key) by ``_d_term``.

``DiffForm`` holds one homogeneous degree k in {0,1,2,3} as a map from
sorted index tuples to algebra coefficients (coefficients on the left, which
is no restriction since the basis is central).  ``TensorForm`` holds
elements of Omega^k (x)_A Omega^1 for k in {1,2}.  Both take their linear
structure (sums, negation, left multiples, equality, rendering) from
``FormSum``.
"""

from __future__ import annotations

from functools import lru_cache

from .scalars import ONE, I, LP
from .algebra import AlgElem, _acc

__all__ = [
    "FormSum", "DiffForm", "TensorForm", "d", "wedge", "tensor",
    "theta", "s_from_dx", "partials", "s_basis", "EPS", "eps3",
]

# Levi-Civita symbol, 0-indexed: EPS[i][j][k]
EPS = tuple(
    tuple(
        tuple(
            (1 if (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else
             -1 if (i, j, k) in ((0, 2, 1), (2, 1, 0), (1, 0, 2)) else 0)
            for k in range(3))
        for j in range(3))
    for i in range(3))


def eps3(i, j, k):
    """Levi-Civita symbol with 1-based indices."""
    return EPS[i - 1][j - 1][k - 1]


_DEGREE_KEYS = {
    0: ((),),
    1: ((1,), (2,), (3,)),
    2: ((1, 2), (1, 3), (2, 3)),
    3: ((1, 2, 3),),
}


def _sort_key(seq):
    """Sort a tuple of basis indices into a key.

    Returns (key, sign), the sign being the parity of the sorting
    permutation, or None if an index repeats.
    """
    if len(set(seq)) < len(seq):
        return None
    inversions = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq))
        if seq[i] > seq[j])
    return tuple(sorted(seq)), (-1 if inversions % 2 else 1)


def _coerce_coeff(c):
    return c if isinstance(c, AlgElem) else AlgElem.scalar(c)


class FormSum:
    """Linear structure shared by ``DiffForm`` and ``TensorForm``.

    ``grade`` is the degree (``DiffForm.degree``, ``TensorForm.left_degree``)
    and ``components`` maps canonical basis keys to nonzero ``AlgElem``
    coefficients.  A subclass checks a key (``_check_key``) and renders one
    (``_basis``).  Only its constructor validates (``_fill``); results of the
    operations are built by ``_of`` from canonical components.
    """

    __slots__ = ("grade", "components")

    def _fill(self, grade, components):
        self.grade = grade
        comps = {}
        for key, coeff in (components or {}).items():
            key = self._check_key(key)
            coeff = _coerce_coeff(coeff)
            if coeff:
                comps[key] = coeff
        self.components = comps

    @classmethod
    def _of(cls, grade, components):
        """The form on ``components`` as given, which must be canonical."""
        out = object.__new__(cls)
        out.grade, out.components = grade, components
        return out

    # -- structure ---------------------------------------------------------
    def is_zero(self):
        return not self.components

    def __bool__(self):
        return bool(self.components)

    # -- linear structure -----------------------------------------------
    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.grade != other.grade:
            raise ValueError(
                f"degree mismatch: {self.grade} vs {other.grade}")
        out = dict(self.components)
        for key, c in other.components.items():
            _acc(out, key, c)
        return self._of(self.grade, out)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._of(self.grade,
                        {k: -v for k, v in self.components.items()})

    def __rmul__(self, other):
        """Left multiplication by an algebra element or scalar."""
        o = _coerce_coeff(other)
        return self._of(self.grade, {k: p for k, v in self.components.items()
                                     if (p := o * v)})

    # -- comparison / rendering ---------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.grade == other.grade \
            and self.components == other.components

    def __str__(self):
        if not self.components:
            return "0"
        return " + ".join(f"({self.components[key]}) {self._basis(key)}"
                          for key in sorted(self.components))

    __repr__ = __str__


def _wedge_name(key):
    return "^".join(f"s{i}" for i in key) or "1"


class DiffForm(FormSum):
    """Homogeneous differential form of degree 0..3."""

    __slots__ = ()

    def __init__(self, degree, components=None):
        if degree not in (0, 1, 2, 3):
            raise ValueError(f"form degree must be 0..3, got {degree}")
        self._fill(degree, components)

    degree = property(lambda self: self.grade)

    def _check_key(self, key):
        key = tuple(key)
        if key not in _DEGREE_KEYS[self.degree]:
            raise ValueError(f"bad degree-{self.degree} index key {key}")
        return key

    _basis = staticmethod(_wedge_name)

    @classmethod
    def from_alg(cls, a):
        return cls(0, {(): _coerce_coeff(a)})

    def component(self, *key):
        return self.components.get(tuple(key), AlgElem.zero())

    def __mul__(self, other):
        """Right multiplication by an algebra element or scalar."""
        if isinstance(other, DiffForm):
            return NotImplemented
        o = _coerce_coeff(other)
        return self._of(self.grade, {k: p for k, v in self.components.items()
                                     if (p := v * o)})

    # -- calculus ------------------------------------------------------------
    def wedge(self, other):
        if not isinstance(other, DiffForm):
            raise TypeError("wedge expects a DiffForm")
        deg = self.degree + other.degree
        if deg > 3:
            return DiffForm._of(3, {})
        acc = {}
        for kl, cl in self.components.items():
            for kr, cr in other.components.items():
                m = _sort_key(kl + kr)
                if m is None:
                    continue
                key, sign = m
                _acc(acc, key, cl * cr if sign > 0 else -(cl * cr))
        return DiffForm._of(deg, acc)

    def star(self):
        """Graded star; every basis wedge monomial is star-fixed, so this
        conjugates coefficients componentwise."""
        return self._of(self.grade,
                        {k: v.star() for k, v in self.components.items()})


def s_basis(i):
    """The central basis 1-form s^i."""
    if i not in (1, 2, 3):
        raise ValueError(f"basis index must be 1, 2 or 3, got {i}")
    return DiffForm._of(1, {(i,): AlgElem.one()})


def wedge(a, b):
    return a.wedge(b)


# the calculus on the letters: d x_g = eps_gjk x_j s^k, and
# d s^i = -(1/2) eps_ijk s^j ^ s^k = -eps_ijk s^j ^ s^k summed over j < k
_DX = {g: DiffForm(1, {(k,): sum(eps3(g, j, k) * AlgElem.generator(j)
                                 for j in (1, 2, 3)) for k in (1, 2, 3)})
       for g in (1, 2, 3)}
_DS = {i: DiffForm(2, {key: -eps3(i, *key) for key in _DEGREE_KEYS[2]})
       for i in (1, 2, 3)}


@lru_cache(maxsize=None)
def _d_term(mono, key):
    """d(x1^a x2^b x3^c s^I) by the graded Leibniz rule over the letters of
    the term, as a tuple of (basis key, AlgElem) pairs.  Generator letters
    have degree 0, so only the s letters before a letter sign its term.
    """
    word = (1,) * mono[0] + (2,) * mono[1] + (3,) * mono[2]
    out = {}

    def put(seq, c):
        m = _sort_key(seq)
        if m is not None:
            _acc(out, m[0], c if m[1] > 0 else -c)

    for pos, g in enumerate(word):
        left, right = (AlgElem.monomial(tuple(w.count(j) for j in (1, 2, 3)))
                       for w in (word[:pos], word[pos + 1:]))
        for (k,), c in _DX[g].components.items():
            put((k,) + key, left * c * right)
    coeff = AlgElem.monomial(mono)
    for pos, i in enumerate(key):
        for k, c in _DS[i].components.items():
            put(key[:pos] + k + key[pos + 1:], (-1) ** pos * coeff * c)
    return tuple(out.items())


def d(form):
    """Exterior derivative.  Accepts an AlgElem (degree 0) or a DiffForm."""
    if isinstance(form, AlgElem):
        form = DiffForm.from_alg(form)
    if not isinstance(form, DiffForm):
        raise TypeError("d expects an AlgElem or DiffForm")
    if form.degree == 3:
        return DiffForm._of(3, {})  # top degree: d vanishes identically
    out = {}
    for key, coeff in form.components.items():
        for mono, q in coeff.terms.items():
            for k, c in _d_term(mono, key):
                _acc(out, k, q * c)
    return DiffForm._of(form.degree + 1, out)


def theta():
    """The inner 1-form theta = (1/(2 i lp)) x_i s^i."""
    scale = ONE / (2 * I * LP)
    comps = {(i,): AlgElem.monomial(
        tuple(1 if j == i else 0 for j in (1, 2, 3)), scale)
        for i in (1, 2, 3)}
    return DiffForm(1, comps)


def s_from_dx(l):
    """Reconstruct s^l from the exact 1-forms d x_i:

    s^l = (1/(1-lp^2)) [ (1/(2 i lp)) x_l x_i d x_i + eps_lim (d x_i) x_m ].
    """
    if l not in (1, 2, 3):
        raise ValueError(f"index must be 1, 2 or 3, got {l}")
    xl = AlgElem.generator(l)
    inner = DiffForm(1)
    for i in (1, 2, 3):
        inner = inner + (xl * AlgElem.generator(i)) * _DX[i]
    total = (ONE / (2 * I * LP)) * inner
    for i in (1, 2, 3):
        for m in (1, 2, 3):
            e = eps3(l, i, m)
            if not e:
                continue
            term = _DX[i] * AlgElem.generator(m)
            total = total + (term if e > 0 else -term)
    return (ONE / (ONE - LP * LP)) * total


def partials(a):
    """The coefficients (d a)_i of d a = (partial_i a) s^i, as a 3-tuple."""
    da = d(a)
    return tuple(da.component(i) for i in (1, 2, 3))


class TensorForm(FormSum):
    """Element of Omega^k (x)_A Omega^1 for k in {1, 2}.

    Components map (left_key, right_index) to algebra coefficients.
    """

    __slots__ = ()

    def __init__(self, left_degree, components=None):
        if left_degree not in (1, 2):
            raise ValueError(
                f"tensor left degree must be 1 or 2, got {left_degree}")
        self._fill(left_degree, components)

    left_degree = property(lambda self: self.grade)

    def _check_key(self, key):
        lkey, r = key
        lkey = tuple(lkey)
        if lkey not in _DEGREE_KEYS[self.left_degree] or r not in (1, 2, 3):
            raise ValueError(f"bad tensor key {(lkey, r)}")
        return lkey, r

    @staticmethod
    def _basis(key):
        lkey, r = key
        return f"{_wedge_name(lkey)}(x)s{r}"

    def component(self, left_key, right_index):
        return self.components.get(
            (tuple(left_key), right_index), AlgElem.zero())


def tensor(omega, eta):
    """omega (x) eta for omega of degree 1 or 2 and eta of degree 1."""
    if not isinstance(omega, DiffForm) or not isinstance(eta, DiffForm):
        raise TypeError("tensor expects DiffForm arguments")
    if eta.degree != 1:
        raise ValueError("right tensor factor must be a 1-form")
    if omega.degree not in (1, 2):
        raise ValueError("left tensor factor must have degree 1 or 2")
    out = {}
    for lkey, cl in omega.components.items():
        for (r,), cr in eta.components.items():
            _acc(out, (lkey, r), cl * cr)
    return TensorForm._of(omega.degree, out)
