"""Exact arithmetic in Z[q^(1/D), q^(-1/D)] and balanced quantum combinatorics.

Every scalar in this package is a Laurent polynomial in a formal variable q,
with integer coefficients and exponents in (1/D)Z for some denominator D
(D = m for braiding computations, 1 elsewhere).  Exponents are stored as
integer numerators over a canonical per-value denominator, so all arithmetic
is pure integer arithmetic, exact division included; values with different
denominators interoperate by lifting to the lcm.  Values are immutable and
hashable.

Results are built by the trusted constructor `_make`, which takes ownership
of a freshly built dict and skips the public constructor's copy and checks.
`addmul(acc, a, b)` is acc + a*b accumulated in one dict: the
multiply-accumulate of sparse operator application and of the kernels.

Pass-throughs.  `addmul(None, a, b)`, and so `a * b`, returns b itself when
a is the interned ONE and a when b is; `zero + x` returns x, as `x + zero`
and `x - zero` do.  Only an operand the caller holds comes back, and
nothing is built: most products in the sparse kernel have the factor ONE,
and every new entry of an operator sum is `ZERO + v`.

Interned units.  Every entry of a generator operator, and many entries of
the divided powers and Weyl elements built from them, is a unit +-q^(e/den).
`_make` returns one shared object per normalized unit: the table `_UNITS`
holds one entry per distinct (e, +-1, den) a run has built, and `Laurent.q`
memoizes its result per (num, den) argument pair.  Both grow with the
exponents a run meets, which the parameter grid bounds, not with the number
of operator entries: after `verify all --m 7 --N 1:7 --beyond-desk` they
hold 428 units (denominators 1 and 7) and 75 argument pairs.
Every unit the package stores comes from `_make` (`q`, `integer(+-1)`,
`unit_inverse` and the arithmetic) or is an operand returned by a
pass-through, which the caller already held and which came from `_make` in
turn.  So units can be compared by identity first: `__eq__` tests
`self is other` before anything else.  The public constructor still builds
a fresh object, equal to and hashing like the interned one; `qint` and
`_linalg.laurent_gcd` use it, and their values are only multiplied, divided
by or compared, never stored, so a pass-through never hands one to a cache.
Interning is safe because values are immutable and nothing mutates a
`_terms` dict: `_lift` copies, and division only reads its divisor.

Unit products.  `unit_product(a, b)` is `a * b`, memoized in
`_UNIT_PRODUCTS` under `(id(a), id(b))` when both operands are interned
units; `_make` records the id of each unit it interns in `_UNIT_IDS`.
`_UNITS` keeps every interned unit alive for the life of the process, so
such an id names that one object and no other can take it over; a unit
from the public constructor, such as `qint(1)`, never matches a key and is
never stored.  SparseOp.apply reads it for every new entry,
SparseOp.scale and the products with a diagonal side for every entry they
scale, and HoweSpace.from_slot_op for every entry it negates.  The memo
holds one entry per ordered pair of units a run multiplies there, so it is
bounded by the square of `_UNITS`, and measured far below that: 254 after
the desk run `verify all --m 1:4 --N 1:4` (92 units), 890 after
`verify all --m 6 --N 1:6 --beyond-desk` (234 units) and 1,599 after
`verify all --m 7 --N 1:7 --beyond-desk` (428 units).

Quantum integers are balanced: [n] = q^(n-1) + q^(n-3) + ... + q^(1-n), so
[n] = [n] under q -> q^(-1) and [n](1) = n.
"""

from __future__ import annotations

from math import gcd
from typing import Mapping


class InexactDivisionError(ArithmeticError):
    """Exact division in Z[q^(1/D)] failed.

    Divisions here back quantum binomials and divided powers; failure signals
    an arithmetic or convention bug, never bad user input.
    """


def _normalize(terms: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    if 0 in terms.values():
        terms = {e: c for e, c in terms.items() if c}
    if not terms:
        return terms, 1
    g = den
    for e in terms:
        g = gcd(g, e)
        if g == 1:
            break
    if g > 1:
        terms = {e // g: c for e, c in terms.items()}
        den //= g
    return terms, den


class Laurent:
    """A Laurent polynomial sum of c * q^(e/den) with integer c, e."""

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[int, int] = (), den: int = 1):
        if den < 1:
            raise ValueError("denominator must be positive")
        t, d = _normalize(dict(terms), den)
        _set_terms(self, t)
        _set_den(self, d)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("Laurent values are immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def integer(cls, n: int) -> "Laurent":
        return _make({0: n}, 1) if n else _ZERO

    @classmethod
    def q(cls, num: int = 1, den: int = 1) -> "Laurent":
        """The monomial q^(num/den), the interned unit; memoized per
        (num, den)."""
        try:
            return _QPOW[num, den]
        except KeyError:
            pass
        n, d = (-num, -den) if den < 0 else (num, den)
        if d < 1:
            raise ValueError("denominator must be positive")
        x = _QPOW[num, den] = _make({n: 1}, d)
        return x

    # -- basic queries -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def n_terms(self) -> int:
        return len(self._terms)

    def is_unit(self) -> bool:
        """Units of Z[q^(1/D)] are the single terms with coefficient +-1."""
        return len(self._terms) == 1 and abs(next(iter(self._terms.values()))) == 1

    def unit_inverse(self) -> "Laurent":
        if not self.is_unit():
            raise ValueError(f"not a unit: {self}")
        ((e, c),) = self._terms.items()
        return _make({-e: c}, self._den)

    def content(self) -> int:
        g = 0
        for c in self._terms.values():
            g = gcd(g, c)
        return g

    # -- arithmetic --------------------------------------------------------

    def _lift(self, den: int) -> dict[int, int]:
        f = den // self._den
        if f == 1:
            return dict(self._terms)
        return {e * f: c for e, c in self._terms.items()}

    def __add__(self, other) -> "Laurent":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Laurent":
        return _make({e: -c for e, c in self._terms.items()}, self._den)

    def __sub__(self, other) -> "Laurent":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, -1)

    def _plus(self, other: "Laurent", sign: int) -> "Laurent":
        """self + sign * other, in one pass over other's terms."""
        if not self._terms and sign == 1:
            return other
        if not other._terms:
            return self
        den = _lcm(self._den, other._den)
        t = self._lift(den)
        f = den // other._den
        for e, c in other._terms.items():
            e *= f
            t[e] = t.get(e, 0) + sign * c
        return _make(t, den)

    def __mul__(self, other) -> "Laurent":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return addmul(None, self, other)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if self is other:  # interned units compare by identity first
            return True
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._terms.items())))

    # -- evaluation and exact division ---------------------------------------

    def at_one(self) -> int:
        """Evaluate at q = 1."""
        return sum(self._terms.values())

    def divexact(self, other) -> "Laurent":
        """Exact division in Z[q^(1/D)]; raises InexactDivisionError if the
        quotient does not exist there.

        Long division on integers from the lowest term up: each quotient
        coefficient is the remainder's lowest coefficient divided by the
        divisor's, and it must divide exactly.  The quotient, when it exists,
        is unique, so a nonzero integer remainder proves there is none.
        """
        other = _coerce(other)
        if other is NotImplemented or not other._terms:
            raise InexactDivisionError("division by zero")
        if not self._terms:
            return _ZERO
        den = _lcm(self._den, other._den)
        rem = self._lift(den)
        div = other._terms if other._den == den else other._lift(den)
        dmin = min(div)
        dlead = div[dmin]
        bound = max(rem) - max(div)
        quot: dict[int, int] = {}
        while rem:
            e = min(rem)
            qe = e - dmin
            if qe > bound:
                raise InexactDivisionError(f"({self}) not divisible by ({other})")
            qc, r = divmod(rem[e], dlead)
            if r:
                raise InexactDivisionError(f"({self}) / ({other}) not integral")
            quot[qe] = qc
            for ed, cd in div.items():
                k = qe + ed
                v = rem.get(k, 0) - qc * cd
                if v:
                    rem[k] = v
                else:
                    del rem[k]
        return _make(quot, den)

    # -- rendering -----------------------------------------------------------

    def text(self) -> str:
        """Canonical text: signed sum of c*q^(a/b) terms, ascending exponent.

        No spaces, so the string can be used as a field in line-oriented files.
        """
        if not self._terms:
            return "0"
        parts = []
        for e, c in sorted(self._terms.items()):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                g = gcd(e, self._den)
                ex = f"{e // g}/{self._den // g}" if g < self._den else str(e // g)
                body = f"{mag}*q^({ex})"
            sign = "-" if c < 0 else ("+" if parts else "")
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return self.text()


def _coerce(x) -> "Laurent":
    if isinstance(x, Laurent):
        return x
    if isinstance(x, int):
        return Laurent.integer(x)
    return NotImplemented


# The slot setters bypass the immutability guard in __setattr__.
_set_terms = Laurent._terms.__set__
_set_den = Laurent._den.__set__


_ZERO = Laurent()
_ONE = Laurent({0: 1})
# the intern tables of the module docstring
_UNITS: dict[tuple[int, int, int], Laurent] = {(0, 1, 1): _ONE}
_UNIT_IDS: set[int] = {id(_ONE)}
_QPOW: dict[tuple[int, int], Laurent] = {}
_UNIT_PRODUCTS: dict[tuple[int, int], Laurent] = {}

ZERO = _ZERO
ONE = _ONE


def _lcm(a: int, b: int) -> int:
    return a if a == b else a * b // gcd(a, b)


def _make(terms: dict[int, int], den: int) -> Laurent:
    """Trusted constructor: takes ownership of the freshly built dict terms.
    A unit +-q^(e/den) is returned as the one interned object for it."""
    if den == 1:
        if 0 in terms.values():
            terms = {e: c for e, c in terms.items() if c}
    else:
        terms, den = _normalize(terms, den)
    if len(terms) == 1:
        ((e, c),) = terms.items()
        if c == 1 or c == -1:
            key = (e, c, den)
            x = _UNITS.get(key)
            if x is None:
                x = _UNITS[key] = _new(terms, den)
                _UNIT_IDS.add(id(x))
            return x
    elif not terms:
        return _ZERO
    return _new(terms, den)


def _new(terms: dict[int, int], den: int) -> Laurent:
    x = object.__new__(Laurent)
    _set_terms(x, terms)
    _set_den(x, den)
    return x


def addmul(acc: Laurent | None, a: Laurent, b: Laurent) -> Laurent:
    """acc + a*b, accumulated in one dict; an acc of None counts as zero.
    With no acc, a factor that is the interned ONE returns the other one."""
    if acc is None:
        if a is _ONE:
            return b
        if b is _ONE:
            return a
    if len(a._terms) > len(b._terms):  # the outer loop runs over the shorter
        a, b = b, a
    if not a._terms:
        return _ZERO if acc is None else acc
    den = _lcm(a._den, b._den)
    if acc is None and len(b._terms) == 1:  # so a has one term too
        ((ea, ca),) = a._terms.items()
        ((eb, cb),) = b._terms.items()
        return _make({ea * (den // a._den) + eb * (den // b._den): ca * cb}, den)
    if acc is not None:
        den = _lcm(den, acc._den)
    ta = a._terms if a._den == den else a._lift(den)
    tb = b._terms if b._den == den else b._lift(den)
    t = {} if acc is None else acc._lift(den)
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            e = ea + eb
            t[e] = t.get(e, 0) + ca * cb
    return _make(t, den)


def unit_product(a: Laurent, b: Laurent) -> Laurent:
    """a * b, memoized when both are interned units (see the module docstring)."""
    key = (id(a), id(b))
    try:
        return _UNIT_PRODUCTS[key]
    except KeyError:
        pass
    x = addmul(None, a, b)
    if key[0] in _UNIT_IDS and key[1] in _UNIT_IDS:
        _UNIT_PRODUCTS[key] = x
    return x


# ---------------------------------------------------------------------------
# quantum combinatorics


def qint(n: int) -> Laurent:
    """Balanced quantum integer [n] = q^(n-1) + q^(n-3) + ... + q^(1-n).

    [0] = 0. For n < 0 returns -[−n], matching (q^n - q^-n)/(q - q^-1).
    """
    if n < 0:
        return -qint(-n)
    return Laurent({n - 1 - 2 * j: 1 for j in range(n)})


def qfact(n: int) -> Laurent:
    """Quantum factorial [n]! = [1][2]...[n], with [0]! = 1."""
    if n < 0:
        raise ValueError("qfact needs n >= 0")
    out = ONE
    for j in range(2, n + 1):
        out = out * qint(j)
    return out


def qbinom(n: int, k: int) -> Laurent:
    """Gaussian binomial [n]!/([k]![n-k]!), computed by exact division.

    Palindromic in q <-> q^(-1); value at q = 1 is the ordinary binomial.
    """
    if not 0 <= k <= n:
        raise ValueError(f"qbinom needs 0 <= k <= n, got ({n}, {k})")
    return qfact(n).divexact(qfact(k) * qfact(n - k))
