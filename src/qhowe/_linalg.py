"""Sparse exact linear algebra over the Laurent scalar ring.

Operators are column-major sparse maps between monomial-labelled free
modules.  Kernels are computed by fraction-free Bareiss elimination with
pivot rows chosen by smallest term count, then back-substitution over the
fraction field and clearing to a primitive ring vector.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd

from .qring import Laurent, ONE, ZERO, addmul

Vec = dict  # monomial label -> Laurent


# ---------------------------------------------------------------------------
# vectors


def vec_scale(c: Laurent, a: Vec) -> Vec:
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


def vec_divexact(a: Vec, c: Laurent) -> Vec:
    return {k: v.divexact(c) for k, v in a.items()}


# ---------------------------------------------------------------------------
# gcd in Z[q^(1/D)]


def _poly_divmod(a: dict[int, Fraction], b: dict[int, Fraction]):
    """Division from the top in Q[x]; exponents are nonnegative ints."""
    rem = dict(a)
    db = max(b)
    lb = b[db]
    quot: dict[int, Fraction] = {}
    while rem and max(rem) >= db:
        da = max(rem)
        qc = rem[da] / lb
        quot[da - db] = qc
        for e, c in b.items():
            k = da - db + e
            v = rem.get(k, Fraction(0)) - qc * c
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    return quot, rem


def laurent_gcd(a: Laurent, b: Laurent) -> Laurent:
    """A gcd in Z[q^(1/D)], normalized to valuation 0, positive low
    coefficient, and integer content equal to gcd of the two contents."""
    if not a:
        return _canonical_unit_normal(b)
    if not b:
        return _canonical_unit_normal(a)
    den = a._den * b._den // int_gcd(a._den, b._den)
    pa = _shifted_poly(a, den)
    pb = _shifted_poly(b, den)
    content = int_gcd(a.content(), b.content())
    while pb:
        _, pr = _poly_divmod(pa, pb)
        pa, pb = pb, pr
    # make primitive over Z with positive low coefficient
    mn = min(pa)
    shifted = {e - mn: c for e, c in pa.items()}
    lcm = 1
    for c in shifted.values():
        lcm = lcm * c.denominator // int_gcd(lcm, c.denominator)
    ints = {e: int(c * lcm) for e, c in shifted.items()}
    g = 0
    for c in ints.values():
        g = int_gcd(g, c)
    ints = {e: c // g for e, c in ints.items()}
    if ints[min(ints)] < 0:
        ints = {e: -c for e, c in ints.items()}
    return Laurent(ints, den) * Laurent.integer(content)


def _shifted_poly(a: Laurent, den: int) -> dict[int, Fraction]:
    t = a._lift(den)
    mn = min(t)
    return {e - mn: Fraction(c) for e, c in t.items()}


def _canonical_unit_normal(a: Laurent) -> Laurent:
    if not a:
        return ZERO
    t = dict(a._terms)
    mn = min(t)
    out = {e - mn: c for e, c in t.items()}
    if out[0] < 0:
        out = {e: -c for e, c in out.items()}
    return Laurent(out, a._den)


def vector_content(entries) -> Laurent:
    g = ZERO
    for v in entries:
        g = laurent_gcd(g, v)
        if g.is_unit():
            break
    return g


# ---------------------------------------------------------------------------
# fraction pairs (transient, for back substitution)


def _frac_reduce(num: Laurent, den: Laurent):
    if not num:
        return ZERO, ONE
    g = laurent_gcd(num, den)
    return num.divexact(g), den.divexact(g)


def _frac_add(a, b):
    num = a[0] * b[1] + b[0] * a[1]
    return _frac_reduce(num, a[1] * b[1])


def _frac_mul(a, b):
    return _frac_reduce(a[0] * b[0], a[1] * b[1])


def _frac_neg(a):
    return (-a[0], a[1])


def _frac_div(a, b):
    if not b[0]:
        raise ZeroDivisionError
    return _frac_reduce(a[0] * b[1], a[1] * b[0])


# ---------------------------------------------------------------------------
# nullspace


def nullspace(rows: list[list[Laurent]], ncols: int) -> list[list[Laurent]]:
    """Kernel basis of the matrix with the given rows, as primitive vectors.

    Fraction-free forward elimination (Bareiss); within each column the pivot
    row is the one whose entry has the fewest terms.  Returned vectors are
    cleared of denominators, divided by their content, and scaled by a unit
    so the first nonzero entry has valuation 0 and positive low coefficient.
    """
    m = [row[:] for row in rows if any(row)]
    nrows = len(m)
    piv_cols: list[int] = []
    piv_rows: list[int] = []
    prev = ONE
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best = None
        for rr in range(r, nrows):
            v = m[rr][c]
            if v and (best is None or v.n_terms() < m[best][c].n_terms()):
                best = rr
        if best is None:
            continue
        m[r], m[best] = m[best], m[r]
        pivot = m[r][c]
        for rr in range(r + 1, nrows):
            # Bareiss update applies to every lower row; divisions are exact
            # by the Sylvester identity
            factor = m[rr][c]
            m[rr] = [
                (pivot * m[rr][cc] - factor * m[r][cc]).divexact(prev)
                for cc in range(ncols)
            ]
        piv_cols.append(c)
        piv_rows.append(r)
        prev = pivot
        r += 1
    rank = len(piv_cols)
    free = [c for c in range(ncols) if c not in piv_cols]
    basis = []
    for f in free:
        x: list = [(ZERO, ONE)] * ncols
        x[f] = (ONE, ONE)
        for t in range(rank - 1, -1, -1):
            pc = piv_cols[t]
            row = m[piv_rows[t]]
            s = (ZERO, ONE)
            for c in range(pc + 1, ncols):
                if row[c] and x[c][0]:
                    s = _frac_add(s, _frac_mul((row[c], ONE), x[c]))
            x[pc] = _frac_div(_frac_neg(s), (row[pc], ONE))
        basis.append(_clear_vector(x))
    return basis


def _clear_vector(x) -> list[Laurent]:
    lcm = ONE
    for num, den in x:
        if num:
            g = laurent_gcd(lcm, den)
            lcm = lcm * den.divexact(g)
    cleared = [num * lcm.divexact(den) if num else ZERO for num, den in x]
    content = vector_content(cleared)
    if content and not content.is_unit():
        cleared = [v.divexact(content) if v else ZERO for v in cleared]
    for v in cleared:
        if v:
            unit = Laurent.from_exponents({-v.valuation(): 1})
            if v.items()[0][1] < 0:
                unit = -unit
            return [unit * w for w in cleared]
    return cleared


# ---------------------------------------------------------------------------
# operators


class SparseOp:
    """Column-major sparse operator; labels are arbitrary hashable monomials."""

    __slots__ = ("cols",)

    def __init__(self, cols):
        self.cols = {}
        for c, col in cols.items():
            col = {r: v for r, v in col.items() if v}
            if col:
                self.cols[c] = col

    @staticmethod
    def identity(basis) -> "SparseOp":
        return SparseOp({b: {b: ONE} for b in basis})

    @staticmethod
    def from_action(basis, fn) -> "SparseOp":
        """fn maps a basis label to a Vec (its image)."""
        return SparseOp({b: fn(b) for b in basis})

    def apply(self, vec: Vec) -> Vec:
        out: Vec = {}
        for c, coeff in vec.items():
            col = self.cols.get(c)
            if not col:
                continue
            for r, v in col.items():
                s = addmul(out.get(r), coeff, v)
                if s:
                    out[r] = s
                else:
                    out.pop(r, None)
        return out

    def __matmul__(self, other: "SparseOp") -> "SparseOp":
        """self after other."""
        # apply never returns zero entries, so only empty columns are dropped
        out = SparseOp({})
        for c, col in other.cols.items():
            img = self.apply(col)
            if img:
                out.cols[c] = img
        return out

    def __add__(self, other: "SparseOp") -> "SparseOp":
        out = {c: dict(col) for c, col in self.cols.items()}
        for c, col in other.cols.items():
            tgt = out.setdefault(c, {})
            for r, v in col.items():
                s = tgt.get(r, ZERO) + v
                if s:
                    tgt[r] = s
                else:
                    tgt.pop(r, None)
        return SparseOp(out)

    def __sub__(self, other: "SparseOp") -> "SparseOp":
        return self + other.scale(Laurent.integer(-1))

    def __neg__(self) -> "SparseOp":
        return self.scale(Laurent.integer(-1))

    def scale(self, c: Laurent) -> "SparseOp":
        if not c:
            return SparseOp({})
        return SparseOp({cc: {r: c * v for r, v in col.items()} for cc, col in self.cols.items()})

    def restrict(self, domain) -> "SparseOp":
        return SparseOp({c: self.cols[c] for c in domain if c in self.cols})

    def is_zero(self) -> bool:
        return not self.cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseOp):
            return NotImplemented
        return self.cols == other.cols

    def __hash__(self):
        raise TypeError("SparseOp is unhashable")

    def entries(self):
        for c, col in self.cols.items():
            for r, v in col.items():
                yield r, c, v

    def first_difference(self, other: "SparseOp"):
        """A witness (row, col, self value, other value) or None."""
        keys = sorted(set(self.cols) | set(other.cols), key=repr)
        for c in keys:
            a = self.cols.get(c, {})
            b = other.cols.get(c, {})
            rows = sorted(set(a) | set(b), key=repr)
            for r in rows:
                va = a.get(r, ZERO)
                vb = b.get(r, ZERO)
                if va != vb:
                    return (r, c, va, vb)
        return None

    def to_triplets(self, render_label) -> list[tuple[str, str, str]]:
        out = [
            (render_label(r), render_label(c), v.text())
            for r, c, v in self.entries()
        ]
        out.sort()
        return out
