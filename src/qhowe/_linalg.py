"""Sparse exact linear algebra over the Laurent scalar ring.

Operators are column-major sparse maps between monomial-labelled free
modules.  Kernels never leave the ring Z[q^(+-1/D)]: fraction-free Bareiss
elimination, pivoting on the first row with a nonzero entry in the column,
then a back-substitution scaled by the last pivot so that, by Cramer's rule,
every division is exact.  Each kernel vector is divided by its content and
scaled by a unit, which makes it the unique canonical vector on its line, so
the choice of pivot row changes the cost and never the basis.

SparseOp.commutes_with decides a @ b == b @ a without the products when one
side is diagonal, i.e. every column holds only its own label.  For diagonal
a, (a @ b)[r][c] = a[r] b[r][c] and (b @ a)[r][c] = b[r][c] a[c], with a
missing a-entry read as zero.  The two agree iff b[r][c] (a[r] - a[c]) = 0,
and Z[q^(1/D)] is a domain, so iff a[r] == a[c] on every nonzero b[r][c]:
the eigenvalue test is exactly the product test, not a sufficient condition.
Two diagonal operators always commute, so a pair of them needs no eigenvalue
scan.  Otherwise the test costs one comparison per entry of b, and the
eigenvalues of K are interned units (see qring), so an identity test settles
nearly every comparison without calling Laurent.__eq__.  SparseOp.diagonal
scans an operator once, on first use, stopping at the first column that is
not diagonal, and keeps the eigenvalue map (or None) on the operator, which
is never mutated; a diagonal operator met in several pairs is scanned once.

SparseOp.__matmul__ forms a product with a diagonal right side by scaling:
(a @ d)[r][c] = a[r][c] d[c], with column c dropped where d has no label
(eigenvalue zero).  That is entry for entry the SparseOp the general product
builds, so a comparison and its witness cannot tell them apart.  The branch
stays because it shares a's column wherever d's eigenvalue is the interned
ONE, which keeps the products with the identities X^(0) of the divided
powers cheap.  A diagonal left side takes the general path, which costs the
same there: applying d to a column of b is at most one unit_product per
entry and leaves out the rows d has no label for.  Every product drops empty
columns as it builds, into the trusted constructor SparseOp._make.

No operator entry is ever zero (see SparseOp), so apply, the products and
the eigenvalue scan never test an entry for zero.  SparseOp.apply copies
its first column as it is when the coefficient is the interned ONE, and
for a later new target row stores the operator's entry itself under ONE
and otherwise the memoized qring.unit_product of the two.
"""

from __future__ import annotations

from math import gcd as int_gcd

from .qring import Laurent, ONE, ZERO, addmul, unit_product

Vec = dict  # monomial label -> Laurent


# ---------------------------------------------------------------------------
# vectors


def vec_scale(c: Laurent, a: Vec) -> Vec:
    if not c:
        return {}
    return {k: c * v for k, v in a.items()}


# ---------------------------------------------------------------------------
# gcd in Z[q^(1/D)]


def laurent_gcd(a: Laurent, b: Laurent) -> Laurent:
    """A gcd in Z[q^(1/D)], normalized to valuation 0, positive low
    coefficient, and integer content equal to gcd of the two contents.

    A primitive PRS over Z: each pseudo-remainder is divided by its content,
    which keeps the coefficients near the inputs' size (Euclid over Q lets
    them blow up).  The last nonzero one is the gcd up to an integer."""
    if not a:
        return _canonical_unit_normal(b)
    if not b:
        return _canonical_unit_normal(a)
    den = a._den * b._den // int_gcd(a._den, b._den)
    pa = _shifted_poly(a, den)
    pb = _shifted_poly(b, den)
    content = int_gcd(a.content(), b.content())
    while pb:
        pa, pb = pb, _primitive_prem(pa, pb)
    # the inputs have nonzero constant terms, so the gcd has one, pa[0]
    g = int_gcd(*pa.values()) if pa[0] > 0 else -int_gcd(*pa.values())
    return Laurent({e: c // g * content for e, c in pa.items()}, den)


def _shifted_poly(a: Laurent, den: int) -> dict[int, int]:
    t = a._lift(den)
    mn = min(t)
    return {e - mn: c for e, c in t.items()}


def _primitive_prem(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The primitive part of a pseudo-remainder of a by b in Z[x]: each step
    cancels the top term against b's leading term, both scaled by the least
    integers that make it cancel."""
    rem = dict(a)
    db = max(b)
    lb = b[db]
    while rem and max(rem) >= db:
        da = max(rem)
        g = int_gcd(rem[da], lb)
        ra, rb = lb // g, rem[da] // g
        rem = {e: ra * c for e, c in rem.items()}
        for e, c in b.items():
            k = da - db + e
            v = rem.get(k, 0) - rb * c
            if v:
                rem[k] = v
            else:
                rem.pop(k, None)
    g = int_gcd(*rem.values())
    return {e: c // g for e, c in rem.items()}


def _normalizing_unit(a: Laurent) -> Laurent:
    """The unit +-q^(-v) that gives the nonzero a valuation 0 and a positive
    low coefficient."""
    low = min(a._terms)
    u = Laurent.q(-low, a._den)
    return u if a._terms[low] > 0 else -u


def _canonical_unit_normal(a: Laurent) -> Laurent:
    return a * _normalizing_unit(a) if a else ZERO


def vector_content(entries) -> Laurent:
    g = ZERO
    for v in entries:
        g = laurent_gcd(g, v)
        if g.is_unit():
            break
    return g


# ---------------------------------------------------------------------------
# nullspace


def nullspace(rows: list[list[Laurent]], ncols: int) -> list[list[Laurent]]:
    """Kernel basis of the matrix with the given rows, one vector per free
    column, as primitive vectors.

    Fraction-free forward elimination (Bareiss); within each column the pivot
    row is the first with a nonzero entry there.  Let P be the pivot rows
    and columns and d the last pivot, which is det A_PP up to sign.  The
    vector for free column f has x_f = d and 0 at the other free columns, so
    by Cramer's rule x_P = -d A_PP^(-1) A_Pf = +-adj(A_PP) A_Pf: every entry
    is a minor of A, and each division by a row pivot in the back-substitution
    is exact.  The vector is then divided by its content and scaled by the
    unit that gives its first nonzero entry valuation 0 and a positive low
    coefficient; a primitive, unit-normalized vector on a kernel line is
    unique, so another choice of pivot rows changes only the cost.
    """
    m = [row[:] for row in rows if any(row)]
    nrows = len(m)
    piv_cols: list[int] = []  # row t of m holds the pivot of column piv_cols[t]
    prev = ONE
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        first = next((rr for rr in range(r, nrows) if m[rr][c]), None)
        if first is None:
            continue
        m[r], m[first] = m[first], m[r]
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
        prev = pivot
        r += 1
    rank = len(piv_cols)
    free = [c for c in range(ncols) if c not in piv_cols]
    basis = []
    for f in free:
        x = [ZERO] * ncols
        x[f] = prev  # d, the last pivot
        for t in range(rank - 1, -1, -1):
            pc = piv_cols[t]
            row = m[t]
            s = ZERO
            for c in range(pc + 1, ncols):
                if row[c] and x[c]:
                    s = addmul(s, row[c], x[c])
            x[pc] = -s.divexact(row[pc])
        content = vector_content(x)
        if not content.is_unit():
            x = [v.divexact(content) for v in x]
        unit = _normalizing_unit(next(v for v in x if v))
        basis.append([unit * v for v in x])
    return basis


# ---------------------------------------------------------------------------
# operators


class SparseOp:
    """Column-major sparse operator; labels are arbitrary hashable monomials.

    Invariant: no entry is zero.  SparseOp(cols) owns cols and drops empty
    columns only (SparseOp._make, the trusted constructor, not even those),
    so every builder hands them nonzero entries: generator actions, Weyl
    bases and q^(H (x) H) hold units; in a domain, products of nonzero values
    (tensor, scale) are nonzero, as are negations and signed relabellings;
    apply and __add__ drop cancellations; and scale returns early on zero.
    Operators are never mutated, so columns may be shared between them.
    """

    __slots__ = ("cols", "_diag")  # _diag: set by diagonal() on first use

    def __init__(self, cols):
        self.cols = {c: col for c, col in cols.items() if col}

    @classmethod
    def _make(cls, cols) -> "SparseOp":
        """The trusted constructor: owns cols, which hold no empty column."""
        op = object.__new__(cls)
        op.cols = cols
        return op

    @staticmethod
    def identity(basis) -> "SparseOp":
        return SparseOp({b: {b: ONE} for b in basis})

    def apply(self, vec: Vec) -> Vec:
        out: Vec = {}
        for c, coeff in vec.items():
            col = self.cols.get(c)
            if not col:
                continue
            if not out and coeff is ONE:  # the first column, as it is
                out = dict(col)
                continue
            for r, v in col.items():
                prev = out.get(r)
                if prev is None:  # a new entry: ONE * v is v, units hit the memo
                    out[r] = v if coeff is ONE else unit_product(coeff, v)
                    continue
                s = addmul(prev, coeff, v)
                if s:
                    out[r] = s
                else:
                    out.pop(r, None)
        return out

    def __matmul__(self, other: "SparseOp") -> "SparseOp":
        """self after other; a diagonal right side scales self's columns (see
        the module docstring), and otherwise self is applied to each column."""
        d = other.diagonal()
        if d is not None:  # (A D)[r][c] = A[r][c] d[c]
            cols = {}
            for c, dc in d.items():
                col = self.cols.get(c)
                if col:
                    cols[c] = col if dc is ONE else {
                        r: unit_product(dc, v) for r, v in col.items()}
            return SparseOp._make(cols)
        apply = self.apply  # empty columns are dropped here, not by a second pass
        return SparseOp._make({c: out for c, col in other.cols.items() if (out := apply(col))})

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
        return self + -other

    def __neg__(self) -> "SparseOp":
        return SparseOp({c: {r: -v for r, v in col.items()} for c, col in self.cols.items()})

    def scale(self, c: Laurent) -> "SparseOp":
        # operators are never mutated, so scaling by 1 may share self
        if c == ONE:
            return self
        if not c:
            return SparseOp({})
        return SparseOp({cc: {r: unit_product(c, v) for r, v in col.items()}
                         for cc, col in self.cols.items()})

    def diagonal(self):
        """The eigenvalue map {label: entry} if every column holds only its own
        label, else None; a label with no column has eigenvalue zero and is
        absent.  Scanned once, on first use, and kept on the operator."""
        try:
            return self._diag
        except AttributeError:
            pass
        diag = {}
        for c, col in self.cols.items():
            v = col.get(c)
            if v is None or len(col) != 1:
                diag = None
                break
            diag[c] = v
        self._diag = diag
        return diag

    def commutes_with(self, other: "SparseOp") -> bool:
        """self @ other == other @ self, decided without forming the products
        when either side is diagonal (see the module docstring)."""
        da, db = self.diagonal(), other.diagonal()
        if da is None and db is None:
            return self @ other == other @ self
        if da is not None and db is not None:
            return True
        diag, b = (da, other) if db is None else (db, self)
        for c, col in b.cols.items():
            dc = diag.get(c, ZERO)
            for r in col:
                x = diag.get(r, ZERO)
                if x is not dc and x != dc:
                    return False
        return True

    def restrict(self, domain) -> "SparseOp":
        return SparseOp({c: self.cols[c] for c in domain if c in self.cols})

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseOp):
            return NotImplemented
        return self.cols == other.cols

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
