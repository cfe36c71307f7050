"""Quantum exterior algebras as U_q(sl_n)-modules.

A module here is a tensor product of wedge powers of the defining
representation of U_q(sl_n): each factor is either the full exterior algebra
on X_1..X_n or its fixed-degree piece.  Monomials are tuples of strictly
increasing index tuples, one per factor.  GL weights are plain int tuples
(multiplicity of each index, additive across factors).

The wedge factors are the tensor algebra on X_1..X_n modulo
X_j X_i = -q^(-1) X_i X_j (i < j), X_i X_i = 0 (straighten).  Generators act
on the defining representation by E_i X_{i+1} = X_i, F_i X_i = X_{i+1},
K_i X_j = q^(d_{ij}) X_j.

The active-factor rule.  U_q(sl_2)_i sees a wedge factor only through its
letters X_i, X_(i+1).  A factor holding neither or both is inert: weight 0,
killed by E_i and F_i, K_i = 1.  A factor holding exactly one is active, a
copy of V(1) of weight +1 (X_i) or -1 (X_(i+1)), and swapping i <-> i+1 in
it keeps it sorted, since no letter sorts between them, so the swap adds no
straightening sign.  So on a monomial E_i (F_i) is the sum, over its factors
of weight -1 (+1), of the monomial with that factor swapped, times the
K-power the coproduct puts on the other factors; K_i^(+-1) multiplies by
q^(+-sum of the weights).  MOVES[i] tables each factor's weight and swap,
and _placement with _movers writes the rule once.  Module.act applies it
for one generator (operator(kind, i) caches it as a whole-module
SparseOp); generators(i, basis) builds all four in one pass.

Two coproducts preserve the relation ideal:

  standard:  D(E) = E (x) K + 1 (x) E,    D(F) = F (x) 1 + K^(-1) (x) F
  flipped:   D(E) = E (x) 1 + K^(-1) (x) E,  D(F) = F (x) K + 1 (x) F

The standard one is the default and the only one passing the divided-power
oracle (unit leading coefficients, howe.divided_transport); the Howe
actions commute under both, and no Weyl element depends on it (braidgrp).

divided_columns is the one divided-power construction: X^(r) = X^r/[r]!
of a monomial in closed form by the same rule, with unit coefficients and
no product or division.  act_divided and the whole-space operators of
ktheory.divided_op are written on it; the recurrence X^(r) = X X^(r-1)/[r]
runs only in the tests, as its oracle.  The rank-one Weyl elements of
braidgrp do not use it: they are built from their matrices on V(1) by one
recursion in the number of tensor factors, and the triple divided-power
sum that defines them runs only in the tests.
"""

from __future__ import annotations

from functools import wraps
from itertools import combinations
from typing import Iterable, NamedTuple, Optional

from .qring import Laurent, ONE, ZERO
from ._linalg import SparseOp, nullspace
from ._value import Frozen

GEN_E = "E"
GEN_F = "F"
GEN_K = "K"
GEN_KINV = "Kinv"

COPRODUCTS = ("standard", "flipped")


class Conventions(NamedTuple):
    """The resolved conventions of one run: the coproduct, the rank-one Weyl
    variant (order, sign) and the grading sign eps.  ktheory.conventions
    builds it and is the only place that resolves an unset value.  Every
    suite that depends on a convention takes it whole; the builders below
    the suites take the fields they depend on as required arguments.  The
    coproduct reaches E, F, their divided powers and the lowest weight
    vectors, never t, R or beta."""

    coproduct: str
    variant: tuple
    eps: int


Monomial = tuple  # tuple of per-factor index tuples


def straighten(word: Iterable[int], rank: int) -> Optional[tuple[Laurent, tuple[int, ...]]]:
    """Sort a product of generators X_{word} into the increasing basis.

    Returns None for a repeated index (X_i^2 = 0); otherwise the coefficient
    (-q^(-1))^inv with inv the inversion count, and the sorted tuple.
    """
    word = tuple(word)
    for i in word:
        if not 1 <= i <= rank:
            raise ValueError(f"index {i} out of range 1..{rank}")
    if len(set(word)) != len(word):
        return None
    inv = sum(1 for a in range(len(word)) for b in range(a + 1, len(word)) if word[a] > word[b])
    coeff = -Laurent.q(-inv) if inv & 1 else Laurent.q(-inv)
    return coeff, tuple(sorted(word))


_MODULE_CACHE: dict = {}


def _cached(key, build):
    """build() memoized in _MODULE_CACHE under key, for the whole process.

    A key is (kind, *args), the arguments of one builder, and only cached(kind)
    writes them.  Nothing is evicted: each distinct key a run asks for keeps
    one entry until the process ends, and then the OS reclaims the memory
    whole, with no per-object free (cli.run).  By kind that is one entry per
      op            (module, generator kind, i) whole-module operator
      basis         (rank, degrees) of a module, under every coproduct
      howe_basis    (m, N) of a Howe space: its basis, both right maps and
                    their sorted image, the basis of SlotModule(m, N)
      lwv           (Howe space, i, k, l) lowest-weight family
      weyl1         (module, i, variant) rank-one Weyl element, and
                    (j, variant) its base on V(1)^(x)j; the bases are
                    built by a recursion in j, so a run holds every base
                    from j = 0 up to the largest it asks for; the
                    suites build t on standard-coproduct modules only
      divided       (m, N, E or F, coproduct) divided-power list
      howe_weyl     (m, N, variant)
      half_twist    (m, k, l)
      walks         FlagSpec of geomcheck.walks: 434, for 1,172 lookups, on the desk run
    Every kind grows with the grid, not with the monomials: generator
    actions are cached only as whole operators (op), and Module.act is not
    cached.  op serves HoweSpace.sl2_op, the weyl1 recursion and the
    braiding suites' relations; divided powers do not read it.
    Measured entries, hits / lookups of one verify run:
      run                         op              weyl1
      howe m = 5, N = 1..5        20,  0 /  20     0,   0 /   0
      ktheory m = 5, N = 1..5      5,  3 /   8    11,  13 /  24
      braiding m = 5, N = 1..4    84, 62 / 146    29, 173 / 202
    """
    try:
        return _MODULE_CACHE[key]
    except KeyError:
        pass
    value = _MODULE_CACHE[key] = build()
    return value


def cached(kind: str):
    """Memoize a builder, called with positional arguments only, through
    _cached under (kind, *args): its body runs only on a miss, and an
    exception stores nothing."""

    def decorate(build):
        @wraps(build)
        def memoized(*args):
            return _cached((kind, *args), lambda: build(*args))

        return memoized

    return decorate


class Module(Frozen):
    """Tensor product of wedge-power factors of the defining rep of U_q(sl_n).

    degrees[j] is the fixed degree of factor j, or None for the whole
    exterior algebra; the rank and the degrees are ints, not bools.
    coproduct selects the tensor-factor convention.
    """

    __slots__ = ("rank", "degrees", "coproduct")

    def __init__(self, rank: int, degrees: tuple[Optional[int], ...], coproduct: str = "standard"):
        if type(rank) is not int or rank < 1:
            raise ValueError("rank must be >= 1")
        if coproduct not in COPRODUCTS:
            raise ValueError(f"unknown coproduct {coproduct!r}")
        for d in degrees:
            if d is not None and (type(d) is not int or not 0 <= d <= rank):
                raise ValueError(f"degree {d} out of range for rank {rank}")
        self._store(rank, degrees, coproduct)

    @property
    def sl_rank(self) -> int:
        return self.rank - 1

    def basis(self) -> tuple[Monomial, ...]:
        return _wedge_basis(self.rank, self.degrees)

    def gl_weight(self, mono: Monomial) -> tuple[int, ...]:
        w = [0] * self.rank
        for factor in mono:
            for i in factor:
                w[i - 1] += 1
        return tuple(w)

    def act(self, kind: str, i: int, mono: Monomial) -> dict:
        """The image of one basis monomial under a Chevalley generator or
        K^(+-1), by the active-factor rule of the module docstring.  Its
        monomials are distinct and its coefficients units, so nothing is
        accumulated and no entry is zero.  A vector raises TypeError."""
        if type(mono) is not tuple:
            raise TypeError(f"act: mono must be a monomial tuple, not {type(mono).__name__}")
        if not 1 <= i <= self.sl_rank:
            raise ValueError(f"generator index {i} out of range 1..{self.sl_rank}")
        table = MOVES[i]
        moves = [table[f] for f in mono]
        n = 0
        for a, _ in moves:
            n += a
        if kind in (GEN_K, GEN_KINV):
            return {mono: Laurent.q(n if kind == GEN_K else -n)}
        return {mono[:p] + (moves[p][1],) + mono[p + 1:]: Laurent.q(w)
                for p, w in _movers(moves, n, *_placement(kind, self.coproduct))}

    @cached("op")
    def operator(self, kind: str, i: int) -> SparseOp:
        return SparseOp({mono: self.act(kind, i, mono) for mono in self.basis()})

    def generators(self, i: int, basis) -> dict:
        """{kind: X} for X = E_i, F_i, K_i, K_i^(-1) on the span of basis,
        in one pass: act's rule, with each monomial's moves shared."""
        if not 1 <= i <= self.sl_rank:
            raise ValueError(f"generator index {i} out of range 1..{self.sl_rank}")
        table = MOVES[i]
        q = Laurent.q
        e, f, k, kinv = {}, {}, {}, {}
        sides = [(e, *_placement(GEN_E, self.coproduct)), (f, *_placement(GEN_F, self.coproduct))]
        for mono in basis:
            moves = [table[x] for x in mono]
            n = 0
            for a, _ in moves:
                n += a
            k[mono] = {mono: q(n)}
            kinv[mono] = {mono: q(-n)}
            for cols, a, after in sides:
                movers = _movers(moves, n, a, after)
                if movers:
                    cols[mono] = {mono[:p] + (moves[p][1],) + mono[p + 1:]: q(w) for p, w in movers}
        return {GEN_E: SparseOp._make(e), GEN_F: SparseOp._make(f),
                GEN_K: SparseOp._make(k), GEN_KINV: SparseOp._make(kinv)}


@cached("basis")
def _wedge_basis(rank: int, degrees: tuple) -> tuple[Monomial, ...]:
    """The sorted monomials of Module(rank, degrees), under every coproduct."""
    idx = range(1, rank + 1)
    out = [()]
    for d in degrees:
        ks = range(rank + 1) if d is None else (d,)
        out = [mono + (c,) for mono in out for k in ks for c in combinations(idx, k)]
    return tuple(sorted(out))


class _Memo(dict):
    """A dict that fills a missing key with build(key) on its first lookup."""

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _move(factor: tuple, i: int) -> tuple[int, tuple]:
    """(sl_2(i) weight, factor with X_i <-> X_(i+1), still sorted if active)."""
    a = (i in factor) - (i + 1 in factor)
    return a, tuple(i + 1 if x == i else i if x == i + 1 else x for x in factor) if a else factor


# MOVES[i][factor] = _move(factor, i): one move table per index i for the
# whole process, filled on first lookup.  A factor is a subset of 1..rank,
# so MOVES[i] holds at most 2^rank entries, rank the largest a run uses.
MOVES = _Memo(lambda i: _Memo(lambda factor: _move(factor, i)))


def _placement(kind: str, coproduct: str) -> tuple[int, bool]:
    """(a, after): X = E_i (F_i) moves the factors of weight a = -1 (+1), and
    the coproduct puts its K-power after them (E standard, F flipped)."""
    if kind not in (GEN_E, GEN_F):
        raise ValueError(kind)
    return (-1 if kind == GEN_E else 1), (kind == GEN_E) == (coproduct == "standard")


def _movers(moves: list, n: int, a: int, after: bool) -> list:
    """[(p, w)] for the factors p of weight a of a monomial with factor
    moves moves and total weight n, q^w the K-power on the others:
    K^(sum of the weights after p) if after, else K^(-(sum before p))."""
    out, seen = [], 0
    for p, (x, _) in enumerate(moves):
        if x == a:
            out.append((p, n - seen - a if after else -seen))
        seen += x
    return out


# ---------------------------------------------------------------------------
# divided powers and singular vectors.  divided_columns reads .coproduct and
# .sl_rank, so Module and howe.SlotModule both serve; singular_vectors takes
# .act of each basis monomial and .basis() and .gl_weight.


def divided_columns(module, kind: str, i: int, mono: Monomial) -> list[dict]:
    """[X^(0) mono, X^(1) mono, ..., X^(n) mono] for X = E_i or F_i, with n
    the number of factors of mono that X moves, in closed form.

    Every active factor is a copy of V(1), on which X^(2) = 0, so Lusztig's
    coproduct formula for divided powers gives each term directly.  Let
    (p, w_p) be the factors X moves and their K-power exponents, from
    _movers, and a the weight X moves (-1 for E, +1 for F); c = -a where
    the coproduct's K-power sits after the factor acted on (E standard, F
    flipped) and c = a where it sits before.  Then

        X^(r) mono = sum over r-sets P of the factors X moves of
                     q^(sum_(p in P) w_p + c r(r-1)/2) (mono with P swapped).

    Distinct sets swap distinct factors, so the terms are distinct monomials
    with unit coefficients, and nothing is multiplied or divided.
    """
    if not 1 <= i <= module.sl_rank:
        raise ValueError(f"generator index {i} out of range 1..{module.sl_rank}")
    a, after = _placement(kind, module.coproduct)
    table = MOVES[i]
    moves = [table[f] for f in mono]
    movers = _movers(moves, sum(x for x, _ in moves), a, after)
    c = -a if after else a
    out = [{mono: ONE}]
    for r in range(1, len(movers) + 1):
        col = {}
        for P in combinations(movers, r):
            img = list(mono)
            e = c * r * (r - 1) // 2
            for p, w in P:
                img[p] = moves[p][1]
                e += w
            col[tuple(img)] = Laurent.q(e)
        out.append(col)
    return out


def act_divided(module, kind: str, i: int, r: int, vec: dict) -> dict:
    """E_i^(r) or F_i^(r) on a vector: the sum of c * X^(r) mono over its
    terms, X^(r) mono read from divided_columns."""
    if r < 0:
        raise ValueError("divided power needs r >= 0")
    cols = {}
    for mono in vec:
        powers = divided_columns(module, kind, i, mono)
        if r < len(powers):
            cols[mono] = powers[r]
    return SparseOp(cols).apply(vec)


def weight_space(module, weight) -> tuple:
    weight = tuple(weight)
    if len(weight) != module.sl_rank + 1:
        raise ValueError(f"weight {weight} needs {module.sl_rank + 1} entries")
    return tuple(m for m in module.basis() if module.gl_weight(m) == weight)


def singular_vectors(module, weight) -> list[dict]:
    """Basis of the lowest-weight vectors of a weight space, the vectors
    killed by every F_i, by exact kernel computation.

    Vectors are primitive (content 1) and unit-normalized on their first
    basis monomial; empty list if there are none.
    """
    basis = weight_space(module, weight)
    if not basis:
        return []
    rows: dict = {}
    for col, mono in enumerate(basis):
        for i in range(1, module.sl_rank + 1):
            for tmono, c in module.act(GEN_F, i, mono).items():
                rows.setdefault((i, tmono), {})[col] = c
    # in insertion order: nullspace's output does not depend on the row order
    dense = [[row.get(c, ZERO) for c in range(len(basis))] for row in rows.values()]
    out = []
    for coeffs in nullspace(dense, len(basis)):
        vec = {m: c for m, c in zip(basis, coeffs) if c}
        out.append(vec)
    out.sort(key=lambda v: sorted(map(repr, v)))
    return out


# ---------------------------------------------------------------------------
# rendering


def wedge_str(factor: tuple[int, ...]) -> str:
    return "".join(f"X{i}" for i in factor) if factor else "1"


def mono_str(mono: Monomial) -> str:
    return "|".join(wedge_str(f) for f in mono)


def vec_str(vec: dict) -> str:
    if not vec:
        return "0"
    parts = [f"({c.text()})*{mono_str(m)}" for m, c in sorted(vec.items())]
    return " + ".join(parts)
