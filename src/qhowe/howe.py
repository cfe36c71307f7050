"""The skew Howe duality bimodule: commuting U_q(sl_m) and U_q(sl_2) actions
on the degree-N piece of the quantum exterior algebra of C^m (x) C^2.

Basis monomials are pairs (S, T) of strictly increasing index subsets of
{1..m}: S carries the Y generators, T the X generators.  Two structural
isomorphisms give the module structures:

  left:   (S, T) -> X_S (x) X_T          in  wedge^|S|(C^m) (x) wedge^|T|(C^m)
  right:  (S, T) -> sign * slot tensor   in  (wedge_q C^2)^(x) m

where slot p carries YX if p in S and T, Y if p in S only, X if p in T only,
1 otherwise, and sign = (-1)^#{(a,b) in S x T : a < b}.  U_q(sl_m) acts
through the left map, U_q(sl_2) through the right map; the commuting of the
two actions is verified exhaustively at desk scale.

The U_q(sl_2) weight spaces of the degree-N piece are the blocks
wedge^k (x) wedge^l with k + l = N and k, l <= m; blocks(m, N) is the one
enumeration of them, and the Howe basis, the lowest-weight families and the
verify grids are all built from it.

Both sides act by qmodule.Module's code: the left one as
Module(m, (None, None)) on the block bases of Module(m, (k, l)), the right
one as Module(2, (None,) * m), X = X_1 and Y = X_2 in each slot, on its
degree-N piece SlotModule(m, N).  HoweSpace.slm_op(i) builds the four
generators at i in one pass, which verify_commuting pairs with the four of
U_q(sl_2).  Every Howe-side U_q(sl_2) operator (generators, divided powers,
Weyl elements) is built on the slot module and carried to the Howe basis by
HoweSpace.from_slot_op.  _right_map(m, N) is the one place the slot and sign
rules are written: the right map, its inverse and its sorted image, the slot
basis, built once; every transport is a signed relabelling by it.

The doubled slot state is stored as the sorted factor (1, 2), i.e. X*Y
rather than the Y*X of the sign rule; the two differ by the scalar -q^(-1),
and no sign is needed for it because E and F kill that state and its sl_2
weight is 0, so rescaling it commutes with every generator and with the
coproduct's K-factors on the other slots.
"""

from __future__ import annotations

from itertools import permutations

from ._linalg import SparseOp, vec_scale
from ._value import Frozen
from .qmodule import (
    COPRODUCTS, GEN_E, GEN_F, GEN_K, GEN_KINV, Conventions, Module, act_divided, cached,
    singular_vectors,
)
from .qring import Laurent, ONE, ZERO, qfact, unit_product
from .report import CheckResult, check, check_equal

SLOT_EMPTY, SLOT_X, SLOT_Y, SLOT_YX = (), (1,), (2,), (1, 2)
_SLOT_NAMES = {SLOT_EMPTY: "1", SLOT_X: "X", SLOT_Y: "Y", SLOT_YX: "YX"}
_SLOT_STATE = ((SLOT_EMPTY, SLOT_X), (SLOT_Y, SLOT_YX))  # [p in S][p in T]
_MINUS_ONE = -ONE


def _check_piece(m: int, N: int, coproduct: str) -> None:
    """ValueError unless the ints m and N (not bools) have m >= 1 and
    0 <= N <= 2m, and coproduct is known."""
    if type(m) is not int or m < 1 or coproduct not in COPRODUCTS:
        raise ValueError(f"need m >= 1 and a coproduct in {COPRODUCTS}: m={m}, {coproduct!r}")
    if type(N) is not int or not 0 <= N <= 2 * m:
        raise ValueError(f"degree N={N} out of range 0..2m at m={m}")


class SlotModule(Frozen):
    """The degree-N piece of (wedge_q C^2)^(x) m, the whole algebra being
    Module(2, (None,) * m).  A monomial has one wedge factor per slot:
    SLOT_EMPTY, SLOT_X, SLOT_Y or SLOT_YX = (1, 2), the sorted product X*Y
    (the module docstring says why it needs no sign).  The basis is the
    sorted image of _right_map(m, degree).  act and operator are Module's
    own code, which reads only the coproduct, so E sends Y to X, F sends X
    to Y, and the degree-0 and degree-2 states are inert.
    """

    __slots__ = ("m", "degree", "coproduct")

    def __init__(self, m: int, degree: int, coproduct: str = "standard"):
        _check_piece(m, degree, coproduct)
        self._store(m, degree, coproduct)

    sl_rank = 1
    act = Module.act
    operator = Module.operator

    def basis(self) -> tuple:
        return _right_map(self.m, self.degree)[3]


def slot_mono_str(mono) -> str:
    return "|".join(_SLOT_NAMES[s] for s in mono)


def slot_vec_str(vec: dict) -> str:
    if not vec:
        return "0"
    # sorted by slot names, i.e. in the order 1 < X < Y < YX per slot
    items = sorted(vec.items(), key=lambda kv: [_SLOT_NAMES[s] for s in kv[0]])
    parts = [f"({c.text()})*{slot_mono_str(m)}" for m, c in items]
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# the Howe space


def blocks(m: int, N: int) -> list[tuple[int, int]]:
    """The (k, l) with k + l = N and k, l <= m: the U_q(sl_2) weight spaces
    wedge^k (x) wedge^l of the degree-N piece, in increasing k."""
    return [(k, N - k) for k in range(max(0, N - m), min(m, N) + 1)]


class HoweSpace(Frozen):
    """Degree-N piece, with its (k, l) weight-space decomposition."""

    __slots__ = ("m", "N", "coproduct")

    def __init__(self, m: int, N: int, coproduct: str = "standard"):
        _check_piece(m, N, coproduct)
        self._store(m, N, coproduct)

    def basis(self) -> tuple:
        return _right_map(self.m, self.N)[0]

    def block_basis(self, k: int, l: int) -> tuple:
        """The basis of the (k, l) block, or () if (k, l) is not a block."""
        if (k, l) not in blocks(self.m, self.N):
            return ()
        return self.block_module(k, l).basis()

    def block_module(self, k: int, l: int) -> Module:
        return Module(self.m, (k, l), self.coproduct)

    def slot_module(self) -> SlotModule:
        return SlotModule(self.m, self.N, self.coproduct)

    # -- structural isomorphisms ------------------------------------------

    def iso_right(self, hm) -> tuple[int, tuple]:
        """(sign, slot monomial) of a basis monomial (S, T), read from the right map."""
        right = _right_map(self.m, self.N)[1]
        if hm not in right:
            raise ValueError(f"(S, T) = {hm} is not in the basis at m={self.m}, N={self.N}")
        return right[hm]

    def to_slots(self, vec: dict) -> dict:
        """A Howe-basis vector in the slot basis, relabelled through the right map."""
        out = {}
        for hm, c in vec.items():
            sign, slots = self.iso_right(hm)
            out[slots] = c if sign == 1 else -c
        return out

    def from_slot_op(self, op: SparseOp) -> SparseOp:
        """A degree-N slot-module operator in the Howe basis: each label of op
        relabelled by the inverse map, each entry times its row and column
        signs (so no zero appears).  A label outside the basis raises KeyError."""
        inverse = _right_map(self.m, self.N)[2]
        cols = {}
        for slots, col in op.cols.items():
            sign, hm = inverse[slots]
            cols[hm] = out = {}
            for r, v in col.items():
                rsign, rhm = inverse[r]
                out[rhm] = v if rsign == sign else unit_product(_MINUS_ONE, v)
        return SparseOp._make(cols)

    # -- the two actions ----------------------------------------------------

    def slm_op(self, i: int) -> dict:
        """{kind: U_q(sl_m) generator} at index i on the whole degree piece,
        E, F, K and K^(-1) from one Module.generators pass, built on each
        call: its one caller asks for each index once.  The action reads no
        block degrees, so one Module(m, (None, None)) serves every block."""
        module = Module(self.m, (None, None), self.coproduct)
        return module.generators(i, self.basis())

    def sl2_op(self, kind: str) -> SparseOp:
        """U_q(sl_2) generator: the cached slot-module generator, transported."""
        return self.from_slot_op(self.slot_module().operator(kind, 1))


@cached("howe_basis")
def _right_map(m: int, N: int) -> tuple:
    """The sorted basis of HoweSpace(m, N), the right map {(S, T): (sign,
    slots)}, its inverse {slots: (sign, (S, T))} and its sorted image, the
    basis of SlotModule(m, N), built once per (m, N) for every coproduct."""
    basis = tuple(sorted(hm for k, l in blocks(m, N) for hm in Module(m, (k, l)).basis()))
    right = {}
    for S, T in basis:
        sign = -1 if sum(1 for a in S for b in T if a < b) % 2 else 1
        right[S, T] = sign, tuple(_SLOT_STATE[p in S][p in T] for p in range(1, m + 1))
    inverse = {slots: (sign, hm) for hm, (sign, slots) in right.items()}
    return basis, right, inverse, tuple(sorted(inverse))


def howe_mono_str(hm) -> str:
    S, T = hm
    body = "".join(f"Y{i}" for i in S) + "".join(f"X{j}" for j in T)
    return body or "1"


# ---------------------------------------------------------------------------
# distinguished lowest weight vectors


def family_weight(m: int, N: int, i: int) -> tuple[int, ...]:
    """GL_m weight of the i-th lowest-weight family: (0,..,0,1,..,1,2,..,2)
    with i twos, N-2i ones."""
    return (0,) * (m - N + i) + (1,) * (N - 2 * i) + (2,) * i


def leading_monomial(m: int, i: int, k: int, l: int) -> tuple:
    """Index recipe for the distinguished monomial of v_i^{k,l}:
    Y_{m-k-l+i+1}..Y_{m-l} Y_{m-i+1}..Y_m X_{m-l+1}..X_m."""
    S = tuple(range(m - k - l + i + 1, m - l + 1)) + tuple(range(m - i + 1, m + 1))
    T = tuple(range(m - l + 1, m + 1))
    return (S, T)


@cached("lwv")
def lowest_weight_vector(space: HoweSpace, i: int, k: int, l: int) -> dict:
    """The sl_m lowest-weight vector of the i-th family in the (k, l) block,
    normalized so its distinguished monomial has coefficient 1."""
    m, N = space.m, space.N
    if (i, k, l) not in admissible_families(m, N):
        raise ValueError(f"no lowest-weight family i={i}, k={k}, l={l} at m={m}, N={N}")
    mod = space.block_module(k, l)
    sols = singular_vectors(mod, family_weight(m, N, i))
    if len(sols) != 1:
        raise ValueError(
            f"expected a unique lowest weight vector, found {len(sols)} "
            f"(i={i}, k={k}, l={l}, m={m})"
        )
    vec = sols[0]
    lead = leading_monomial(m, i, k, l)
    c = vec.get(lead)
    if c is None:
        raise ValueError(f"distinguished monomial {lead} has zero coefficient")
    if not c.is_unit():
        raise ValueError(f"distinguished coefficient {c} is not a unit")
    return vec_scale(c.unit_inverse(), vec)


def admissible_families(m: int, N: int):
    """The (i, k, l) of the lowest-weight families: 0 <= i <= min(k, l) on a
    block (k, l), with k + l <= m + i so that family_weight is a GL_m weight."""
    for k, l in blocks(m, N):
        for i in range(min(k, l) + 1):
            if k + l <= m + i:
                yield i, k, l


# ---------------------------------------------------------------------------
# verification suites


def verify_commuting(m: int, N: int, conv: Conventions) -> list[CheckResult]:
    """[sl_m generator, sl_2 generator] = 0 on the whole degree piece, under
    the coproduct of conv.

    SparseOp.commutes_with decides each pair from the diagonals that
    SparseOp.diagonal memoizes on each operator; of the 16 pairs at each i,
    the 4 of K^(+-1) with K^(+-1) are both diagonal and commute with no scan,
    and the 8 with one K^(+-1) compare its eigenvalues at the two ends of
    every nonzero entry of the other side, which over the domain Z[q^(1/D)]
    is exactly a @ b == b @ a.  The 4 of E or F with E or F form both
    products (unless one is the zero operator, which is diagonal too), and
    on a failure check_equal names the first entry in which they differ."""
    space = HoweSpace(m, N, conv.coproduct)
    out = []
    sl2 = [(kb, space.sl2_op(kb)) for kb in (GEN_E, GEN_F, GEN_K, GEN_KINV)]
    for i in range(1, m):
        for ka, a in space.slm_op(i).items():
            for kb, b in sl2:
                params = {"m": m, "N": N, "slm": f"{ka}{i}", "sl2": kb.lower()}
                if a.commutes_with(b):
                    out.append(check("howe.commuting", params, True))
                else:
                    out.append(
                        check_equal("howe.commuting", params, a @ b, b @ a, howe_mono_str,
                                    f"[{ka}{i}, {kb}]")
                    )
    if m == 1:
        out.append(check("howe.commuting", {"m": m, "N": N}, True))
    return out


def sq_sum(n: int) -> Laurent:
    """Direct S_n enumeration of the divided-power leading coefficient:
    (1/[n]!) sum over permutations of prod_j q^(2 #{a<j: s(a)<s(j)} - (j-1)).

    Evaluates to 1 for every n.
    """
    total = ZERO
    for sigma in permutations(range(n)):
        e = 0
        for j in range(n):
            e += 2 * sum(1 for a in range(j) if sigma[a] < sigma[j]) - j
        total = total + Laurent.q(e)
    return total.divexact(qfact(n))


def tilde_vector(space: HoweSpace, i: int, k: int, l: int) -> dict:
    """The slot-module image of v_i^{k,l}, normalized to coefficient 1 on the
    distinguished slot monomial 1..1 Y..Y X..X YX..YX.  That monomial is the
    right-map image of leading_monomial, where v_i^{k,l} has coefficient 1,
    so the normalization is the sign of the right map there.  An (i, k, l)
    that is no family raises lowest_weight_vector's ValueError."""
    w = space.to_slots(lowest_weight_vector(space, i, k, l))
    sign, _ = space.iso_right(leading_monomial(space.m, i, k, l))
    return w if sign == 1 else {s: -c for s, c in w.items()}


def verify_divided_transport(m: int, N: int, i: int, k: int, l: int,
                             conv: Conventions) -> list[CheckResult]:
    """The divided-power recursion between distinguished vectors, under the
    coproduct of conv: F^(k-i) applied to the (i, N-i) vector and E^(l-i)
    applied to the (N-i, i) vector both reproduce the (k, l) vector exactly,
    and the permutation-sum identity for the leading coefficient evaluates
    to 1."""
    space = HoweSpace(m, N, conv.coproduct)
    slot = space.slot_module()
    params = {"m": m, "N": N, "i": i, "k": k, "l": l}
    target = tilde_vector(space, i, k, l)
    out = []
    for id, kind, r, src in (
        ("howe.divided_transport.f", GEN_F, k - i, tilde_vector(space, i, i, N - i)),
        ("howe.divided_transport.e", GEN_E, l - i, tilde_vector(space, i, N - i, i)),
    ):
        got = act_divided(slot, kind, 1, r, src)
        out.append(check(id, params, got == target,
                         lambda: f"{kind}^({r}) gave {slot_vec_str(got)}"))
    s = sq_sum(k - i)
    out.append(check("howe.sq_sum", {"n": k - i}, s == ONE,
                     lambda: f"sum evaluated to {s.text()}"))
    return out
