"""Exact bookkeeping for the lattice flag varieties behind the sl_2 action:
dimensions and codimensions via iterated Grassmannian fibrations, canonical
classes in the determinant-line-bundle lattice, and adjunction shifts.

A FlagSpec is a chain L_0 c L_1 c ... c L_p of lattices above the standard
one, with jump sizes and conditions z L_i c L_j.  Forgetting a chain member
whose conditions are implied by the remaining ones exhibits the variety as
a Grassmannian bundle.  `walks` follows every admissible complete forgetting
order and records the fibre of each step: dimensions are sums of fibre
dimensions, on which all walks must agree, and canonical classes accumulate
the relative canonical bundle det(S)^dim(Q) det(Q)^(-dim(S)) of each step.
On the m <= 6 grid Y, Y3 and W have one order each, X1 has three and X2 and
X12 two, so their codimension checks also test order independence.

The twist calculus uses det(z^(-1)L_j / L_i) = det(L_i/L_j)^(-1) {2 b_j + 2m}
for L_j c L_i (rank b_j over the base lattice).
"""

from __future__ import annotations

from math import comb
from types import MappingProxyType
from typing import NamedTuple

from ._value import Frozen
from .qmodule import cached
from .qring import qbinom
from .report import CheckResult, check

INF = 10**9


class NonFiberedError(ValueError):
    """No admissible forgetting order exhibits the spec as an iterated
    Grassmannian bundle."""


class FlagSpec(Frozen):
    """Chain with jump sizes steps[0..p-1] and conditions z L_i c L_j (j < i).

    Indices are 1-based chain positions; index 0 is the fixed base lattice.
    Jump sizes and indices are ints, not bools.
    Jumps of size zero are allowed (degenerate chains arising at the edges
    of parameter grids).
    """

    __slots__ = ("m", "steps", "conds")

    def __init__(self, m: int, steps: tuple[int, ...], conds: frozenset):
        p = len(steps)
        if any(type(s) is not int or s < 0 for s in steps):
            raise ValueError(f"negative jump size in steps={steps}")
        for i, j in conds:
            if type(i) is not int or type(j) is not int or not 0 <= j < i <= p:
                raise ValueError(f"bad condition ({i}, {j}): need 0 <= j < i <= p={p}")
        self._store(m, steps, conds)

    @property
    def p(self) -> int:
        return len(self.steps)

    def b(self, j: int) -> int:
        """Rank of L_j over the base lattice."""
        return sum(self.steps[:j])


def make_spec(m: int, steps, conds) -> FlagSpec:
    return FlagSpec(m, tuple(steps), frozenset(conds))


def spec_y(m: int, k: int, l: int) -> FlagSpec:
    return make_spec(m, (k, l), {(1, 0), (2, 1)})


def spec_y3(m: int, a: int, b: int, c: int) -> FlagSpec:
    return make_spec(m, (a, b, c), {(1, 0), (2, 1), (3, 2)})


def spec_x1(m: int, a: int, b: int, c: int) -> FlagSpec:
    return make_spec(m, (a, b, c), {(1, 0), (2, 1), (3, 2), (2, 0)})


def spec_x2(m: int, a: int, b: int, c: int) -> FlagSpec:
    return make_spec(m, (a, b, c), {(1, 0), (2, 1), (3, 2), (3, 1)})


def spec_x12(m: int, a: int, b: int, c: int) -> FlagSpec:
    return make_spec(m, (a, b, c), {(1, 0), (2, 1), (3, 2), (2, 0), (3, 1)})


def spec_w(m: int, k: int, l: int, r: int) -> FlagSpec:
    """The divided-power correspondence: jumps (k, r, l-r) with
    z L_1' c L_0 and z L_2 c L_1."""
    return make_spec(m, (k, r, l - r), {(2, 0), (3, 1)})


# ---------------------------------------------------------------------------
# forgetting-order walks


def _removal_step(spec: FlagSpec, survivors: tuple[int, ...], caps: dict[int, int], i: int):
    """(fibre_dim, kind, data) for forgetting L_i from the survivors, or None
    if not admissible; caps[j] is the binding cap of z L_j.  Kind "mid" has
    data (prev, nxt), a Grassmannian between neighbours; kind "top" has data
    (prev, cap), a z-capped top removal."""
    if any(caps[j] == i for j in survivors if j != i):
        return None
    pos = survivors.index(i)
    prev = survivors[pos - 1] if pos > 0 else 0
    s = spec.b(i) - spec.b(prev)
    if pos == len(survivors) - 1:
        cap = caps[i]
        if cap >= i:
            return None  # unbounded top member
        n = spec.m + spec.b(cap) - spec.b(prev)
        if not 0 <= s <= n:
            return None
        return s * (n - s), "top", (prev, cap)
    nxt = survivors[pos + 1]
    if caps[i] < caps[nxt]:
        return None  # own condition binds strictly inside the neighbour fibre
    t = spec.b(nxt) - spec.b(i)
    return s * t, "mid", (prev, nxt)


def _walks(spec: FlagSpec, own: dict, survivors: tuple, order: tuple, steps: tuple):
    """(order, steps) of each admissible completion of order, survivors in increasing order."""
    if not survivors:
        yield order, steps
        return
    caps, cap = {}, INF
    for j in reversed(survivors):
        cap = caps[j] = min(cap, own[j])
    for i in survivors:
        step = _removal_step(spec, survivors, caps, i)
        if step is not None:
            yield from _walks(spec, own, tuple(j for j in survivors if j != i), order + (i,),
                              steps + ((i, *step),))


@cached("walks")
def walks(spec: FlagSpec) -> MappingProxyType:
    """Every admissible complete forgetting order -> its walk, the steps
    (i, fibre_dim, kind, data) forgetting each L_i in turn.  Forgetting L_i
    drops the conditions on z L_i, so the binding caps (least condition target
    on z L_j' for j' >= j) depend only on the survivors and are computed once
    per node.  Cached per spec (kind "walks") as a read-only map of tuples.
    Its recursion _walks is module-level, so a walk leaves no reference cycle."""
    own = {i: INF for i in range(1, spec.p + 1)}
    for i, j in spec.conds:
        own[i] = min(own[i], j)
    return MappingProxyType(dict(_walks(spec, own, tuple(range(1, spec.p + 1)), (), ())))


def _on_every_walk(spec: FlagSpec, value):
    """value(steps) on every walk of spec, which must all agree;
    NonFiberedError if spec has no walk."""
    values = list(dict.fromkeys(value(steps) for steps in walks(spec).values()))
    if not values:
        raise NonFiberedError(f"no admissible forgetting order for {spec}")
    if len(values) != 1:
        raise AssertionError(f"forgetting orders disagree: {values}")
    return values[0]


def dim_flag(spec: FlagSpec) -> int:
    """Dimension as the sum of Grassmannian fibre dimensions, the same on
    every walk."""
    return _on_every_walk(spec, lambda steps: sum(step[1] for step in steps))


def w_ranks(m: int, k: int, l: int) -> range:
    """The r with a correspondence W(k, l, r): 0 <= r <= l and k + r <= m."""
    return range(0, min(l, m - k) + 1)


# ---------------------------------------------------------------------------
# determinant line bundle classes


class LineBundleClass(NamedTuple):
    """Integer exponents on the consecutive quotients det(L_j/L_{j-1}),
    j = 1..p, plus an integer equivariant twist."""

    exps: tuple[int, ...]
    twist: int = 0

    def __mul__(self, other: "LineBundleClass") -> "LineBundleClass":
        return LineBundleClass(
            tuple(a + b for a, b in zip(self.exps, other.exps)),
            self.twist + other.twist,
        )

    def inverse(self) -> "LineBundleClass":
        return LineBundleClass(tuple(-a for a in self.exps), -self.twist)

    def power(self, n: int) -> "LineBundleClass":
        return LineBundleClass(tuple(n * a for a in self.exps), n * self.twist)

    def twisted(self, t: int) -> "LineBundleClass":
        return LineBundleClass(self.exps, self.twist + t)

    def text(self) -> str:
        parts = [
            f"det(L{j + 1}/L{j})^{e}" for j, e in enumerate(self.exps) if e
        ]
        body = " ".join(parts) if parts else "O"
        return f"{body} {{{self.twist}}}"


def det_quotient(spec: FlagSpec, i: int, j: int) -> LineBundleClass:
    """det(L_i / L_j) for j <= i, telescoped onto consecutive quotients."""
    if not 0 <= j <= i <= spec.p:
        raise ValueError(f"need 0 <= j <= i <= p: j={j}, i={i}, p={spec.p}")
    exps = tuple(1 if j < t <= i else 0 for t in range(1, spec.p + 1))
    return LineBundleClass(exps, 0)


def det_z_quotient(spec: FlagSpec, j: int, i: int) -> LineBundleClass:
    """det(z^(-1) L_j / L_i) for L_j c L_i: det(L_i/L_j)^(-1) {2 b_j + 2m}."""
    if not 0 <= j <= i <= spec.p:
        raise ValueError(f"need L_j c L_i in the chain: j={j}, i={i}, p={spec.p}")
    return det_quotient(spec, i, j).inverse().twisted(2 * spec.b(j) + 2 * spec.m)


def canonical_class(spec: FlagSpec) -> LineBundleClass:
    """Canonical class as the product of the relative canonical bundles
    det(S)^dim(Q) det(Q)^(-dim(S)) along a walk, the same on every walk."""
    return _on_every_walk(spec, lambda steps: _class_along(spec, steps))


def _class_along(spec: FlagSpec, steps) -> LineBundleClass:
    total = LineBundleClass((0,) * spec.p)
    for i, _, kind, data in steps:
        prev = data[0]
        det_s = det_quotient(spec, i, prev)
        rank_s = spec.b(i) - spec.b(prev)
        if kind == "mid":
            nxt = data[1]
            det_q = det_quotient(spec, nxt, i)
            rank_q = spec.b(nxt) - spec.b(i)
        else:
            cap = data[1]
            det_q = det_z_quotient(spec, cap, i)
            rank_q = spec.m + spec.b(cap) - spec.b(i)
        total = total * det_s.power(rank_q) * det_q.power(-rank_s)
    return total


# ---------------------------------------------------------------------------
# verification suites


def verify_dims(m: int, k: int, l: int) -> list[CheckResult]:
    out = []
    dy = dim_flag(spec_y(m, k, l))
    out.append(
        check(
            "geom.dim_y",
            {"m": m, "k": k, "l": l},
            dy == k * (m - k) + l * (m - l),
            lambda: f"dim = {dy}",
        )
    )
    for r in w_ranks(m, k, l):
        dw = dim_flag(spec_w(m, k, l, r))
        dy2 = dim_flag(spec_y(m, k + r, l - r))
        ok = 2 * dw == dy + dy2
        out.append(
            check(
                "geom.dim_w",
                {"m": m, "k": k, "l": l, "r": r},
                ok,
                lambda: f"2*dim W = {2 * dw}, dim Y(k,l) + dim Y(k+r,l-r) = {dy + dy2}",
            )
        )
    return out


def codim_checks(m: int, a: int, b: int, c: int) -> list[CheckResult]:
    """codim X_1 = ab, codim X_2 = bc, and the intersection spec has
    dimension dim Y(a,b,c) - ab - bc."""
    if a + b + c > m:
        raise ValueError(f"need a + b + c <= m: m={m}, a={a}, b={b}, c={c}")
    out = []
    dy = dim_flag(spec_y3(m, a, b, c))
    d1 = dim_flag(spec_x1(m, a, b, c))
    d2 = dim_flag(spec_x2(m, a, b, c))
    d12 = dim_flag(spec_x12(m, a, b, c))
    params = {"m": m, "a": a, "b": b, "c": c}
    out.append(check("geom.codim_x1", params, dy - d1 == a * b, lambda: f"codim = {dy - d1}"))
    out.append(check("geom.codim_x2", params, dy - d2 == b * c, lambda: f"codim = {dy - d2}"))
    out.append(
        check(
            "geom.codim_intersection",
            params,
            dy - d12 == a * b + b * c,
            lambda: f"codim = {dy - d12}",
        )
    )
    return out


def canonical_y(m: int, k: int, l: int) -> LineBundleClass:
    """Expected canonical class det(L_2/L_0)^m {-2m(k+l) - 2kl}."""
    spec = spec_y(m, k, l)
    return det_quotient(spec, 2, 0).power(m).twisted(-2 * m * (k + l) - 2 * k * l)


def canonical_w(m: int, k: int, l: int, r: int) -> LineBundleClass:
    """Expected det(L_2/L_0)^m det(L_2/L_1')^(-r) det(L_1/L_0)^r
    det(L_1'/L_1)^(l-k-r) {-2m(k+l) - 2k(l-r)} on the chain (k, r, l-r)."""
    spec = spec_w(m, k, l, r)
    cls = (
        det_quotient(spec, 3, 0).power(m)
        * det_quotient(spec, 3, 2).power(-r)
        * det_quotient(spec, 1, 0).power(r)
        * det_quotient(spec, 2, 1).power(l - k - r)
    )
    return cls.twisted(-2 * m * (k + l) - 2 * k * (l - r))


def verify_canonical(m: int, k: int, l: int) -> list[CheckResult]:
    out = []
    got = canonical_class(spec_y(m, k, l))
    want = canonical_y(m, k, l)
    out.append(
        check(
            "geom.canonical_y",
            {"m": m, "k": k, "l": l},
            got == want,
            lambda: f"got {got.text()}, want {want.text()}",
        )
    )
    for r in w_ranks(m, k, l):
        got = canonical_class(spec_w(m, k, l, r))
        want = canonical_w(m, k, l, r)
        out.append(
            check(
                "geom.canonical_w",
                {"m": m, "k": k, "l": l, "r": r},
                got == want,
                lambda: f"got {got.text()}, want {want.text()}",
            )
        )
    return out


def kernel_class_e(m: int, k: int, l: int, r: int) -> LineBundleClass:
    """Line bundle and twist of the raising kernel on the chain (k, r, l-r):
    det(L_2/L_1')^(-r) det(L_1/L_0)^r {rk}; homological degree 0."""
    spec = spec_w(m, k, l, r)
    cls = det_quotient(spec, 3, 2).power(-r) * det_quotient(spec, 1, 0).power(r)
    return cls.twisted(r * k)


def kernel_class_f(m: int, k: int, l: int, r: int) -> LineBundleClass:
    """det(L_1'/L_1)^(l-k-r) {r(l-r)}; homological degree 0."""
    spec = spec_w(m, k, l, r)
    return det_quotient(spec, 2, 1).power(l - k - r).twisted(r * (l - r))


def _pull_y_source(cls: LineBundleClass) -> LineBundleClass:
    """Pull a class on the (k, l) base through (L_0, L_1, L_2): generator 1
    maps to g_1, generator 2 to g_2 g_3."""
    e1, e2 = cls.exps
    return LineBundleClass((e1, e2, e2), cls.twist)


def _pull_y_target(cls: LineBundleClass) -> LineBundleClass:
    """Pull a class on the (k+r, l-r) base through (L_0, L_1', L_2)."""
    e1, e2 = cls.exps
    return LineBundleClass((e1, e1, e2), cls.twist)


def adjunction_shifts(m: int, k: int, l: int, r: int) -> list[CheckResult]:
    """The right and left adjoints of the lowering kernel are the raising
    kernel with homological/equivariant shift +-r(k-l+r), resp. -+r(l-k-r).

    Recomputed symbolically: adjoint = kernel^(-1) * omega_W * (pullback of
    the appropriate omega_Y)^(-1), with homological shift dim W - dim Y."""
    if not (0 <= k <= m and 0 <= l <= m and r in w_ranks(m, k, l)):
        raise ValueError(f"parameters out of range: m={m}, k={k}, l={l}, r={r}")
    spec = spec_w(m, k, l, r)
    out = []
    params = {"m": m, "k": k, "l": l, "r": r}

    omega_w = canonical_class(spec)
    f_cls = kernel_class_f(m, k, l, r)
    e_cls = kernel_class_e(m, k, l, r)
    dim_w = dim_flag(spec)
    dim_src = dim_flag(spec_y(m, k, l))
    dim_tgt = dim_flag(spec_y(m, k + r, l - r))

    shift_r = r * (k - l + r)
    out.append(
        check(
            "geom.adjunction_dim_identity",
            params,
            dim_w - dim_tgt == shift_r,
            lambda: f"dim W - dim Y(k+r, l-r) = {dim_w - dim_tgt}, want {shift_r}",
        )
    )

    omega_tgt = _pull_y_target(canonical_y(m, k + r, l - r))
    right = f_cls.inverse() * omega_w * omega_tgt.inverse()
    want_right = e_cls.twisted(-shift_r)
    out.append(
        check(
            "geom.adjunction_right",
            params,
            right == want_right,
            lambda: f"got {right.text()}, want {want_right.text()}",
        )
    )

    shift_l = r * (l - k - r)
    omega_src = _pull_y_source(canonical_y(m, k, l))
    left = f_cls.inverse() * omega_w * omega_src.inverse()
    want_left = e_cls.twisted(-shift_l)
    out.append(
        check(
            "geom.adjunction_left",
            params,
            left == want_left and dim_w - dim_src == shift_l,
            lambda: f"got {left.text()}, want {want_left.text()}",
        )
    )
    return out


def fiber_bundle_facts(m: int, k: int, l: int) -> list[CheckResult]:
    """Generic fibre and image codimension of the two projections of the
    one-step correspondence, and the Betti count of the (k, l) block."""
    out = []
    params = {"m": m, "k": k, "l": l}
    if k < l and k + 1 <= m:
        dw = dim_flag(spec_w(m, k, l, 1))
        dy1 = dim_flag(spec_y(m, k, l))
        dy2 = dim_flag(spec_y(m, k + 1, l - 1))
        out.append(
            check(
                "geom.pi1_fibre",
                params,
                dw - dy1 == l - k - 1,
                lambda: f"fibre dim = {dw - dy1}, want {l - k - 1}",
            )
        )
        out.append(
            check(
                "geom.pi2_image_codim",
                params,
                dy2 - dw == l - k - 1,
                lambda: f"codim = {dy2 - dw}, want {l - k - 1}",
            )
        )
    betti = (qbinom(m, k) * qbinom(m, l)).at_one()
    out.append(
        check(
            "geom.betti_count",
            params,
            betti == comb(m, k) * comb(m, l),
            lambda: f"q-count {betti} vs binomial product {comb(m, k) * comb(m, l)}",
        )
    )
    return out
