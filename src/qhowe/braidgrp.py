"""Quantum Weyl group elements, the R-matrix, and the braiding.

There are four rank-one variants t (F-E-F or E-F-E order, sign e = +-1).
Each is its matrix on V(1), the same under both coproducts:

    fef e:  X1 -> X2,           X2 -> -q^e X1
    efe e:  X1 -> -q^e X2,      X2 -> X1

In the tests these are defined by Lusztig's triple divided-power sum
(-1)^b q^(e(b - ac)) F^(a) E^(b) F^(c) (or E F E), run on whole modules as
the oracle of everything built here.  t is built only on the base modules
V(1)^(x)j = Module(2, (1,) * j), by _weyl_base: the identity at j = 0, the
matrix above at j = 1, and for j >= 2 the rank-one case of the coproduct
formula for a Weyl element: t_j is t_(j-1) (x) t_1 times 1 + c E (x) F,
c = q^e - q^-e, on the left for e = -1 and on the right for e = +1, with
E (x) F under the standard coproduct (the quasi-R-matrix series stops
there, as F^2 = 0 on the last factor V(1)).  Neither the order fef/efe
nor the coproduct enters.  The flipped coproduct is the standard one
conjugated by Theta = q^(-H (x) H/2), the scalar q^(-(lam^2 - j)/4) on
sl_2 weight lam, so the flipped E, F and triple sum are the standard ones
conjugated by Theta; as t maps weight lam to -lam, where Theta is the
same, Theta t Theta^(-1) = t.  So t_w0 and the Howe-side t are one
operator under both coproducts, and no builder takes one.  The bases
are cached once per (j, variant), each with 2^j columns, for every j up
to the largest asked for.

By the active-factor rule of qmodule, an inert factor passes through
the coproduct untouched and an active one is a copy of V(1) whose
i <-> i+1 swap adds no sign.  So t_i on any module, the slot module and
the bases themselves included, is t on V(1)^(x)j relabelled, with j the
number of active factors of the monomial.

The default variant is the constant fef-1 (selected_variant): the unique
one that passes this module's own suites verify_eq_comm and
verify_hightolow at (m, d) = (2, 1), on the two-dimensional module:

    t F = -E K t,   t E = -K^(-1) F t,   t K = K^(-1) t

and t(highest weight vector) = lowest weight vector with coefficient 1.
Those suites are the only place the relations are written, and every
report runs them on the variant it states, so a wrong t fails them.
The longest element t_w0 is the composition of rank-one elements along a
reduced word; it is independent of the word (braid relations).

The R-matrix on wedge^k (x) wedge^l is the quasi-R product

    R = q^(H (x) H) o prod_(a<c) (1 + (q - q^-1) E_(a,c) (x) F_(a,c))

over the positive roots in lexicographic order, leftmost first (Jimbo,
Lett. Math. Phys. 11 (1986); Kirillov-Reshetikhin, CMP 134 (1990)), where
q^(H (x) H) multiplies a weight-(mu, nu) tensor by q^((mu, nu)) with the
sl_m-normalized pairing (mu, nu) = sum mu_a nu_a - (sum mu)(sum nu)/m.  A
root vector moves one index, so E_(a,c)^2 = 0 on wedge^d and each series
stops at first order.  The root vectors, in closed form (root_vectors), act
on one wedge factor, so R takes no coproduct, no variant and no piece of t.
It equals the half-twist factorization q^(H (x) H) o (t_w0 (x) t_w0) o
t_w0^(-1) under fef-1: a tier-1 test, not a run-time check.  The braiding
is flip o R.

On each wedge-power block the braiding is a signed q-power times the
quantum Weyl element of the commuting sl_2 action.  Note the sign: exact
computation gives beta = (-1)^(kl+k) q^(k - kl/m) t on the (k, l) block;
a sign convention without the (-1)^k factor is inconsistent with the
half-twist value on the sl_2-invariant summands.

The verify_* suites take a run's Conventions, its coproduct for the modules
they check and its variant for t; the Weyl builders take only the variant,
R and beta take neither, and the suites build t on standard-coproduct
modules, so a run caches each t once whatever its coproduct.
"""

from __future__ import annotations

from itertools import combinations

from . import qmodule
from ._linalg import SparseOp, vec_scale
from .qmodule import (
    GEN_E, GEN_F, GEN_K, GEN_KINV, Conventions, MOVES, Module, cached,
)
from .qring import Laurent, ONE, addmul, unit_product
from .howe import (
    HoweSpace,
    SlotModule,
    admissible_families,
    howe_mono_str,
    leading_monomial,
    lowest_weight_vector,
    slot_vec_str,
    tilde_vector,
)
from .report import CheckResult, check, check_equal

VARIANTS = (("fef", 1), ("fef", -1), ("efe", 1), ("efe", -1))
ALTERNATE_WORDS = 3  # reduced words of w0 that verify_word_independence tries


def variant_name(variant) -> str:
    order, e = variant
    return f"{order}{'+' if e > 0 else '-'}1"


def parse_variant(name: str):
    for v in VARIANTS:
        if variant_name(v) == name:
            return v
    raise ValueError(f"unknown Weyl variant {name!r}")


# ---------------------------------------------------------------------------
# reduced words


def default_word(m: int) -> tuple[int, ...]:
    """(1)(2,1)(3,2,1)...; a reduced word for the longest element of S_m."""
    out = []
    for j in range(1, m):
        out.extend(range(j, 0, -1))
    return tuple(out)


def word_permutation(m: int, word) -> tuple[int, ...]:
    perm = list(range(1, m + 1))
    for i in reversed(word):
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return tuple(perm)


def is_longest_word(m: int, word) -> bool:
    return (
        len(word) == m * (m - 1) // 2
        and word_permutation(m, word) == tuple(range(m, 0, -1))
    )


def alternate_words(m: int) -> list[tuple[int, ...]]:
    """Up to ALTERNATE_WORDS distinct reduced words for the longest element,
    generated from the default word by braid and commutation moves."""
    start = default_word(m)
    seen = {start}
    frontier = [start]
    while frontier and len(seen) < ALTERNATE_WORDS + 1:
        word = frontier.pop(0)
        for p in range(len(word) - 1):
            a, b = word[p], word[p + 1]
            if abs(a - b) >= 2:
                w2 = word[:p] + (b, a) + word[p + 2:]
                if w2 not in seen:
                    seen.add(w2)
                    frontier.append(w2)
        for p in range(len(word) - 2):
            a, b, c = word[p], word[p + 1], word[p + 2]
            if a == c and abs(a - b) == 1:
                w2 = word[:p] + (b, a, b) + word[p + 3:]
                if w2 not in seen:
                    seen.add(w2)
                    frontier.append(w2)
    return sorted(seen - {start})[:ALTERNATE_WORDS]


# ---------------------------------------------------------------------------
# rank-one quantum Weyl elements


_X1, _X2 = (1,), (2,)  # the basis factors of V(1)


@cached("weyl1")
def rank1_weyl(module, i: int, variant) -> SparseOp:
    """The quantum Weyl group element t_i of the variant on an integrable module.

    A column is the V(1)^(x)j column of _weyl_base for the monomial's j
    active factors, with i <-> i+1 swapped in each factor that column flips
    (the active-factor rule of qmodule).
    """
    if not 1 <= i <= module.sl_rank:
        raise ValueError(f"Weyl element index {i} out of range 1..{module.sl_rank}")

    bases: dict = {}  # active-factor count j -> t on V(1)^(x)j
    table = MOVES[i]

    def image(mono):
        moves = [table[f] for f in mono]
        active = [p for p, (a, _) in enumerate(moves) if a]
        # the V(1)^(x)j monomial: X_1 where the factor holds X_i, else X_2
        pattern = tuple(_X1 if i in mono[p] else _X2 for p in active)
        j = len(active)
        if j not in bases:
            bases[j] = _weyl_base(j, variant)
        out = {}
        for row, c in bases[j].cols[pattern].items():
            img = list(mono)
            for p, before, after in zip(active, pattern, row):
                if before != after:
                    img[p] = moves[p][1]
            out[tuple(img)] = c
        return out

    return SparseOp({b: image(b) for b in module.basis()})


@cached("weyl1")
def _weyl_base(j: int, variant) -> SparseOp:
    """t on V(1)^(x)j, labelled by the monomials of Module(2, (1,) * j).

    The identity at j = 0, the variant's matrix at j = 1, and above that one
    sparse product of t_(j-1) (x) t_1 with E (x) F, by the rule of the
    module docstring.  Cached once per (j, variant).
    """
    order, e = variant
    if j == 0:
        return SparseOp.identity(((),))
    if j == 1:
        unit = -Laurent.q(e)
        up, down = (ONE, unit) if order == "fef" else (unit, ONE)
        return SparseOp({(_X1,): {(_X2,): up}, (_X2,): {(_X1,): down}})
    ef = tensor(Module(2, (1,) * (j - 1)).operator(GEN_E, 1), Module(2, (1,)).operator(GEN_F, 1))
    t = tensor(_weyl_base(j - 1, variant), _weyl_base(1, variant))
    correction = ef @ t if e == -1 else t @ ef
    return t + correction.scale(Laurent.q(e) - Laurent.q(-e))


def selected_variant() -> tuple:
    """The default Weyl variant, fef-1: the unique one in VARIANTS for which
    verify_hightolow and verify_eq_comm pass at (m, d) = (2, 1).  That search
    runs in tests/test_braidgrp.py::test_variant_selection_is_unique and
    scripts/convention_audit.py, never at run time."""
    return ("fef", -1)


def weyl_longest(module, word=None, *, variant) -> SparseOp:
    """t_w0 as the composition of rank-one elements along a reduced word; its
    exact inverse composes those of the other order, sign -e, along the
    reversed word."""
    m = module.sl_rank + 1
    if word is None:
        word = default_word(m)
    word = tuple(word)
    if not is_longest_word(m, word):
        raise ValueError(f"{word} is not a reduced word for the longest element of S_{m}")
    if not word:  # m = 1
        return SparseOp.identity(module.basis())
    total = rank1_weyl(module, word[0], variant)
    for i in word[1:]:
        total = total @ rank1_weyl(module, i, variant)
    return total


# ---------------------------------------------------------------------------
# the half twist


def trace_pairing(mu, nu, m: int) -> int:
    """The sl_m-normalized pairing of GL_m weights, sum mu_a nu_a -
    sum(mu) sum(nu)/m, as its numerator over m: q^(H (x) H) reads it as the
    exponent q^(num/m), so the braiding stays in integer arithmetic."""
    return m * sum(a * b for a, b in zip(mu, nu)) - sum(mu) * sum(nu)


def q_hh_op(module: Module) -> SparseOp:
    """The diagonal operator q^(H (x) H) on a two-factor module."""
    if len(module.degrees) != 2:
        raise ValueError("q^(H x H) is defined on two-factor modules")
    m = module.rank
    cols = {}
    for mono in module.basis():
        mu = module.gl_weight(mono[:1])
        nu = module.gl_weight(mono[1:])
        cols[mono] = {mono: Laurent.q(trace_pairing(mu, nu, m), m)}
    return SparseOp(cols)


def tensor(op_a: SparseOp, op_b: SparseOp) -> SparseOp:
    """op_a (x) op_b, with the labels of the two factors joined."""
    return SparseOp({
        ca + cb: {ra + rb: va * vb for ra, va in col_a.items() for rb, vb in col_b.items()}
        for ca, col_a in op_a.cols.items() for cb, col_b in op_b.cols.items()
    })


def root_vectors(m: int, d: int) -> dict:
    """{(a, c): (E_(a,c), F_(a,c))} on wedge^d(C^m), a < c, as column maps
    {S: (S', unit)}: E_(a,c) X_S = (-q^-1)^n X_(S - c + a) if c in S and a
    not in S, F_(a,c) X_S = (-q)^n X_(S - a + c) if a in S and c not in S,
    n = #{s in S : a < s < c}, and zero otherwise.  Jimbo's recursion for
    them, from E_(i,i+1) = E_i and F_(i,i+1) = F_i, runs in the tests."""
    out = {}
    for a, c in combinations(range(1, m + 1), 2):
        e, f = {}, {}
        for S in combinations(range(1, m + 1), d):
            n = sum(a < s < c for s in S)
            if c in S and a not in S:
                e[S] = (tuple(sorted({*S, a} - {c})), -Laurent.q(-n) if n % 2 else Laurent.q(-n))
            elif a in S and c not in S:
                f[S] = (tuple(sorted({*S, c} - {a})), -Laurent.q(n) if n % 2 else Laurent.q(n))
        out[a, c] = (e, f)
    return out


@cached("half_twist")
def half_twist_R(m: int, k: int, l: int) -> SparseOp:
    """R on wedge^k(C^m) (x) wedge^l(C^m) by the quasi-R product, column by
    column: the factors from the rightmost on, then q^(H (x) H).  The name
    and the cache kind are the half-twist factorization's, which R equals:
    the benchmark's tracer wraps the one and counts the other."""
    pair = Module(m, (k, l))
    eig = q_hh_op(pair).diagonal()
    left, right = root_vectors(m, k), root_vectors(m, l)
    step = Laurent.q(1) - Laurent.q(-1)
    factors = [(a, c, left[a, c][0], right[a, c][1]) for a, c in reversed(left)]
    cols = {}
    for mono in pair.basis():
        # E_(a,c) (x) F_(a,c) trades c in the left factor for a in the right:
        # it keeps their symmetric difference and acts only where a, c lie in it
        single = set(mono[0]).symmetric_difference(mono[1])
        vec = {mono: ONE}
        for a, c, e, f in factors:
            if a not in single or c not in single:
                continue
            hits = [(x, y, v) for (s, t), v in vec.items() if (x := e.get(s)) and (y := f.get(t))]
            for (s, eu), (t, fu), v in hits:
                total = addmul(vec.get((s, t)), v, step * unit_product(eu, fu))
                if total:
                    vec[s, t] = total
                else:  # a cancellation
                    del vec[s, t]
        cols[mono] = {row: unit_product(eig[row], v) for row, v in vec.items()}
    return SparseOp._make(cols)


def braiding_beta(m: int, k: int, l: int) -> SparseOp:
    """flip o R from wedge^k (x) wedge^l to wedge^l (x) wedge^k: R, row labels swapped."""
    R = half_twist_R(m, k, l)
    return SparseOp({c: {(a, b): v for (b, a), v in w.items()} for c, w in R.cols.items()})


# ---------------------------------------------------------------------------
# expected scalars


def beta_family_scalar(m: int, i: int, k: int, l: int) -> Laurent:
    """Action of the braiding on the i-th distinguished lowest weight vector:
    beta_vs_weyl_scale(m, k, l) * weyl_family_scalar(m, i, k, l).

    That is beta = scale * t restricted to the family, and it is an identity
    in (m, i, k, l): the signs (-1)^(kl+k) and (-1)^((l-i)(k-i)+kl+k) multiply
    to (-1)^((l-i)(k-i)), and the exponents add to i - (l-i)(k-i) - kl/m.
    """
    return beta_vs_weyl_scale(m, k, l) * weyl_family_scalar(m, i, k, l)


def weyl_family_scalar(m: int, i: int, k: int, l: int) -> Laurent:
    """Action of the sl_2 quantum Weyl element on the same vector:
    (-1)^((l-i)(k-i) + kl + k) q^(-(k-i)(l-i) + i - k).

    The sign differs from (-1)^((l-i)(k-i)+kl) by (-1)^k; the extra factor
    is forced by the value +1 on sl_2-invariant summands.
    """
    s = Laurent.q(-(k - i) * (l - i) + i - k)
    return -s if ((l - i) * (k - i) + k * l + k) % 2 else s


def slot_weyl_scalar(space: HoweSpace, i: int, k: int, l: int) -> Laurent:
    """t on the distinguished slot vectors: weyl_family_scalar times the
    right-map signs of leading_monomial(m, i, k, l) and of (m, i, l, k).

    The Howe Weyl element is the slot one carried across by from_slot_op,
    and tilde_vector is the slot image of v_i^{k,l} times the first sign, so
    t takes one tilde vector to the other by the family scalar times both
    signs.
    """
    s = weyl_family_scalar(space.m, i, k, l)
    sign_kl, _ = space.iso_right(leading_monomial(space.m, i, k, l))
    sign_lk, _ = space.iso_right(leading_monomial(space.m, i, l, k))
    return s if sign_kl == sign_lk else -s


def beta_vs_weyl_scale(m: int, k: int, l: int) -> Laurent:
    """beta = scale * t on the (k, l) block: (-1)^(kl+k) q^(k - kl/m)."""
    s = Laurent.q(k * m - k * l, m)
    return -s if (k * l + k) % 2 else s


# ---------------------------------------------------------------------------
# verification suites


@cached("howe_weyl")
def howe_weyl_op(m: int, N: int, variant) -> SparseOp:
    """The sl_2 quantum Weyl element on the whole degree-N Howe space."""
    space = HoweSpace(m, N)
    return space.from_slot_op(weyl_longest(space.slot_module(), variant=variant))


def verify_beta_t_theorem(m: int, k: int, l: int, conv: Conventions) -> list[CheckResult]:
    """beta and the sl_2 Weyl element agree up to (-1)^(kl+k) q^(k-kl/m)."""
    space = HoweSpace(m, k + l, conv.coproduct)
    beta = braiding_beta(m, k, l)
    t = howe_weyl_op(m, k + l, conv.variant).restrict(space.block_basis(k, l))
    scale = beta_vs_weyl_scale(m, k, l)
    params = {
        "m": m,
        "k": k,
        "l": l,
        "scale": scale.text(),
        "sign_flipped_vs_naive": bool(k % 2),
    }
    return [
        check_equal("braiding.beta_eq_scaled_weyl", params, beta, t.scale(scale),
                    howe_mono_str, "beta")
    ]


def verify_eq_comm(m: int, d: int, conv: Conventions) -> list[CheckResult]:
    """The longest Weyl element conjugates Chevalley generators by
    t F_i = -E_(m-i) K_(m-i) t,  t E_i = -K_(m-i)^(-1) F_(m-i) t,
    t K_i = K_(m-i)^(-1) t  on the d-th wedge power.

    The K relation uses the inverse on the right, which is what the first
    two relations force.
    """
    mod = Module(m, (d,), conv.coproduct)
    t = weyl_longest(Module(m, (d,)), variant=conv.variant)
    out = []
    for i in range(1, m):
        j = m - i
        e_j = mod.operator(GEN_E, j)
        f_j = mod.operator(GEN_F, j)
        k_j = mod.operator(GEN_K, j)
        ki_j = mod.operator(GEN_KINV, j)
        relations = [
            (GEN_F, -((e_j @ k_j) @ t)),
            (GEN_E, -((ki_j @ f_j) @ t)),
            (GEN_K, ki_j @ t),
        ]
        for kind, want in relations:
            out.append(
                check_equal("braiding.weyl_comm", {"m": m, "d": d, "i": i, "relation": kind},
                            t @ mod.operator(kind, i), want, qmodule.mono_str, f"t {kind}_{i}")
            )
    return out


def verify_hightolow(m: int, d: int, conv: Conventions) -> list[CheckResult]:
    """t_w0 sends the highest weight monomial of each wedge power to the
    lowest one with coefficient exactly 1."""
    t = weyl_longest(Module(m, (d,)), variant=conv.variant)
    hi = (tuple(range(1, d + 1)),)
    lo = (tuple(range(m - d + 1, m + 1)),)
    got = t.apply({hi: ONE})
    ok = got == {lo: ONE}
    return [
        check(
            "braiding.high_to_low",
            {"m": m, "d": d},
            ok,
            lambda: f"t({qmodule.mono_str(hi)}) = {qmodule.vec_str(got)}",
        )
    ]


def verify_braid_relations(m: int, d: int, conv: Conventions) -> list[CheckResult]:
    mod = Module(m, (d,))
    out = []
    ts = {i: rank1_weyl(mod, i, conv.variant) for i in range(1, m)}
    for i in range(1, m):
        for j in range(i + 1, m):
            if j == i + 1:
                got, want = ts[i] @ ts[j] @ ts[i], ts[j] @ ts[i] @ ts[j]
                rel, what = "titjti=tjtitj", f"t_{i} t_{j} t_{i}"
            else:
                got, want = ts[i] @ ts[j], ts[j] @ ts[i]
                rel, what = "titj=tjti", f"t_{i} t_{j}"
            params = {"m": m, "d": d, "i": i, "j": j, "relation": rel}
            out.append(
                check_equal("braiding.braid_relation", params, got, want, qmodule.mono_str, what)
            )
    return out


def verify_word_independence(m: int, d: int, conv: Conventions) -> list[CheckResult]:
    mod = Module(m, (d,))
    base = weyl_longest(mod, variant=conv.variant)
    out = []
    for word in alternate_words(m):
        out.append(
            check_equal("braiding.word_independence", {"m": m, "d": d, "word": list(word)},
                        weyl_longest(mod, word=word, variant=conv.variant), base,
                        qmodule.mono_str, "t_w0")
        )
    if m < 3:
        out.append(check("braiding.word_independence", {"m": m, "d": d, "word": "default"}, True))
    return out


def verify_family_scalars(m: int, N: int, conv: Conventions) -> list[CheckResult]:
    """Both operators act on the distinguished lowest weight vectors by the
    expected signed q-powers, and the slot-level Weyl scalar matches."""
    space = HoweSpace(m, N, conv.coproduct)
    t_howe = howe_weyl_op(m, N, conv.variant)
    t_slot = rank1_weyl(SlotModule(m, N), 1, conv.variant)
    out = []
    for i, k, l in admissible_families(m, N):
        params = {"m": m, "N": N, "i": i, "k": k, "l": l}
        v_kl = lowest_weight_vector(space, i, k, l)
        v_lk = lowest_weight_vector(space, i, l, k)
        beta = braiding_beta(m, k, l)
        table = (
            ("braiding.beta_on_family", "beta", beta, v_kl, v_lk,
             beta_family_scalar(m, i, k, l), qmodule.vec_str),
            ("braiding.weyl_on_family", "t", t_howe, v_kl, v_lk,
             weyl_family_scalar(m, i, k, l), qmodule.vec_str),
            ("braiding.weyl_on_slot_family", "t", t_slot, tilde_vector(space, i, k, l),
             tilde_vector(space, i, l, k), slot_weyl_scalar(space, i, k, l), slot_vec_str),
        )
        for id, name, op, src, dst, scalar, render in table:
            got, want = op.apply(src), vec_scale(scalar, dst)
            out.append(check(id, params, got == want,
                             lambda: f"{name}(v) = {render(got)} want {render(want)}"))
    return out


def verify_module_map(m: int, k: int, l: int, conv: Conventions) -> list[CheckResult]:
    """beta intertwines the U_q(sl_m) actions on the two tensor orders."""
    src = Module(m, (k, l), conv.coproduct)
    dst = Module(m, (l, k), conv.coproduct)
    beta = braiding_beta(m, k, l)
    out = []
    for i in range(1, m):
        for kind in (GEN_E, GEN_F, GEN_K):
            out.append(
                check_equal("braiding.module_map", {"m": m, "k": k, "l": l, "gen": f"{kind}{i}"},
                            beta @ src.operator(kind, i), dst.operator(kind, i) @ beta,
                            qmodule.mono_str, f"beta {kind}_{i}")
            )
    return out


def verify_yang_baxter(m: int, conv: Conventions) -> list[CheckResult]:
    b2 = braiding_beta(m, 1, 1)
    one = SparseOp.identity(Module(m, (1,)).basis())
    b12, b23 = tensor(b2, one), tensor(one, b2)
    return [
        check_equal("braiding.yang_baxter", {"m": m}, b12 @ b23 @ b12, b23 @ b12 @ b23,
                    qmodule.mono_str, "b12 b23 b12")
    ]
