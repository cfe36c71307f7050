import re
from fractions import Fraction

import pytest

from qhowe.qring import Laurent, ONE, addmul
from qhowe.qmodule import COPRODUCTS, GEN_E, GEN_F, Conventions, Module, MOVES
from qhowe.howe import HoweSpace, SlotModule, admissible_families, lowest_weight_vector
from qhowe import braidgrp as bg
from qhowe import qmodule
from qhowe import ktheory as kt
from qhowe.ktheory import conventions
from qhowe._linalg import SparseOp, vec_scale
from test_qmodule import _divided_powers_by_act

q = Laurent.q
# the run's resolved conventions; the builders take their fields explicitly
CONV = conventions()
VAR = CONV.variant


def inverse_variant(variant):
    """The variant whose t_i is the exact inverse of variant's: the other
    order, the opposite sign (test_rank1_inverse)."""
    order, e = variant
    return ("efe" if order == "fef" else "fef", -e)


def test_variant_selection_is_unique():
    # the search that chose the variant: only fef-1 passes both braiding
    # suites at (m, d) = (2, 1)
    survivors = [
        v for v in bg.VARIANTS
        if all(r.ok for suite in (bg.verify_hightolow, bg.verify_eq_comm)
               for r in suite(2, 1, Conventions("standard", v, -1)))
    ]
    assert survivors == [bg.selected_variant()] == [("fef", -1)]


def test_rank1_on_two_dim_module():
    V = Module(2, (1,))
    t = bg.rank1_weyl(V, 1, VAR)
    assert t.apply({((1,),): ONE}) == {((2,),): ONE}
    assert t.apply({((2,),): ONE}) == {((1,),): -q(-1)}


def test_rank1_on_trivial_module():
    triv = Module(2, (0,))
    t = bg.rank1_weyl(triv, 1, VAR)
    assert t == SparseOp.identity(triv.basis())


@pytest.mark.parametrize("m,d", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2)])
def test_rank1_inverse(m, d):
    mod = Module(m, (d,))
    for i in range(1, m):
        t = bg.rank1_weyl(mod, i, VAR)
        tinv = bg.rank1_weyl(mod, i, inverse_variant(VAR))
        assert t @ tinv == SparseOp.identity(mod.basis())
        assert tinv @ t == SparseOp.identity(mod.basis())


def triple_sum(module, i, variant):
    """t_i as Lusztig's triple divided-power sum, built on the whole module:
    the definition of the four variants, and the oracle of rank1_weyl.

    For a weight vector of sl_2(i)-weight n the F-E-F variant sums
    (-1)^b q^(e(b - ac)) F^(a) E^(b) F^(c) over a, b, c with a - b + c = n;
    the E-F-E variant sums E^(a) F^(b) E^(c) over a - b + c = -n.  The
    divided powers come from the recurrence oracle of tests/test_qmodule.py,
    not from the closed form the package builds.
    """
    order, e = variant
    inner, mid, outer = (GEN_F, GEN_E, GEN_F) if order == "fef" else (GEN_E, GEN_F, GEN_E)

    def image(mono):
        n = sum(MOVES[i][f][0] for f in mono)
        total = {}
        for c, w_c in enumerate(_divided_powers_by_act(module, inner, i, {mono: ONE})):
            for b, w_cb in enumerate(_divided_powers_by_act(module, mid, i, w_c)):
                a = (n if order == "fef" else -n) + b - c
                if a < 0:
                    continue
                outer_powers = _divided_powers_by_act(module, outer, i, w_cb)
                if a >= len(outer_powers):
                    continue
                coeff = q(e * (b - a * c))
                if b % 2:
                    coeff = -coeff
                for mm, vv in outer_powers[a].items():
                    total[mm] = addmul(total.get(mm), coeff, vv)
        return {mm: v for mm, v in total.items() if v}

    return SparseOp({b: image(b) for b in module.basis()})


# (rank, degrees) of a Module, or ("slot", m, N) for the slot module of the
# degree-N Howe space
ORACLE_MODULES = [
    (4, (2, 2)), (4, (1, 3)), (3, (1, 1, 1)), (3, (None, 2)), (2, (None,) * 4), ("slot", 3, 3),
]


@pytest.mark.parametrize("coproduct", COPRODUCTS)
@pytest.mark.parametrize("spec", ORACLE_MODULES, ids=str)
def test_rank1_matches_triple_sum_on_whole_module(spec, coproduct):
    # rank1_weyl relabels its base on V(1)^(x)j; the oracle is the triple
    # sum run on the whole module, which shares no relabelling code
    if spec[0] == "slot":
        mod = SlotModule(spec[1], spec[2], coproduct)
    else:
        mod = Module(*spec, coproduct)
    for variant in bg.VARIANTS:
        for i in range(1, mod.sl_rank + 1):
            want = triple_sum(mod, i, variant)
            assert bg.rank1_weyl(mod, i, variant) == want, (mod, i, variant)


@pytest.mark.parametrize("coproduct", COPRODUCTS)
@pytest.mark.parametrize("j", range(7))
def test_rank1_base_matches_triple_sum(j, coproduct):
    # the bases V(1)^(x)j are the identity at j = 0, the variant's matrix at
    # j = 1 and the coproduct recursion above; the oracle is the triple sum
    # on the same module
    mod = Module(2, (1,) * j, coproduct)
    # every variant up to j = 5; above, the default one and its inverse
    variants = bg.VARIANTS if j <= 5 else [("fef", -1), ("efe", 1)]
    for variant in variants:
        assert bg.rank1_weyl(mod, 1, variant) == triple_sum(mod, 1, variant), (j, variant)


@pytest.mark.parametrize("j", range(7))
def test_flipped_generators_are_the_standard_ones_conjugated_by_theta(j):
    # the premise of the braidgrp docstring's proof that no Weyl element
    # depends on the coproduct: on V(1)^(x)j the flipped E and F are
    # Theta X Theta^(-1), Theta the diagonal q^(-(lam^2 - j)/4) on weight lam
    standard, flipped = Module(2, (1,) * j), Module(2, (1,) * j, "flipped")

    def theta(sign):
        cols = {}
        for mono in standard.basis():
            lam = sum(MOVES[1][f][0] for f in mono)
            cols[mono] = {mono: q(-sign * (lam * lam - j), 4)}
        return SparseOp(cols)

    for kind in (GEN_E, GEN_F):
        want = theta(1) @ standard.operator(kind, 1) @ theta(-1)
        assert flipped.operator(kind, 1) == want, (j, kind)


@pytest.mark.parametrize("mod", [Module(3, (1, 2)), Module(2, (None, None)), SlotModule(2, 2)])
def test_rank1_index_out_of_range(mod):
    m = mod.sl_rank + 1
    for i in (0, m):
        with pytest.raises(ValueError, match="Weyl element index"):
            bg.rank1_weyl(mod, i, VAR)


def test_words():
    assert bg.default_word(2) == (1,)
    assert bg.default_word(3) == (1, 2, 1)
    assert bg.default_word(4) == (1, 2, 1, 3, 2, 1)
    assert bg.is_longest_word(3, (2, 1, 2))
    assert not bg.is_longest_word(3, (1, 2))
    assert not bg.is_longest_word(3, (1, 1, 1))
    for w in bg.alternate_words(4):
        assert bg.is_longest_word(4, w)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_braid_relations_and_word_independence(m):
    assert all(r.ok for r in bg.verify_braid_relations(m, 1, conventions()))
    assert all(r.ok for r in bg.verify_word_independence(m, 1, conventions()))
    if m == 3:
        # holds on the full exterior algebra, not just the defining wedge
        full = Module(3, (None,))
        assert (bg.weyl_longest(full, (1, 2, 1), variant=VAR)
                == bg.weyl_longest(full, (2, 1, 2), variant=VAR))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_weyl_commutation_and_high_to_low(m):
    for d in range(0, m + 1):
        assert all(r.ok for r in bg.verify_eq_comm(m, d, conventions()))
        if d >= 1:
            assert all(r.ok for r in bg.verify_hightolow(m, d, conventions()))


@pytest.mark.parametrize("degrees", [(0,), (1,), (None,), (1, None)])
def test_weyl_longest_of_sl1_is_the_identity(degrees):
    # m = 1 has the empty reduced word
    mod = Module(1, degrees)
    for variant in (VAR, inverse_variant(VAR)):
        assert bg.weyl_longest(mod, variant=variant) == SparseOp.identity(mod.basis())


def test_weyl_longest_of_one_letter_is_the_rank_one_element():
    mod = Module(2, (1, 1))
    assert bg.weyl_longest(mod, variant=VAR) is bg.rank1_weyl(mod, 1, VAR)
    inverse = inverse_variant(VAR)
    assert bg.weyl_longest(mod, bg.default_word(2)[::-1], variant=inverse) is \
        bg.rank1_weyl(mod, 1, inverse)


def test_weyl_maps_weight_spaces_across():
    # t exchanges the (k, l) and (l, k) blocks
    sp = HoweSpace(3, 3)
    t = bg.howe_weyl_op(3, 3, VAR)
    for hm in sp.basis():
        k, l = len(hm[0]), len(hm[1])
        img = t.apply({hm: ONE})
        assert img
        for hm2 in img:
            assert (len(hm2[0]), len(hm2[1])) == (l, k)


def test_trace_pairing():
    # pairing value behind the braiding exponent: i - lk/m
    for m, N in [(2, 2), (3, 2), (3, 3), (4, 3)]:
        for i, k, l in admissible_families(m, N):
            omega = [0] * m
            for a in range(m - k, m):
                omega[a] = 1  # reversed fundamental weight
            lam = [0] * (m - N + i) + [1] * (N - 2 * i) + [2] * i  # reversed shape
            second = [lam[a] - omega[a] for a in range(m)]
            got = bg.trace_pairing(omega, second, m)  # the numerator over m
            assert Fraction(got, m) == Fraction(i) - Fraction(l * k, m)


def test_q_hh_requires_two_factors():
    with pytest.raises(ValueError):
        bg.q_hh_op(Module(2, (1,)))


def test_half_twist_on_trivial_modules():
    R = bg.half_twist_R(3, 0, 0)
    assert R == SparseOp.identity(Module(3, (0, 0)).basis())


def test_half_twist_on_lowest_vector():
    R = bg.half_twist_R(2, 1, 1)
    got = R.apply({((2,), (2,)): ONE})
    assert got == {((2,), (2,)): q(1, 2)}


def half_twist_factorization(m, k, l):
    """q^(H (x) H) o (t_w0 (x) t_w0) o t_w0^(-1) on wedge^k (x) wedge^l under
    fef-1, t_w0^(-1) composed along the reversed word: the oracle of the
    quasi-R product, built from the Weyl elements, which R does not read."""
    pair = Module(m, (k, l))
    t_left = bg.weyl_longest(Module(m, (k,)), variant=VAR)
    t_right = bg.weyl_longest(Module(m, (l,)), variant=VAR)
    t_inv = bg.weyl_longest(pair, bg.default_word(m)[::-1], variant=inverse_variant(VAR))
    return bg.q_hh_op(pair) @ bg.tensor(t_left, t_right) @ t_inv


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_quasi_r_product_equals_half_twist_factorization(m):
    # every (k, l) in [0, m]^2 for m <= 4; every k + l <= 5 at m = 5
    for k in range(m + 1):
        for l in range(m + 1):
            if m == 5 and k + l > 5:
                continue
            assert bg.half_twist_R(m, k, l) == half_twist_factorization(m, k, l), (m, k, l)


def as_operator(columns):
    """A root_vectors column map {S: (S', unit)} as a SparseOp on Module(m, (d,))."""
    return SparseOp({(S,): {(image,): unit} for S, (image, unit) in columns.items()})


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_root_vectors_follow_jimbos_recursion(m):
    # E_(a,c) = E_(a,c-1) E_(c-1,c) - q^-1 E_(c-1,c) E_(a,c-1) and
    # F_(a,c) = F_(c-1,c) F_(a,c-1) - q F_(a,c-1) F_(c-1,c), from the
    # generators E_i = E_(i,i+1), F_i = F_(i,i+1) of Module.operator
    for d in range(m + 1):
        mod = Module(m, (d,))
        closed = bg.root_vectors(m, d)
        e, f = {}, {}
        for c in range(2, m + 1):
            for a in range(c - 1, 0, -1):  # e[c - 1, c] first
                if c == a + 1:
                    e[a, c], f[a, c] = mod.operator(GEN_E, a), mod.operator(GEN_F, a)
                else:
                    e[a, c] = e[a, c - 1] @ e[c - 1, c] - (e[c - 1, c] @ e[a, c - 1]).scale(q(-1))
                    f[a, c] = f[c - 1, c] @ f[a, c - 1] - (f[a, c - 1] @ f[c - 1, c]).scale(q(1))
                got_e, got_f = closed[a, c]
                assert as_operator(got_e) == e[a, c], (m, d, a, c, "E")
                assert as_operator(got_f) == f[a, c], (m, d, a, c, "F")
        assert set(closed) == set(e)


def test_braiding_examples():
    sp = HoweSpace(2, 2)
    beta = bg.braiding_beta(2, 1, 1)
    v1 = lowest_weight_vector(sp, 1, 1, 1)
    assert beta.apply(v1) == vec_scale(q(1, 2), v1)
    v0 = lowest_weight_vector(sp, 0, 1, 1)
    assert beta.apply(v0) == vec_scale(-q(-3, 2), v0)
    beta00 = bg.braiding_beta(2, 0, 0)
    assert beta00 == SparseOp.identity(Module(2, (0, 0)).basis())


@pytest.mark.parametrize("m,N", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3)])
def test_family_scalars(m, N):
    results = bg.verify_family_scalars(m, N, conventions())
    assert results and all(r.ok for r in results), [
        (r.params, r.witness) for r in results if not r.ok
    ]


def test_beta_t_scale_values():
    # scale (-1)^(kl+k) q^(k - kl/m); differs from (-1)^(kl) by (-1)^k
    assert bg.beta_vs_weyl_scale(2, 1, 1) == q(1, 2)
    assert bg.beta_vs_weyl_scale(3, 1, 2) == -q(1, 3)
    assert bg.beta_vs_weyl_scale(2, 0, 1) == ONE
    assert bg.beta_vs_weyl_scale(2, 0, 2) == ONE


def test_beta_family_scalar_matches_its_closed_form():
    # beta_family_scalar is scale * weyl_family_scalar; the oracle is the
    # closed form (-1)^((l-i)(k-i)) q^(i - (l-i)(k-i) - kl/m)
    for m in range(1, 9):
        for N in range(0, 2 * m + 1):
            for i, k, l in admissible_families(m, N):
                c = (l - i) * (k - i)
                want = q((i - c) * m - k * l, m)
                want = -want if c % 2 else want
                assert bg.beta_family_scalar(m, i, k, l) == want, (m, N, i, k, l)


def test_slot_weyl_scalar_matches_its_closed_form():
    # slot_weyl_scalar is weyl_family_scalar times two right-map signs; the
    # oracle is the closed form (-1)^(k-i) q^(-(k-i)(l-i+1))
    for m in range(1, 9):
        for N in range(0, 2 * m + 1):
            space = HoweSpace(m, N)
            for i, k, l in admissible_families(m, N):
                want = q(-(k - i) * (l - i + 1))
                want = -want if (k - i) % 2 else want
                assert bg.slot_weyl_scalar(space, i, k, l) == want, (m, N, i, k, l)


@pytest.mark.parametrize("m", [2, 3])
def test_beta_equals_scaled_weyl(m):
    for N in range(1, 5):
        for k in range(0, min(m, N) + 1):
            l = N - k
            if l > m:
                continue
            results = bg.verify_beta_t_theorem(m, k, l, conventions())
            assert all(r.ok for r in results), [
                (r.params, r.witness) for r in results if not r.ok
            ]


@pytest.mark.parametrize("m,k,l", [(2, 1, 1), (3, 1, 2), (3, 1, 1)])
def test_beta_is_a_module_map(m, k, l):
    assert all(r.ok for r in bg.verify_module_map(m, k, l, conventions()))


def test_yang_baxter():
    assert all(r.ok for r in bg.verify_yang_baxter(2, conventions()))


def double_first_column(op):
    first = min(op.cols, key=repr)
    return SparseOp(
        {c: {r: v + v if c == first else v for r, v in col.items()} for c, col in op.cols.items()}
    )


def spoiled(builder, when):
    """builder with the first column of its output doubled where when holds."""

    def build(*args, **kwargs):
        op = builder(*args, **kwargs)
        return double_first_column(op) if when(*args, **kwargs) else op

    return build


# (module, builder to spoil, when to spoil it, suite run, check id, witness prefix)
SPOILED_IDENTITIES = [
    (bg, "rank1_weyl", lambda mod, i, *a: i == 1,
     lambda c: bg.verify_braid_relations(3, 1, c), "braiding.braid_relation", "t_1 t_2 t_1"),
    (bg, "weyl_longest", lambda *a, word=None, **kw: word is not None,
     lambda c: bg.verify_word_independence(3, 1, c), "braiding.word_independence", "t_w0"),
    (bg, "braiding_beta", lambda *a: True, lambda c: bg.verify_module_map(2, 1, 1, c),
     "braiding.module_map", "beta [EFK]_1"),
    (bg, "braiding_beta", lambda *a: True, lambda c: bg.verify_yang_baxter(2, c),
     "braiding.yang_baxter", "b12 b23 b12"),
    (kt, "divided_op", lambda m, N, kind, r, *a: r == 2,
     lambda c: kt.verify_ee_deformed_shadow(2, 2, c),
     "ktheory.deformed_shadow_crosscheck", r"e e\^\(\d\)"),
    (kt, "rickard_euler", lambda *a: True, lambda c: kt.verify_rickard_invertible(2, 2, c),
     "ktheory.rickard_invertible", r"t\^\(-1\) euler"),
]


@pytest.mark.parametrize(
    "owner,builder,when,run,check_id,what",
    SPOILED_IDENTITIES,
    ids=[case[4] for case in SPOILED_IDENTITIES],
)
def test_operator_identity_failure_names_an_entry(
    monkeypatch, owner, builder, when, run, check_id, what
):
    # a spoiled builder makes the identity fail; the witness names the first
    # differing entry as `what col -> row: got want`.  The spoiled operators
    # are cached in a copy of the module cache, dropped after the test.
    conv = conventions()
    monkeypatch.setattr(qmodule, "_MODULE_CACHE", dict(qmodule._MODULE_CACHE))
    monkeypatch.setattr(owner, builder, spoiled(getattr(owner, builder), when))
    failed = [r for r in run(conv) if not r.ok]
    assert failed and {r.id for r in failed} == {check_id}
    for r in failed:
        assert re.fullmatch(rf"{what} \S+ -> \S+: .+ want .+", r.witness), r.witness


def test_flipped_coproduct_fails_leading_coefficient_oracle():
    # under the alternate coproduct the divided-power string has leading
    # coefficient q, not 1, so the distinguished-vector recursion fails
    from qhowe.howe import SlotModule, SLOT_X, SLOT_Y
    from qhowe.qmodule import act_divided

    slot = SlotModule(2, 2, coproduct="flipped")
    got = act_divided(slot, GEN_F, 1, 1, {(SLOT_X, SLOT_X): ONE})
    assert got[(SLOT_Y, SLOT_X)] == q(1)


def test_weyl_variant_names_roundtrip():
    for v in bg.VARIANTS:
        assert bg.parse_variant(bg.variant_name(v)) == v
    with pytest.raises(ValueError):
        bg.parse_variant("nope")
