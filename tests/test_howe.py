import math
from itertools import combinations

import pytest

from qhowe._linalg import SparseOp
from qhowe.qring import Laurent, ONE
from qhowe.qmodule import GEN_E, GEN_F, GEN_K, GEN_KINV, Module
from qhowe.braidgrp import weyl_longest
from qhowe.howe import (
    SLOT_EMPTY,
    SLOT_X,
    SLOT_Y,
    SLOT_YX,
    HoweSpace,
    SlotModule,
    admissible_families,
    blocks,
    family_weight,
    leading_monomial,
    lowest_weight_vector,
    sq_sum,
    tilde_vector,
    verify_commuting,
    verify_divided_transport,
    _right_map,
)
from qhowe.ktheory import conventions, divided_op
from test_qmodule import _divided_powers_by_act, _product_by_apply

q = Laurent.q


def test_iso_right_examples():
    sp = HoweSpace(2, 2)
    assert sp.iso_right(((1,), (2,))) == (-1, (SLOT_Y, SLOT_X))
    assert sp.iso_right(((2,), (2,))) == (1, (SLOT_EMPTY, SLOT_YX))
    sp0 = HoweSpace(3, 0)
    assert sp0.iso_right(((), ())) == (1, (SLOT_EMPTY,) * 3)
    sp3 = HoweSpace(3, 3)
    assert sp3.iso_right(((1, 3), (2,))) == (-1, (SLOT_Y, SLOT_X, SLOT_Y))


def _ref_iso_right(m, hm):
    # the slot table and sign rule of the module docstring, written out
    S, T = hm
    sign = -1 if sum(1 for a in S for b in T if a < b) % 2 else 1
    slots = []
    for p in range(1, m + 1):
        if p in S and p in T:
            slots.append(SLOT_YX)
        elif p in S:
            slots.append(SLOT_Y)
        elif p in T:
            slots.append(SLOT_X)
        else:
            slots.append(SLOT_EMPTY)
    return sign, tuple(slots)


def _ref_basis(m, N):
    subsets = [c for d in range(m + 1) for c in combinations(range(1, m + 1), d)]
    return sorted((S, T) for S in subsets for T in subsets if len(S) + len(T) == N)


def _ref_from_slot_op(m, N, op):
    # column sign times row sign, relabelled entry by entry
    back = {}
    for hm in _ref_basis(m, N):
        sign, slots = _ref_iso_right(m, hm)
        back[slots] = (sign, hm)
    cols = {}
    for c, col in op.cols.items():
        c_sign, c_hm = back[c]
        for r, v in col.items():
            r_sign, r_hm = back[r]
            cols.setdefault(c_hm, {})[r_hm] = v if c_sign * r_sign == 1 else -v
    return SparseOp(cols)


def test_iso_right_is_a_signed_bijection():
    for m in range(1, 6):
        for N in range(0, 2 * m + 1):
            sp = HoweSpace(m, N)
            basis, right, inverse, image = _right_map(m, N)
            assert list(basis) == list(sp.basis()) == _ref_basis(m, N)
            for hm in basis:
                assert sp.iso_right(hm) == right[hm] == _ref_iso_right(m, hm), (m, N, hm)
                sign, slots = right[hm]
                assert inverse[slots] == (sign, hm)
            assert len(inverse) == len(basis)
            assert image == tuple(sorted(inverse)) == SlotModule(m, N).basis()


def test_from_slot_op_matches_the_reference_transport():
    for m in range(1, 5):
        for N in range(0, 2 * m + 1):
            for coproduct in ("standard", "flipped"):
                sp = HoweSpace(m, N, coproduct)
                slot = sp.slot_module()
                ops = [slot.operator(kind, 1) for kind in (GEN_E, GEN_F, GEN_K, GEN_KINV)]
                ops.append(weyl_longest(slot, variant=conventions().variant))
                for kind in (GEN_E, GEN_F):
                    powers = {}
                    for mono in slot.basis():
                        for r, vec in enumerate(_divided_powers_by_act(slot, kind, 1, {mono: ONE})):
                            powers.setdefault(r, {})[mono] = vec
                    for r, cols in powers.items():
                        want = _ref_from_slot_op(m, N, SparseOp(cols))
                        assert divided_op(m, N, kind, r, coproduct) == want, (m, N, kind, r)
                        ops.append(SparseOp(cols))
                for op in ops:
                    assert sp.from_slot_op(op) == _ref_from_slot_op(m, N, op), (m, N, coproduct)
    # a label outside the degree-N slot basis is an error, not dropped
    with pytest.raises(KeyError):
        HoweSpace(2, 2).from_slot_op(Module(2, (None, None)).operator(GEN_E, 1))


def test_iso_right_names_its_parameters():
    sp = HoweSpace(3, 2)
    with pytest.raises(ValueError, match=r"\(S, T\) = \(\(1,\), \(\)\) .* m=3, N=2"):
        sp.iso_right(((1,), ()))
    with pytest.raises(ValueError, match=r"m=3, N=2"):
        sp.to_slots({((2, 1), (3,)): ONE})


def test_blocks_match_brute_force():
    for m in range(1, 7):
        for N in range(0, 2 * m + 2):
            want = [(k, N - k) for k in range(N + 1) if k <= m and N - k <= m]
            assert blocks(m, N) == want, (m, N)


def test_block_basis_is_the_block_module_basis():
    for m, N in [(2, 2), (3, 2), (3, 4), (4, 3)]:
        sp = HoweSpace(m, N)
        for k, l in blocks(m, N):
            assert sp.block_basis(k, l) is sp.block_module(k, l).basis()
        # not blocks: k < 0, l > m, k + l != N
        assert sp.block_basis(-1, N + 1) == ()
        assert sp.block_basis(N - m - 1, m + 1) == ()
        assert sp.block_basis(0, N + 1) == ()
        assert sp.block_basis(1, N) == ()


def test_block_dimensions():
    for m in (2, 3, 4):
        for N in range(0, min(2 * m, 5)):
            sp = HoweSpace(m, N)
            total = 0
            for k in range(N + 1):
                l = N - k
                if k > m or l > m:
                    continue
                blk = sp.block_basis(k, l)
                assert len(blk) == math.comb(m, k) * math.comb(m, l)
                total += len(blk)
            assert total == len(sp.basis()) == math.comb(2 * m, N)


# Pinned slot action on m = 3 monomials, an oracle that does not go through
# Module: E moves one Y to X, F one X to Y, with the q-power of the
# coproduct's K-factors on the other slots; 1 and YX are invariant and carry
# alpha weight 0.
_O, _X, _Y, _YX = SLOT_EMPTY, SLOT_X, SLOT_Y, SLOT_YX
SLOT_PINS = {
    "standard": {
        (_Y, _X, _YX): {
            GEN_E: {(_X, _X, _YX): q(1)},
            GEN_F: {(_Y, _Y, _YX): q(1)},
            GEN_K: {(_Y, _X, _YX): ONE},
            GEN_KINV: {(_Y, _X, _YX): ONE},
        },
        (_X, _Y, _Y): {
            GEN_E: {(_X, _X, _Y): q(-1), (_X, _Y, _X): ONE},
            GEN_F: {(_Y, _Y, _Y): ONE},
            GEN_K: {(_X, _Y, _Y): q(-1)},
            GEN_KINV: {(_X, _Y, _Y): q(1)},
        },
        (_YX, _X, _O): {
            GEN_E: {},
            GEN_F: {(_YX, _Y, _O): ONE},
            GEN_K: {(_YX, _X, _O): q(1)},
            GEN_KINV: {(_YX, _X, _O): q(-1)},
        },
        (_Y, _O, _X): {
            GEN_E: {(_X, _O, _X): q(1)},
            GEN_F: {(_Y, _O, _Y): q(1)},
        },
    },
    "flipped": {
        (_Y, _X, _YX): {
            GEN_E: {(_X, _X, _YX): ONE},
            GEN_F: {(_Y, _Y, _YX): ONE},
            GEN_K: {(_Y, _X, _YX): ONE},
        },
        (_X, _Y, _Y): {
            GEN_E: {(_X, _X, _Y): q(-1), (_X, _Y, _X): ONE},
            GEN_F: {(_Y, _Y, _Y): q(-2)},
            GEN_KINV: {(_X, _Y, _Y): q(1)},
        },
        (_YX, _X, _O): {
            GEN_E: {},
            GEN_F: {(_YX, _Y, _O): ONE},
            GEN_K: {(_YX, _X, _O): q(1)},
        },
        (_Y, _O, _X): {
            GEN_E: {(_X, _O, _X): ONE},
            GEN_F: {(_Y, _O, _Y): ONE},
        },
    },
}


def test_slot_module_action():
    slot = SlotModule(2, 2)
    xx = (SLOT_X, SLOT_X)
    assert slot.act(GEN_F, 1, xx) == {(SLOT_Y, SLOT_X): ONE, (SLOT_X, SLOT_Y): q(-1)}
    yx = (SLOT_EMPTY, SLOT_YX)
    assert slot.act(GEN_E, 1, yx) == {}
    assert slot.act(GEN_F, 1, yx) == {}
    assert slot.act(GEN_K, 1, xx) == {xx: q(2)}
    for coproduct, pins in SLOT_PINS.items():
        slot3 = Module(2, (None,) * 3, coproduct)
        for mono, images in pins.items():
            for kind, want in images.items():
                assert slot3.act(kind, 1, mono) == want, (coproduct, mono, kind)


def test_sl2_action_examples():
    # vacuum is killed
    sp = HoweSpace(2, 0)
    assert sp.sl2_op(GEN_F).apply({((), ()): ONE}) == {}
    # single slot: E sends the Y generator to the X generator
    sp1 = HoweSpace(1, 1)
    got = sp1.sl2_op(GEN_E).apply({((1,), ()): ONE})
    assert got == {((), (1,)): ONE}
    # K eigenvalue is the multiplicity difference
    sp2 = HoweSpace(2, 2)
    got = sp2.sl2_op(GEN_K).apply({((1,), (2,)): ONE})
    assert got == {((1,), (2,)): ONE}


def test_slm_k_eigenvalues():
    sp = HoweSpace(3, 2)
    hm = ((1,), (2,))
    got = sp.slm_op(1)[GEN_K].apply({hm: ONE})
    assert got == {hm: ONE}  # weight (1,1,0): difference 0 at i=1
    got = sp.slm_op(2)[GEN_K].apply({hm: ONE})
    assert got == {hm: q(1)}
    assert sp.slm_op(2)[GEN_KINV].apply({hm: ONE}) == {hm: q(-1)}


def _slm_op_by_act(space, kind, i):
    """The per-kind construction slm_op replaced: Module.act of each basis
    monomial, one generator per pass."""
    module = Module(space.m, (None, None), space.coproduct)
    return SparseOp({hm: module.act(kind, i, hm) for hm in space.basis()})


@pytest.mark.parametrize("coproduct", ["standard", "flipped"])
def test_slm_op_matches_the_per_kind_act(coproduct):
    kinds = [GEN_E, GEN_F, GEN_K, GEN_KINV]
    for m in range(1, 5):
        for N in range(0, 2 * m + 1):
            sp = HoweSpace(m, N, coproduct)
            for i in range(1, m):
                ops = sp.slm_op(i)
                assert list(ops) == kinds
                for kind, op in ops.items():
                    assert op == _slm_op_by_act(sp, kind, i), (m, N, i, kind)
                    assert all(op.cols.values())
    with pytest.raises(ValueError, match="out of range"):
        HoweSpace(3, 2).slm_op(3)


def test_slot_basis_is_the_filtered_module_basis():
    # the sorted right-map image is the degree-d part of the whole algebra,
    # in its order
    for m in range(1, 6):
        full = Module(2, (None,) * m).basis()
        for d in range(2 * m + 1):
            want = tuple(mono for mono in full if sum(map(len, mono)) == d)
            assert SlotModule(m, d).basis() == want, (m, d)


def test_slot_module_needs_a_degree():
    with pytest.raises(TypeError):
        SlotModule(2)
    with pytest.raises(ValueError, match=r"degree N=None out of range 0\.\.2m at m=2$"):
        SlotModule(2, None)


@pytest.mark.parametrize("m,N", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (2, 3)])
def test_commuting_actions(m, N):
    results = verify_commuting(m, N, conventions())
    assert results and all(r.ok for r in results)


@pytest.mark.parametrize("coproduct", ["standard", "flipped"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_commutes_with_matches_the_products_on_howe_pairs(m, coproduct):
    kinds = (GEN_E, GEN_F, GEN_K, GEN_KINV)
    for N in range(0, min(4, 2 * m) + 1):
        sp = HoweSpace(m, N, coproduct)
        for i in range(1, m):
            for a in sp.slm_op(i).values():
                for b in (sp.sl2_op(kind) for kind in kinds):
                    want = _product_by_apply(a, b) == _product_by_apply(b, a)
                    assert a.commutes_with(b) == want and b.commutes_with(a) == want


def test_commuting_failures_name_pairs_and_witnesses(monkeypatch):
    # K1 scaled by q at Y1X3 (still diagonal) and E1 scaled by q on the
    # entry Y2X1 -> Y1X1: exactly the four pairs of K1 or E1 with E or F
    # fail, each with the first differing entry of the two products
    built = HoweSpace.slm_op
    bumps = {(GEN_K, 1): (((1,), (3,)), ((1,), (3,))), (GEN_E, 1): (((2,), (1,)), ((1,), (1,)))}

    def slm_op(self, i):
        ops = built(self, i)
        for kind, op in ops.items():
            if (kind, i) in bumps:
                col, row = bumps[kind, i]
                cols = {c: dict(entries) for c, entries in op.cols.items()}
                cols[col][row] = cols[col][row] * q(1)
                ops[kind] = SparseOp(cols)
        return ops

    monkeypatch.setattr(HoweSpace, "slm_op", slm_op)
    results = verify_commuting(3, 2, conventions())
    assert len(results) == 32
    failures = {(r.params["slm"], r.params["sl2"]): r.witness for r in results if not r.ok}
    assert failures == {
        ("K1", "e"): "[K1, E] Y1Y3 -> Y1X3: -1*q^(2) want -1*q^(1)",
        ("K1", "f"): "[K1, F] X1X3 -> Y1X3: -1*q^(2) want -1*q^(1)",
        ("E1", "e"): "[E1, E] Y1Y2 -> Y1X1: -1+1*q^(1) want 0",
        ("E1", "f"): "[E1, F] X1X2 -> Y1X1: -1+1*q^(1) want 0",
    }


def test_family_weight_and_leading_monomial():
    assert family_weight(2, 2, 0) == (1, 1)
    assert family_weight(2, 2, 1) == (0, 2)
    assert family_weight(4, 3, 1) == (0, 0, 1, 2)
    assert leading_monomial(2, 0, 1, 1) == ((1,), (2,))
    assert leading_monomial(2, 1, 1, 1) == ((2,), (2,))
    assert leading_monomial(3, 0, 1, 2) == ((1,), (2, 3))
    assert leading_monomial(3, 1, 1, 2) == ((3,), (2, 3))


def test_lowest_weight_vectors_small():
    sp = HoweSpace(2, 2)
    assert lowest_weight_vector(sp, 1, 1, 1) == {((2,), (2,)): ONE}
    v0 = lowest_weight_vector(sp, 0, 1, 1)
    assert v0 == {((1,), (2,)): ONE, ((2,), (1,)): -q(-1)}
    sp3 = HoweSpace(3, 2)
    v = lowest_weight_vector(sp3, 0, 1, 1)
    assert v[((2,), (3,))] == ONE
    assert set(len(s) for s, _ in v) == {1}


def test_lowest_weight_vectors_are_killed_by_lowering():
    for m, N in [(2, 2), (3, 2), (3, 3)]:
        sp = HoweSpace(m, N)
        for i, k, l in admissible_families(m, N):
            v = lowest_weight_vector(sp, i, k, l)
            mod = sp.block_module(k, l)
            for j in range(1, m):
                assert mod.operator(GEN_F, j).apply(v) == {}


def test_families_span_lowest_weight_space():
    # the distinguished vectors are linearly independent and exhaust the
    # lowest-weight vectors blockwise (triangular leading monomials)
    from qhowe.qmodule import singular_vectors

    for m, N in [(2, 2), (3, 2), (3, 3)]:
        sp = HoweSpace(m, N)
        for k in range(min(m, N) + 1):
            l = N - k
            if l > m:
                continue
            families = [i for i, kk, ll in admissible_families(m, N) if (kk, ll) == (k, l)]
            leads = {leading_monomial(m, i, k, l) for i in families}
            assert len(leads) == len(families)
            total = 0
            mod = sp.block_module(k, l)
            for i in range(min(k, l) + 1):
                total += len(singular_vectors(mod, family_weight(m, N, i)))
            assert total == len(families)



def test_howe_space_degree_error_names_m_and_N():
    with pytest.raises(ValueError, match=r"N=7 .* at m=3$"):
        HoweSpace(3, 7)
    with pytest.raises(ValueError, match=r"N=-1 .* at m=2$"):
        HoweSpace(2, -1)

def test_lowest_weight_vector_preconditions():
    sp = HoweSpace(2, 2)
    with pytest.raises(ValueError):
        lowest_weight_vector(sp, 2, 1, 1)
    with pytest.raises(ValueError):
        lowest_weight_vector(sp, -1, 1, 1)
    with pytest.raises(ValueError):
        # k + l > m + i: the family weight is not a valid shape
        lowest_weight_vector(HoweSpace(3, 4), 0, 2, 2)


def test_lowest_weight_vector_rejects_exactly_the_non_families():
    # the conditions on (i, k, l), restated: k + l = N, 0 <= i <= min(k, l),
    # k + l <= m + i and k, l <= m
    for m in range(1, 5):
        for N in range(0, 2 * m + 1):
            sp = HoweSpace(m, N)
            for i in range(-1, m + 2):
                for k in range(-1, m + 2):
                    for l in range(-1, m + 2):
                        ok = (k + l == N and 0 <= i <= min(k, l) and k + l <= m + i
                              and k <= m and l <= m)
                        if ok:
                            assert lowest_weight_vector(sp, i, k, l)
                        else:
                            with pytest.raises(ValueError, match=f"i={i}, k={k}, l={l}"):
                                lowest_weight_vector(sp, i, k, l)


def test_leading_monomial_maps_to_the_distinguished_slot_monomial():
    # tilde_vector normalizes by the sign of iso_right alone because of this
    for m in range(1, 7):
        for N in range(0, 2 * m + 1):
            sp = HoweSpace(m, N)
            for i, k, l in admissible_families(m, N):
                want = ((SLOT_EMPTY,) * (m - N + i) + (SLOT_Y,) * (k - i)
                        + (SLOT_X,) * (l - i) + (SLOT_YX,) * i)
                assert sp.iso_right(leading_monomial(m, i, k, l))[1] == want, (m, i, k, l)


def test_tilde_vectors():
    sp = HoweSpace(2, 2)
    tv = tilde_vector(sp, 0, 1, 1)
    assert tv == {(SLOT_Y, SLOT_X): ONE, (SLOT_X, SLOT_Y): q(-1)}
    assert tilde_vector(sp, 1, 1, 1) == {(SLOT_EMPTY, SLOT_YX): ONE}
    assert tilde_vector(sp, 0, 0, 2) == {(SLOT_X, SLOT_X): ONE}


@pytest.mark.parametrize("m,N", [(2, 2), (3, 2), (3, 3), (4, 3)])
def test_divided_transport(m, N):
    for i, k, l in admissible_families(m, N):
        results = verify_divided_transport(m, N, i, k, l, conventions())
        assert all(r.ok for r in results), [
            (r.id, r.params, r.witness) for r in results if not r.ok
        ]


@pytest.mark.parametrize("i,k,l", [(2, 1, 1), (0, 1, 2), (1, 0, 2)])
def test_divided_transport_rejects_a_non_family(i, k, l):
    # the first tilde_vector raises through lowest_weight_vector
    with pytest.raises(ValueError, match=f"no lowest-weight family i={i}, k={k}, l={l}"):
        verify_divided_transport(2, 2, i, k, l, conventions())


def test_sq_sum_is_one():
    for n in range(0, 6):
        assert sq_sum(n) == ONE
