import itertools
import math
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qhowe import braidgrp, cli, geomcheck, howe, ktheory, qmodule, qring
from qhowe.howe import HoweSpace, SlotModule, admissible_families, family_weight
from qhowe.qring import ONE, ZERO, Laurent, qint
from qhowe.qmodule import (
    COPRODUCTS,
    GEN_E,
    GEN_F,
    GEN_K,
    GEN_KINV,
    Module,
    act_divided,
    divided_columns,
    singular_vectors,
    straighten,
    weight_space,
)
from qhowe._linalg import SparseOp, laurent_gcd, nullspace, vec_scale

q = Laurent.q


def vec(mono):
    return {mono: ONE}


def test_straighten_examples():
    assert straighten([1, 2], 2) == (ONE, (1, 2))
    assert straighten([2, 1], 2) == (-q(-1), (1, 2))
    assert straighten([1, 1], 2) is None
    assert straighten([3, 1, 2], 3) == ((-q(-1)) * (-q(-1)), (1, 2, 3))
    with pytest.raises(ValueError):
        straighten([0, 1], 2)


@given(st.permutations(list(range(1, 6))))
@settings(max_examples=60, deadline=None)
def test_straighten_inversion_count(word):
    coeff, sorted_word = straighten(word, 5)
    inv = sum(
        1
        for a in range(len(word))
        for b in range(a + 1, len(word))
        if word[a] > word[b]
    )
    assert sorted_word == tuple(range(1, 6))
    assert coeff == math.prod([-q(-1)] * inv, start=ONE)


@given(st.lists(st.integers(1, 4), min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_straighten_kills_repeats(word):
    result = straighten(word, 4)
    if len(set(word)) != len(word):
        assert result is None
    else:
        assert result is not None


def test_defining_representation():
    V = Module(2, (1,))
    assert V.act(GEN_F, 1, ((1,),)) == vec(((2,),))
    assert V.act(GEN_E, 1, ((2,),)) == vec(((1,),))
    assert V.act(GEN_E, 1, ((1,),)) == {}
    assert V.act(GEN_K, 1, ((1,),)) == {((1,),): q(1)}
    assert V.act(GEN_KINV, 1, ((2,),)) == {((2,),): q(1)}


@pytest.mark.parametrize("kind", [GEN_E, GEN_F, GEN_K, GEN_KINV])
def test_act_rejects_a_vector(kind):
    # a vector {mono: 1} read as a monomial has no active factor, so E and
    # F would return {} for it
    M = Module(2, (1, 1))
    mono = ((1,), (2,))
    with pytest.raises(TypeError, match=r"^act: mono must be a monomial tuple, not dict$"):
        M.act(kind, 1, {mono: ONE})
    assert M.act(kind, 1, mono)


@pytest.mark.parametrize("module, inert, active", [
    (Module(3, (None, None)), ((), (1, 2, 3)), ((1,), (2,))),
    (SlotModule(2), ((), (1, 2)), ((1,), (2,))),
])
def test_act_validates_before_its_early_returns(module, inert, active):
    # E and F return {} on a monomial with no active factor; the kind and
    # index are checked first all the same
    assert module.act(GEN_E, 1, inert) == module.act(GEN_F, 1, inert) == {}
    for mono in (inert, active):
        for kind in ("X", "e", None):
            with pytest.raises(ValueError):
                module.act(kind, 1, mono)
        for kind in (GEN_E, GEN_F, GEN_K, GEN_KINV):
            for i in (0, module.sl_rank + 1):
                with pytest.raises(ValueError, match="out of range"):
                    module.act(kind, i, mono)


def test_top_wedge_is_killed():
    top = Module(2, (2,))
    assert top.act(GEN_F, 1, ((1, 2),)) == {}
    assert top.act(GEN_E, 1, ((1, 2),)) == {}


def test_coproduct_on_tensor_square():
    M = Module(2, (1, 1))
    # D(E) = E (x) K + 1 (x) E
    got = M.act(GEN_E, 1, ((2,), (1,)))
    assert got == {((1,), (1,)): q(1)}
    got = M.act(GEN_E, 1, ((1,), (2,)))
    assert got == {((1,), (1,)): ONE}
    # D(F) = F (x) 1 + K^(-1) (x) F
    got = M.act(GEN_F, 1, ((1,), (1,)))
    assert got == {((2,), (1,)): ONE, ((1,), (2,)): q(-1)}


def test_flipped_coproduct_differs():
    M = Module(2, (1, 1), coproduct="flipped")
    got = M.act(GEN_F, 1, ((1,), (1,)))
    assert got == {((2,), (1,)): q(1), ((1,), (2,)): ONE}


def test_basis_dimensions():
    for n in range(1, 5):
        for d in range(n + 1):
            assert len(Module(n, (d,)).basis()) == math.comb(n, d)
        assert len(Module(n, (None,)).basis()) == 2 ** n
    assert len(Module(3, (1, 2)).basis()) == 9


def test_weights_additive_and_shifted():
    M = Module(3, (2, 1))
    mono = ((1, 3), (2,))
    assert M.gl_weight(mono) == (1, 1, 1)
    for i in (1, 2):
        for kind, delta in ((GEN_E, 1), (GEN_F, -1)):
            img = M.act(kind, i, mono)
            for m2 in img:
                w = list(M.gl_weight(mono))
                w[i - 1] += delta
                w[i] -= delta
                assert M.gl_weight(m2) == tuple(w)
                assert sum(len(f) for f in m2) == 3  # degree preserved


def _op(module, kind, i):
    return module.operator(kind, i)


@pytest.mark.parametrize(
    "module",
    [
        Module(3, (1,)),
        Module(3, (2,)),
        Module(4, (2,)),
        Module(3, (1, 1)),
        Module(4, (1, 2)),
    ],
)
def test_serre_relations(module):
    n = module.rank
    two = qint(2)
    for kind in (GEN_E, GEN_F):
        ops = {i: _op(module, kind, i) for i in range(1, n)}
        for i in range(1, n):
            for j in range(1, n):
                if i == j:
                    continue
                if abs(i - j) == 1:
                    lhs = ops[i] @ ops[i] @ ops[j] + ops[j] @ ops[i] @ ops[i]
                    rhs = (ops[i] @ ops[j] @ ops[i]).scale(two)
                    assert lhs == rhs, (kind, i, j)
                else:
                    assert ops[i] @ ops[j] == ops[j] @ ops[i]


@pytest.mark.parametrize("module", [Module(3, (1, 1)), Module(4, (2,)), Module(2, (None,))])
def test_cartan_commutators(module):
    n = module.rank
    for i in range(1, n):
        e_i, f_i = _op(module, GEN_E, i), _op(module, GEN_F, i)
        k_i, ki_i = _op(module, GEN_K, i), _op(module, GEN_KINV, i)
        for j in range(1, n):
            a_ij = 2 if i == j else (-1 if abs(i - j) == 1 else 0)
            e_j = _op(module, GEN_E, j)
            # K_i E_j K_i^(-1) = q^(a_ij) E_j
            assert k_i @ e_j @ ki_i == e_j.scale(q(a_ij))
            f_j = _op(module, GEN_F, j)
            comm = e_i @ f_j - f_j @ e_i
            if i != j:
                assert not comm.cols
        # [E_i, F_i] acts by the balanced quantum integer of the weight; it
        # is zero on the weight-0 monomials, where no operator holds an entry
        comm = e_i @ f_i - f_i @ e_i
        want = {}
        for b in module.basis():
            w = module.gl_weight(b)
            if w[i - 1] != w[i]:
                want[b] = {b: qint(w[i - 1] - w[i])}
        assert comm == SparseOp(want)


def test_divided_power_basics():
    M = Module(2, (1, 1))
    v = vec(((1,), (1,)))
    assert act_divided(M, GEN_F, 1, 0, v) == v
    assert act_divided(M, GEN_F, 1, 1, v) == M.act(GEN_F, 1, ((1,), (1,)))
    assert act_divided(M, GEN_F, 1, 2, v) == vec(((2,), (2,)))
    assert act_divided(M, GEN_F, 1, 3, v) == {}


@pytest.mark.parametrize("module", [Module(2, (1, 1)), Module(3, (1, 1))])
def test_divided_power_composition(module):
    from qhowe.qring import qbinom

    for kind in (GEN_E, GEN_F):
        for i in range(1, module.rank):
            for r in range(0, 3):
                for s in range(0, 3):
                    for b in module.basis():
                        lhs = act_divided(module, kind, i, r, act_divided(module, kind, i, s, vec(b)))
                        rhs = vec_scale(qbinom(r + s, r), act_divided(module, kind, i, r + s, vec(b)))
                        assert lhs == rhs


def _act_on_vector(module, kind, i, vec):
    """The sum of c * Module.act(kind, i, mono) over the terms of vec,
    accumulated here rather than by SparseOp.apply."""
    out = {}
    for mono, c in vec.items():
        for m2, c2 in module.act(kind, i, mono).items():
            out[m2] = out.get(m2, ZERO) + c * c2
    return {m2: c2 for m2, c2 in out.items() if c2}


def _divided_powers_by_act(module, kind, i, vec):
    """The divided-power recurrence X^(r) = X X^(r-1) / [r], written with
    per-monomial Module.act and exact division: the oracle of the closed
    form divided_columns, and of the Weyl elements in tests/test_braidgrp.py."""
    out = []
    while vec:
        out.append(vec)
        r = qint(len(out))
        vec = {m: c.divexact(r) for m, c in _act_on_vector(module, kind, i, vec).items()}
    return out


@pytest.mark.parametrize("coproduct", COPRODUCTS)
def test_divided_columns_match_the_recurrence(coproduct):
    # every monomial at every i, and act_divided on a vector whose
    # coefficients differ from term to term, at every r up to the top power
    modules = [SlotModule(m, N, coproduct) for m in range(1, 5) for N in range(2 * m + 1)]
    modules += [Module(m, (k, l), coproduct)
                for m in range(2, 5) for k in range(m + 1) for l in range(m + 1)]
    modules += [Module(2, (1,) * j, coproduct) for j in range(1, 6)]
    for module in modules:
        basis = module.basis()
        mixed = {b: q(n) for n, b in enumerate(basis)}
        for i in range(1, module.sl_rank + 1):
            for kind in (GEN_E, GEN_F):
                for b in basis:
                    assert divided_columns(module, kind, i, b) == \
                        _divided_powers_by_act(module, kind, i, vec(b)), (module, kind, i, b)
                want = _divided_powers_by_act(module, kind, i, mixed)
                for r in range(len(want) + 1):
                    assert act_divided(module, kind, i, r, mixed) == \
                        (want[r] if r < len(want) else {}), (module, kind, i, r)


def test_divided_columns_validate_their_arguments():
    with pytest.raises(ValueError, match="out of range"):
        divided_columns(Module(3, (1,)), GEN_E, 3, ((1,),))
    with pytest.raises(ValueError):
        divided_columns(Module(3, (1,)), GEN_K, 1, ((1,),))


@pytest.mark.parametrize("module", [
    Module(2, (None,)),
    Module(3, (1, 2)),
    Module(3, (None, 1), "flipped"),
    Module(4, (2, None, 1)),
    SlotModule(3),
    SlotModule(3, 2, "flipped"),
], ids=repr)
def test_act_fast_path_matches_addmul_path(module):
    # SparseOp.apply stores the entry itself for a new target when the input
    # coefficient is the shared ONE; an equal but separate one takes the
    # addmul path.  Module.act of a monomial is its column of the operator.
    fresh = Laurent({0: 1})
    assert fresh == ONE and fresh is not ONE
    other = Laurent({0: 2, 1: -1})
    basis = module.basis()
    for kind in (GEN_E, GEN_F, GEN_K, GEN_KINV):
        for i in range(1, module.sl_rank + 1):
            op = module.operator(kind, i)
            for mono in basis:
                got = module.act(kind, i, mono)
                assert got == op.cols.get(mono, {})
                assert op.apply({mono: ONE}) == op.apply({mono: fresh}) == got
                assert op.apply({mono: other}) == vec_scale(other, got)
            # every monomial at once: targets hit twice go through addmul
            assert op.apply(dict.fromkeys(basis, ONE)) == \
                op.apply(dict.fromkeys(basis, fresh)) == \
                _act_on_vector(module, kind, i, dict.fromkeys(basis, ONE))


def test_apply_never_returns_a_zero_entry():
    # a new row from a ONE coefficient stores the entry itself; rows reached
    # twice are summed, and a cancellation leaves no entry
    op = SparseOp({"c": {"r": q(1), "s": q(1)}, "d": {"r": -q(1)}, "e": {"t": q(-1)}})
    assert op.apply({"c": ONE, "e": ONE}) == {"r": q(1), "s": q(1), "t": q(-1)}
    assert op.apply({"c": ONE, "d": ONE}) == op.apply({"c": Laurent({0: 1}), "d": ONE}) == \
        {"s": q(1)}
    with pytest.raises(TypeError):
        hash(op)


def test_unit_product_memo_keeps_only_interned_units():
    # a unit from the public constructor is equal to the interned one but is
    # another object: apply gives the same vector and the memo takes no entry
    op = SparseOp({"c": {"r": q(1), "s": -q(-1, 3)}, "d": {"r": q(2)}})
    fresh = Laurent({1: -1})
    assert fresh == -q(1) and fresh is not -q(1)
    before = dict(qring._UNIT_PRODUCTS)
    got = op.apply({"c": fresh, "d": q(-1)})
    assert qring._UNIT_PRODUCTS == before
    assert got == op.apply({"c": -q(1), "d": q(-1)})
    assert got == {"r": -q(2) + q(1), "s": q(2, 3)}
    # the interned operands are stored, under their ids
    assert (id(-q(1)), id(q(1))) in qring._UNIT_PRODUCTS
    assert all(a in qring._UNIT_IDS and b in qring._UNIT_IDS for a, b in qring._UNIT_PRODUCTS)


def test_verify_run_caches_only_documented_kinds():
    # generator actions are cached only as whole operators: no per-monomial
    # "act" entries, and every kind in the cache is one the _cached
    # docstring lists (and so bounds)
    config = cli.SuiteConfig("all", (1, 3), (1, 3))
    assert all(r.ok for r in cli.run_suite(config).checks)
    doc = qmodule._cached.__doc__
    listed = set(re.findall(r"^ {6}(\w+) {2,}\S", doc, re.M))
    assert "op" in listed and "act" not in listed
    kinds = {key[0] for key in qmodule._MODULE_CACHE}
    assert "act" not in kinds
    assert kinds <= listed, kinds - listed


def _stored(value):
    """Every operator and Laurent reachable from a cache value: operators and
    their entries, vector coefficients, and those inside lists, tuples and
    dicts of them."""
    if isinstance(value, Laurent):
        yield value
    elif isinstance(value, SparseOp):
        yield value
        for _, _, v in value.entries():
            yield v
    elif isinstance(value, dict):
        for x in value.values():
            yield from _stored(x)
    elif isinstance(value, (list, tuple)):
        for x in value:
            yield from _stored(x)


def test_cached_units_are_interned(monkeypatch):
    # Laurent.__eq__ tests identity first, and commutes_with compares the
    # cached eigenvalues of K: every unit a run stores must be the interned
    # object.  The ONE pass-throughs return an operand the caller holds, so
    # this also checks that no caller hands them a fresh unit to store.
    # SparseOp keeps no zero entry and no empty column, and apply and the
    # eigenvalue scan rely on it: no stored value is zero.
    monkeypatch.setattr(qmodule, "_MODULE_CACHE", {})
    assert all(r.ok for r in cli.run_suite(cli.SuiteConfig("all", (1, 3), (1, 3))).checks)
    stored = [x for value in qmodule._MODULE_CACHE.values() for x in _stored(value)]
    ops = [x for x in stored if isinstance(x, SparseOp)]
    scalars = [x for x in stored if isinstance(x, Laurent)]
    assert len(ops) > 100 and all(all(op.cols.values()) for op in ops)
    assert all(scalars)
    units = [x for x in scalars if x.is_unit()]
    assert len(units) > 500
    for x in units:
        ((e, c),) = x._terms.items()
        assert x is qring._UNITS[e, c, x._den], x


# every builder memoized by qmodule.cached
CACHED_BUILDERS = (
    qmodule._wedge_basis, Module.operator, howe._slot_basis, howe._right_map,
    howe.lowest_weight_vector, braidgrp.rank1_weyl, braidgrp._weyl_base,
    braidgrp.half_twist_R, braidgrp.howe_weyl_op, ktheory._divided_ops, geomcheck.walks,
)


def test_cached_builders_keep_name_and_doc():
    for fn in CACHED_BUILDERS:
        build = fn.__wrapped__
        assert fn.__name__ == build.__name__ and fn.__qualname__ == build.__qualname__
        assert fn.__doc__ is build.__doc__
    assert howe.lowest_weight_vector.__doc__.startswith("The sl_m lowest-weight vector")


def test_only_qmodule_binds_the_cache_hook():
    # the tracer rebinds qmodule._cached; a copy bound elsewhere would escape it
    for mod in (howe, braidgrp, ktheory, geomcheck):
        assert not hasattr(mod, "_cached"), mod.__name__


def test_failed_build_stores_nothing(monkeypatch):
    monkeypatch.setattr(qmodule, "_MODULE_CACHE", {})
    space = HoweSpace(2, 2)
    for _ in range(2):  # the second call builds again and raises again
        with pytest.raises(ValueError, match="no lowest-weight family i=5"):
            howe.lowest_weight_vector(space, 5, 1, 1)
    assert not [key for key in qmodule._MODULE_CACHE if key[0] == "lwv"]


def test_coproduct_free_values_are_cached_once(monkeypatch):
    # the bases read no coproduct and the suites build t on standard-coproduct
    # modules, so a flipped desk run caches as many of each as a standard one
    def counts(coproduct):
        monkeypatch.setattr(qmodule, "_MODULE_CACHE", {})
        cli.run_suite(cli.SuiteConfig("all", (1, 4), (1, 4), coproduct=coproduct))
        kinds = [key[0] for key in qmodule._MODULE_CACHE]
        return {kind: kinds.count(kind) for kind in ("basis", "slot_basis", "howe_basis", "weyl1")}

    standard = counts("standard")
    assert standard["basis"] > 0 and standard["weyl1"] > 0
    assert counts("flipped") == standard


def _small_modules():
    """Every Module(n, degrees) with 2 <= n <= 4 (n = 1 has no generators)
    and one or two factors, each of a fixed degree or the whole exterior
    algebra, under both coproducts."""
    for n in range(2, 5):
        opts = [None, *range(n + 1)]
        for degrees in [(d,) for d in opts] + [(d, e) for d in opts for e in opts]:
            for coproduct in COPRODUCTS:
                yield Module(n, degrees, coproduct)


def test_action_well_defined_on_any_lift():
    # acting on an unsorted tensor-algebra lift and straightening each
    # factor's block afterwards agrees with acting on the straightened wedge:
    # the sorted and the reversed lift of every basis monomial, by every
    # generator, against the degree-1 module Module(n, (1,) * total)
    cases = 0
    for wedge in _small_modules():
        n = wedge.rank
        for mono in wedge.basis():
            sizes = [len(f) for f in mono]
            lift = Module(n, (1,) * sum(sizes), wedge.coproduct)
            for word in {mono, tuple(f[::-1] for f in mono)}:
                coeff = ONE
                for f in word:
                    coeff = coeff * straighten(f, n)[0]
                for kind in (GEN_E, GEN_F, GEN_K, GEN_KINV):
                    for i in range(1, n):
                        via_wedge = vec_scale(coeff, wedge.act(kind, i, mono))
                        raw = lift.act(kind, i, tuple((x,) for f in word for x in f))
                        projected = {}
                        for lmono, c in raw.items():
                            letters = [x for (x,) in lmono]
                            blocks, pos = [], 0
                            for size in sizes:
                                st = straighten(letters[pos:pos + size], n)
                                if st is None:
                                    break
                                c = c * st[0]
                                blocks.append(st[1])
                                pos += size
                            else:
                                key = tuple(blocks)
                                total = projected.get(key, ZERO) + c
                                if total:
                                    projected[key] = total
                                else:
                                    projected.pop(key, None)
                        assert projected == via_wedge, (wedge, word, kind, i)
                        cases += 1
    assert cases == 56416


def test_singular_vectors_examples():
    V = Module(2, (1,))
    assert singular_vectors(V, (0, 1)) == [vec(((2,),))]

    M = Module(2, (1, 1))
    sols = singular_vectors(M, (1, 1))
    assert sols == [{((1,), (2,)): ONE, ((2,), (1,)): -q(-1)}]
    assert singular_vectors(M, (0, 2)) == [vec(((2,), (2,)))]


def test_singular_vectors_empty_and_multiple():
    M = Module(2, (1, 1))
    assert singular_vectors(M, (2, 0)) == []
    # in the full tensor square the (1,1) lowest space also contains the
    # two determinant lines
    full = Module(2, (None, None))
    sols = singular_vectors(full, (1, 1))
    assert len(sols) == 3
    # a weight of the wrong length is an error, not an empty weight space
    for weight in ((1, 1), (1, 1, 0, 0)):
        with pytest.raises(ValueError):
            singular_vectors(Module(3, (1, 1)), weight)


def test_weight_space_sizes():
    M = Module(3, (1, 2))
    assert len(weight_space(M, (1, 1, 1))) == 3


# ---------------------------------------------------------------------------
# nullspace oracle: sympy's kernel over QQ(x), with x = q^(1/D)


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def scaled_terms(a: Laurent, D: int) -> list:
    """Ascending (exponent * D, coefficient) pairs of a; a's denominator divides D."""
    return sorted((e * (D // a._den), c) for e, c in a._terms.items())


def lowest_weight_systems(m: int, coproduct: str) -> list:
    """Every (rows, ncols) that singular_vectors hands to nullspace when
    lowest_weight_vector solves for a family of rank m."""
    systems = []
    solve = qmodule.nullspace

    def record(rows, ncols):
        systems.append((rows, ncols))
        return solve(rows, ncols)

    with mock.patch.object(qmodule, "nullspace", record):
        for N in range(1, 2 * m + 1):
            space = HoweSpace(m, N, coproduct)
            for i, k, l in admissible_families(m, N):
                singular_vectors(space.block_module(k, l), family_weight(m, N, i))
    return systems


def laurents(den: int):
    """Values c * q^(e/den) with exponents in [-2, 2], coefficients in [-2, 2]."""
    terms = st.dictionaries(st.integers(-2 * den, 2 * den), st.integers(-2, 2), max_size=3)
    return st.builds(Laurent, terms, st.just(den))


@st.composite
def small_matrices(draw):
    """At most 4x5 over Z[q^(+-1)] or Z[q^(+-1/2)], some made rank deficient
    by a repeated or scaled row or a zero column."""
    den = draw(st.sampled_from((1, 2)))
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entry = st.just(ZERO) | laurents(den)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    defect = draw(st.sampled_from(("none", "repeat", "scale", "zero_column")))
    if defect in ("repeat", "scale") and nrows > 1:
        src, dst = draw(st.lists(st.integers(0, nrows - 1), min_size=2, max_size=2, unique=True))
        c = ONE if defect == "repeat" else draw(laurents(den))
        rows[dst] = [c * v for v in rows[src]]
    elif defect == "zero_column":
        col = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[col] = ZERO
    return rows, ncols


def check_nullspace_against_sympy(sp, rows, ncols):
    basis = nullspace(rows, ncols)
    values = [v for row in rows for v in row] + [v for vec in basis for v in vec]
    D = math.lcm(1, *(v._den for v in values))
    x = sp.Symbol("x")
    K = sp.QQ.frac_field(x)

    def to_sympy(a: Laurent):
        return sum((c * x**e for e, c in scaled_terms(a, D)), sp.Integer(0))

    # sympy's basis vector for free column f: 1 at f, 0 at the other free
    # columns, minus the reduced row entries at the pivots
    if rows:
        A = sp.polys.matrices.DomainMatrix(
            [[K.from_sympy(to_sympy(v)) for v in row] for row in rows], (len(rows), ncols), K
        )
        rref, pivots = A.rref()
        rref = rref.to_Matrix()
    else:
        pivots = ()
    free = [c for c in range(ncols) if c not in pivots]
    assert len(basis) == len(free)
    for f, vec in zip(free, basis):
        assert len(vec) == ncols
        for row in rows:
            assert sum((a * b for a, b in zip(row, vec)), ZERO) == ZERO
        want = [sp.Integer(0)] * ncols
        want[f] = sp.Integer(1)
        for t, pc in enumerate(pivots):
            want[pc] = -rref[t, f]
        got = [to_sympy(v) for v in vec]
        assert all(sp.cancel(g - got[f] * w) == 0 for g, w in zip(got, want))
        # primitive: the entries' gcd in Z[x] is a power of x
        shift = -min(scaled_terms(v, D)[0][0] for v in vec if v)
        polys = [sp.Poly(sp.expand(g * x**shift), x, domain=sp.ZZ) for g in got if g != 0]
        g = polys[0]
        for p in polys[1:]:
            g = g.gcd(p)
        assert g.is_monomial and abs(g.LC()) == 1, (vec, g)
        # unit-normalized: first nonzero entry has valuation 0, positive low coefficient
        e0, c0 = scaled_terms(next(v for v in vec if v), D)[0]
        assert e0 == 0 and c0 > 0


@pytest.mark.parametrize("coproduct", ["standard", "flipped"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_nullspace_matches_sympy_on_lowest_weight_systems(sp, m, coproduct):
    systems = lowest_weight_systems(m, coproduct)
    assert systems
    for rows, ncols in systems:
        check_nullspace_against_sympy(sp, rows, ncols)


@pytest.mark.parametrize("coproduct", ["standard", "flipped"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_nullspace_does_not_depend_on_row_order(m, coproduct):
    # singular_vectors hands nullspace its rows in insertion order, unsorted
    rng = random.Random(m)
    for rows, ncols in lowest_weight_systems(m, coproduct):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        want = nullspace(rows, ncols)
        assert nullspace(rows[::-1], ncols) == want
        assert nullspace(shuffled, ncols) == want


def _deficient_examples():
    h = q(1, 2)
    a = [ONE, 2 * q(1), ZERO, q(-1) - q(1)]
    b = [2 * h + q(-1), ZERO, -ONE, h * h * h, ZERO]
    c = [ZERO, ZERO, q(1) + ONE, 2 * q(-1), ONE]
    return [
        ([a, list(a)], 4, 3),  # repeated row
        ([b, [(h - 2) * v for v in b], c], 5, 3),  # scaled row, zero column
        ([[ZERO] * 3], 3, 3),  # zero matrix: every column free
    ]


@pytest.mark.parametrize("rows,ncols,nullity", _deficient_examples())
def test_nullspace_matches_sympy_on_deficient_examples(sp, rows, ncols, nullity):
    assert len(nullspace(rows, ncols)) == nullity
    check_nullspace_against_sympy(sp, rows, ncols)


@settings(max_examples=150, deadline=None)
@given(small_matrices())
def test_nullspace_matches_sympy_on_random_matrices(sp, case):
    check_nullspace_against_sympy(sp, *case)


# ---------------------------------------------------------------------------
# laurent_gcd oracle: sympy's gcd in Z[x] of the polynomials a q^(-val a),
# with x = q^(1/D), on pairs with a planted common factor


def _seeded_laurent(rng, den, terms=3, coeff=2, exp=4):
    t = {}
    for _ in range(rng.randint(0, terms)):
        c = rng.randint(-coeff, coeff)
        if c:
            t[rng.randint(-exp, exp)] = c
    return Laurent(t, den)


def _gcd_cases(count):
    rng = random.Random(7)
    cases = []
    while len(cases) < count:
        f, g, h = (_seeded_laurent(rng, rng.choice((1, 2, 3)), terms=4, coeff=5)
                   for _ in range(3))
        if f and g and h:
            cases.append((f * g, f * h, f))
    return cases


def test_laurent_gcd_matches_sympy_with_planted_factors(sp):
    x = sp.Symbol("x")
    for a, b, f in _gcd_cases(300):
        g = laurent_gcd(a, b)
        D = math.lcm(*(v._den for v in (a, b, f, g)))

        def poly(v):
            terms = scaled_terms(v, D)
            low = terms[0][0]
            return sp.Poly(sum(c * x**(e - low) for e, c in terms), x, domain=sp.ZZ)

        want = poly(a).gcd(poly(b))
        e0, c0 = scaled_terms(g, D)[0]
        assert e0 == 0 and c0 > 0, (a, b, g)
        assert poly(g) in (want, -want), (a, b, g, want)
        # g divides a and b, and the planted factor's primitive part divides
        # g (divexact raises otherwise)
        a.divexact(g), b.divexact(g)
        g.divexact(f.divexact(Laurent.integer(f.content())))
        assert g.content() == math.gcd(a.content(), b.content())


def test_nullspace_on_a_seeded_batch_lies_in_the_kernel():
    # at most 4x5, <= 3 terms per entry, coefficients in [-2, 2], exponents
    # in [-4, 4] over a denominator of 1, 2 or 3 per entry: Euclid over Q in
    # the content gcd blew up on such matrices
    rng = random.Random(7)
    for _ in range(100):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[_seeded_laurent(rng, rng.choice((1, 2, 3))) for _ in range(ncols)]
                for _ in range(nrows)]
        for x in nullspace(rows, ncols):
            assert any(x)
            for row in rows:
                assert sum((a * b for a, b in zip(row, x)), ZERO) == ZERO


# commutes_with against the two products.  A label missing from a diagonal
# operator reads as eigenvalue 0.  A drawn zero is left out, as no operator
# holds a zero entry, so a zero eigenvalue is a missing label.
_LABELS = st.sampled_from(range(4))
_VALUES = st.sampled_from([ZERO, ONE, q(1), q(-1, 2)])


def _draw_diagonal(draw):
    eigen = draw(st.dictionaries(_LABELS, _VALUES))
    return {c: {c: v} for c, v in eigen.items() if v}


@st.composite
def diagonal_and_other(draw):
    a = _draw_diagonal(draw)
    if draw(st.booleans()):
        # one off-diagonal entry: a is no longer diagonal
        r, c = draw(st.tuples(_LABELS, _LABELS).filter(lambda rc: rc[0] != rc[1]))
        a.setdefault(c, {})[r] = draw(_VALUES.filter(bool))
    if draw(st.booleans()):
        # b diagonal too: both sides are, unless a took an off-diagonal entry
        return SparseOp(a), SparseOp(_draw_diagonal(draw))
    b = {}
    entries = draw(st.dictionaries(st.tuples(_LABELS, _LABELS), _VALUES, max_size=4))
    for (r, c), v in entries.items():
        if v:
            b.setdefault(c, {})[r] = v
    return SparseOp(a), SparseOp(b)


def _product_by_apply(a, b):
    """a @ b by the triple loop over b's columns, their entries and a's
    entries, with no SparseOp.apply: zero sums and empty columns dropped."""
    cols = {}
    for c, col in b.cols.items():
        acc = {}
        for k, v in col.items():
            for r, w in a.cols.get(k, {}).items():
                acc[r] = acc.get(r, ZERO) + w * v
        cols[c] = {r: x for r, x in acc.items() if x}
    return SparseOp(cols)


@settings(max_examples=300, deadline=None)
@given(diagonal_and_other())
def test_commutes_with_matches_the_products(case):
    a, b = case
    want = _product_by_apply(a, b) == _product_by_apply(b, a)
    # the second round reads the diagonals memoized by the first
    for _ in range(2):
        assert a.commutes_with(b) == want
        assert b.commutes_with(a) == want


def test_diagonal_is_the_eigenvalue_map_scanned_once():
    # labels 0..2; label 2 has eigenvalue 0, so no column and no map entry
    op = SparseOp({0: {0: q(1)}, 1: {1: q(-1, 2)}, 2: {}})
    diag = op.diagonal()
    assert diag == {0: q(1), 1: q(-1, 2)} and 2 not in diag
    assert op.diagonal() is diag
    assert SparseOp({}).diagonal() == {}
    # one off-diagonal entry, in a column with or without its own label
    for cols in ({0: {0: q(1)}, 1: {1: ONE, 0: ONE}}, {0: {0: q(1)}, 1: {0: ONE}}):
        off = SparseOp(cols)
        assert off.diagonal() is None
        assert off.diagonal() is None


# products with a diagonal side against the apply-based product: identities
# on some labels, eigenvalues other than ONE, a non-unit, a ONE from the
# public constructor (equal to ONE, not the interned object), and labels
# missing on either side
_PRODUCT_VALUES = st.sampled_from([ONE, q(1), q(-1, 2), -q(-1), ONE + q(2), Laurent({0: 1})])


@st.composite
def diagonal_and_any(draw):
    if draw(st.booleans()):
        d = SparseOp.identity(draw(st.sets(_LABELS)))
    else:
        d = SparseOp({c: {c: v} for c, v in draw(st.dictionaries(_LABELS, _PRODUCT_VALUES)).items()})
    other = {}
    for (r, c), v in draw(st.dictionaries(st.tuples(_LABELS, _LABELS), _PRODUCT_VALUES,
                                          max_size=6)).items():
        other.setdefault(c, {})[r] = v
    return d, SparseOp(other)


@settings(max_examples=300, deadline=None)
@given(diagonal_and_any())
def test_products_with_a_diagonal_side_match_apply(case):
    d, b = case
    assert d.diagonal() is not None
    for x, y in ((d, b), (b, d)):
        got = x @ y
        assert got == _product_by_apply(x, y)
        assert all(got.cols.values()) and all(v for _, _, v in got.entries())


def test_a_column_scaled_by_one_is_shared():
    a = SparseOp({0: {0: q(1), 1: ONE}, 1: {0: q(-1)}})
    d = SparseOp({0: {0: ONE}, 1: {1: q(1)}})
    got = a @ d
    assert got.cols[0] is a.cols[0]
    assert got.cols[1] == {0: ONE}


# values whose sums cancel: the general product must drop what cancels
_CANCELLING = st.sampled_from([ONE, -ONE, q(1), -q(1), ONE + q(2), Laurent({0: 1})])


@st.composite
def two_operators(draw):
    ops = []
    for _ in range(2):
        cols = {}
        for (r, c), v in draw(st.dictionaries(st.tuples(_LABELS, _LABELS), _CANCELLING,
                                              max_size=8)).items():
            cols.setdefault(c, {})[r] = v
        ops.append(SparseOp(cols))
    return ops


@settings(max_examples=300, deadline=None)
@given(two_operators())
def test_general_product_matches_the_triple_loop(case):
    a, b = case
    before = {c: dict(col) for c, col in a.cols.items()}
    got = a @ b
    assert got == _product_by_apply(a, b)
    assert all(got.cols.values()) and all(v for _, _, v in got.entries())
    assert a.cols == before  # apply's copy of a first column is not a's column


def test_general_product_drops_what_cancels():
    # column c: the first input coefficient is the interned ONE, so apply
    # starts from a copy of a's column x, and column y then cancels its r
    # entry; column d cancels to nothing and is dropped
    a = SparseOp({"x": {"r": q(1), "s": ONE}, "y": {"r": -q(1)}, "z": {"s": -ONE}})
    b = SparseOp({"c": {"x": ONE, "y": ONE}, "d": {"x": ONE, "y": ONE, "z": ONE}})
    assert a.diagonal() is None and b.diagonal() is None
    got = a @ b
    assert got.cols == {"c": {"s": ONE}} == _product_by_apply(a, b).cols
    assert a.cols["x"] == {"r": q(1), "s": ONE}


def test_move_table_matches_weight_and_swap():
    # every factor of rank <= 5, i.e. every subset of 1..5, at every index
    factors = [f for k in range(6) for f in itertools.combinations(range(1, 6), k)]
    for i in range(1, 5):
        table = qmodule.MOVES[i]
        for f in factors:
            a, swapped = table[f]
            assert a == (i in f) - (i + 1 in f), (i, f)
            want = tuple(sorted({i: i + 1, i + 1: i}.get(x, x) for x in f))
            assert swapped == want, (i, f)
        # the docstring's bound: at most 2^rank entries, rank the largest letter
        rank = max(max(f, default=1) for f in table)
        assert len(table) <= 2 ** rank
    assert qmodule.MOVES[2] is qmodule.MOVES[2]
