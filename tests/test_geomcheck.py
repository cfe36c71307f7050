import pytest

from qhowe import cli, qmodule
from qhowe import geomcheck as gc
from qhowe.geomcheck import (
    LineBundleClass,
    NonFiberedError,
    canonical_class,
    canonical_w,
    canonical_y,
    det_quotient,
    det_z_quotient,
    dim_flag,
    make_spec,
    spec_w,
    spec_x1,
    spec_x12,
    spec_x2,
    spec_y,
    spec_y3,
    walks,
)


def test_dim_y_examples():
    assert dim_flag(spec_y(4, 2, 2)) == 8
    for m in range(1, 7):
        for k in range(m + 1):
            for l in range(m + 1):
                assert dim_flag(spec_y(m, k, l)) == k * (m - k) + l * (m - l)


def test_dim_w_examples():
    assert dim_flag(spec_w(4, 2, 2, 1)) == 7
    for m in range(2, 6):
        for k in range(m + 1):
            for l in range(m + 1):
                for r in range(l + 1):
                    if k + r > m:
                        continue
                    dw = dim_flag(spec_w(m, k, l, r))
                    assert 2 * dw == dim_flag(spec_y(m, k, l)) + dim_flag(
                        spec_y(m, k + r, l - r)
                    )


def test_dim_is_order_independent():
    spec = spec_x12(5, 1, 2, 1)
    ws = walks(spec)
    assert len(ws) == 2
    dims = {sum(step[1] for step in steps) for steps in ws.values()}
    assert dims == {dim_flag(spec)}


# Admissible complete forgetting orders per family, the same at every point
# of the m <= 6 grid (zero jumps included).
ORDERS = {
    spec_y3: [(3, 2, 1)],
    spec_x1: [(1, 3, 2), (3, 1, 2), (3, 2, 1)],
    spec_x2: [(2, 3, 1), (3, 2, 1)],
    spec_x12: [(3, 1, 2), (3, 2, 1)],
}


@pytest.mark.parametrize("m", range(1, 7))
def test_forgetting_orders_on_the_grid(m):
    for k in range(m + 1):
        for l in range(m + 1):
            assert list(walks(spec_y(m, k, l))) == [(2, 1)]
            for r in range(l + 1):
                if k + r <= m:
                    assert list(walks(spec_w(m, k, l, r))) == [(3, 1, 2)]
    for a in range(m + 1):
        for b in range(m - a + 1):
            for c in range(m - a - b + 1):
                for family, orders in ORDERS.items():
                    ws = walks(family(m, a, b, c))
                    assert list(ws) == orders
                    dims = {sum(step[1] for step in steps) for steps in ws.values()}
                    assert len(dims) == 1


def test_dim_flag_rejects_disagreeing_walks(monkeypatch):
    spec = spec_y(3, 1, 1)
    fake = {(2, 1): [(2, 1, "mid", (1, 2))], (1, 2): [(1, 2, "mid", (0, 2))]}
    monkeypatch.setattr(gc, "walks", lambda s: fake)
    with pytest.raises(AssertionError, match=r"forgetting orders disagree: \[1, 2\]$"):
        dim_flag(spec)


def test_walks_are_cached_once_per_spec(monkeypatch):
    # the geom suites ask for the same spec many times; on an empty cache
    # a desk run holds one walks entry per distinct FlagSpec asked for
    monkeypatch.setattr(qmodule, "_MODULE_CACHE", {})
    asked = []
    real = gc.walks
    monkeypatch.setattr(gc, "walks", lambda spec: asked.append(spec) or real(spec))
    assert cli.run_suite(cli.SuiteConfig("all", (1, 4), (1, 4))).all_pass()
    cached = [key[1] for key in qmodule._MODULE_CACHE if key[0] == "walks"]
    assert set(cached) == set(asked) and len(cached) == 434 and len(asked) > 2 * len(cached)
    assert real(asked[0]) is real(asked[0])


def test_cached_walk_is_immutable():
    ws = walks(spec_x1(4, 1, 1, 1))
    assert len(ws) == 3
    with pytest.raises(TypeError):
        ws[(1, 2, 3)] = ()
    for steps in ws.values():
        assert type(steps) is tuple and all(type(step) is tuple for step in steps)
        with pytest.raises(TypeError):
            steps[0] = steps[1]
    assert walks(spec_x1(4, 1, 1, 1)) is ws


def test_non_fibered_spec_raises():
    # middle lattice unconstrained from above: not an iterated bundle
    spec = make_spec(3, (1, 1), {(2, 1)})
    with pytest.raises(NonFiberedError):
        dim_flag(spec)


def test_codim_examples():
    assert all(r.ok for r in gc.codim_checks(4, 1, 1, 1))
    assert dim_flag(spec_y3(4, 1, 1, 1)) - dim_flag(spec_x1(4, 1, 1, 1)) == 1
    assert dim_flag(spec_y3(4, 1, 1, 1)) - dim_flag(spec_x12(4, 1, 1, 1)) == 2
    assert all(r.ok for r in gc.codim_checks(3, 1, 1, 1))
    # b = 0: both codimensions vanish
    d = dim_flag(spec_y3(4, 1, 0, 2))
    assert dim_flag(spec_x1(4, 1, 0, 2)) == d
    assert dim_flag(spec_x2(4, 1, 0, 2)) == d


@pytest.mark.parametrize("m", range(1, 7))
def test_codim_grid(m):
    for a in range(m + 1):
        for b in range(m - a + 1):
            for c in range(m - a - b + 1):
                assert all(r.ok for r in gc.codim_checks(m, a, b, c))


def test_canonical_grassmannian():
    # single-step chain: det(S)^dim(Q) det(Q)^(-dim S) with Q the z-capped
    # complement, specializing to the classical Grassmannian exponents
    m, k = 4, 2
    spec = make_spec(m, (k,), {(1, 0)})
    got = canonical_class(spec)
    want = det_quotient(spec, 1, 0).power(m).twisted(-2 * m * k)
    assert got == want


def test_canonical_y_verbatim():
    for m in range(1, 7):
        for k in range(m + 1):
            for l in range(m + 1):
                got = canonical_class(spec_y(m, k, l))
                assert got == canonical_y(m, k, l)
                assert got.exps == (m, m)
                assert got.twist == -2 * m * (k + l) - 2 * k * l


def test_canonical_y_specialization_k0():
    got = canonical_class(spec_y(5, 0, 3))
    assert got == det_quotient(spec_y(5, 0, 3), 2, 0).power(5).twisted(-2 * 5 * 3)


def test_canonical_w_verbatim_and_order_independent():
    for m in range(2, 7):
        for k in range(m + 1):
            for l in range(m + 1):
                for r in range(l + 1):
                    if k + r > m:
                        continue
                    spec = spec_w(m, k, l, r)
                    got = canonical_class(spec)
                    assert got == canonical_w(m, k, l, r)
                    for steps in walks(spec).values():
                        assert gc._class_along(spec, steps) == got


def test_z_quotient_rewrites():
    spec = spec_y(4, 1, 2)
    # det(z^(-1)L_i/L_i) = O {2 b_i + 2m}
    assert det_z_quotient(spec, 1, 1) == LineBundleClass((0, 0), 2 * 1 + 2 * 4)
    assert det_z_quotient(spec, 0, 0) == LineBundleClass((0, 0), 2 * 4)
    # det(z^(-1)L_i/L_{i+1}) det(L_{i+1}/L_i) = det(z^(-1)L_i/L_i)
    lhs = det_z_quotient(spec, 1, 2) * det_quotient(spec, 2, 1)
    assert lhs == det_z_quotient(spec, 1, 1)


def test_adjunction_examples():
    # shift exponents r(k-l+r) and r(l-k-r)
    res = gc.adjunction_shifts(4, 2, 2, 1)
    assert all(r.ok for r in res)
    res = gc.adjunction_shifts(4, 1, 3, 1)
    by_id = {r.id: r for r in res}
    assert by_id["geom.adjunction_dim_identity"].ok  # right shift -1
    assert all(r.ok for r in res)
    assert all(r.ok for r in gc.adjunction_shifts(3, 1, 2, 1))


@pytest.mark.parametrize("m", range(1, 7))
def test_adjunction_grid(m):
    for k in range(m + 1):
        for l in range(m + 1):
            for r in range(l + 1):
                if k + r > m:
                    continue
                assert all(x.ok for x in gc.adjunction_shifts(m, k, l, r))



def test_adjunction_shifts_error_names_its_parameters():
    # r > l, and k + r > m
    with pytest.raises(ValueError, match=r"m=3, k=1, l=1, r=2$"):
        gc.adjunction_shifts(3, 1, 1, 2)
    with pytest.raises(ValueError, match=r"m=3, k=3, l=1, r=1$"):
        gc.adjunction_shifts(3, 3, 1, 1)

def test_fiber_bundle_facts():
    assert all(r.ok for r in gc.fiber_bundle_facts(2, 0, 2))
    assert dim_flag(spec_w(2, 0, 2, 1)) - dim_flag(spec_y(2, 0, 2)) == 1
    assert all(r.ok for r in gc.fiber_bundle_facts(3, 1, 2))  # l - k - 1 = 0
    assert dim_flag(spec_w(3, 1, 2, 1)) == dim_flag(spec_y(3, 1, 2))
    res = gc.fiber_bundle_facts(4, 2, 2)
    assert all(r.ok for r in res)
    from qhowe.qring import qbinom

    assert (qbinom(4, 2) * qbinom(4, 2)).at_one() == 36


def test_flagspec_validation():
    with pytest.raises(ValueError):
        make_spec(3, (1, -1), {(1, 0)})
    with pytest.raises(ValueError):
        make_spec(3, (1, 1), {(1, 2)})  # condition must point down
    # zero jumps are allowed (degenerate chain members)
    assert dim_flag(spec_w(3, 1, 2, 2)) == dim_flag(spec_w(3, 1, 2, 2))


def test_range_errors_name_their_parameters():
    with pytest.raises(ValueError, match=r"negative jump size in steps=\(1, -1\)$"):
        make_spec(3, (1, -1), {(1, 0)})
    with pytest.raises(ValueError, match=r"bad condition \(1, 2\): need 0 <= j < i <= p=2$"):
        make_spec(3, (1, 1), {(1, 2)})
    spec = spec_y(3, 1, 1)
    with pytest.raises(ValueError, match=r"need 0 <= j <= i <= p: j=2, i=1, p=2$"):
        det_quotient(spec, 1, 2)
    with pytest.raises(ValueError, match=r"need L_j c L_i in the chain: j=0, i=3, p=2$"):
        det_z_quotient(spec, 0, 3)
    with pytest.raises(ValueError, match=r"need a \+ b \+ c <= m: m=3, a=1, b=2, c=1$"):
        gc.codim_checks(3, 1, 2, 1)


def test_spec_with_no_walk_raises():
    # the one member has no condition z L_1 c L_0, so it is an unbounded top member
    spec = make_spec(3, (1,), set())
    assert walks(spec) == {}
    for fold in (canonical_class, dim_flag):
        with pytest.raises(NonFiberedError, match=r"no admissible forgetting order for FlagSpec"):
            fold(spec)


def test_w_ranks():
    for m in range(7):
        for k in range(m + 1):
            for l in range(m + 1):
                want = [r for r in range(l + 1) if k + r <= m]
                assert list(gc.w_ranks(m, k, l)) == want


def test_line_bundle_class_ops():
    a = LineBundleClass((1, 2), 3)
    b = LineBundleClass((0, -2), 1)
    assert a * b == LineBundleClass((1, 0), 4)
    assert a.inverse() == LineBundleClass((-1, -2), -3)
    assert a.power(2) == LineBundleClass((2, 4), 6)
    assert "det(L1/L0)^1" in a.text()
