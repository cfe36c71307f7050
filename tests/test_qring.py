import math

import pytest
from hypothesis import given, settings, strategies as st

from qhowe.qring import (
    ONE,
    ZERO,
    InexactDivisionError,
    Laurent,
    addmul,
    qbinom,
    qfact,
    qint,
)

q = Laurent.q


def over_six(terms: dict) -> Laurent:
    """Sum of c * q^(n/dd) over the ((n, dd), c) items, dd dividing 6; terms
    of equal exponent add up."""
    sixths: dict[int, int] = {}
    for (n, dd), c in terms.items():
        sixths[n * (6 // dd)] = sixths.get(n * (6 // dd), 0) + c
    return Laurent(sixths, 6)


def laurents():
    term = st.tuples(st.integers(-6, 6), st.integers(1, 3))
    return st.dictionaries(term, st.integers(-9, 9), max_size=5).map(over_six)


@settings(max_examples=200, deadline=None)
@given(laurents(), laurents(), laurents())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@settings(max_examples=200, deadline=None)
@given(laurents(), laurents())
def test_no_zero_divisors(a, b):
    if a and b:
        assert a * b


@settings(max_examples=100, deadline=None)
@given(laurents(), laurents())
def test_divexact_roundtrip(a, b):
    if b:
        assert (a * b).divexact(b) == a


def test_qint_values():
    assert qint(0) == ZERO
    assert qint(1) == ONE
    assert qint(2) == q(-1) + q(1)
    assert qint(-3) == -qint(3)
    assert qint(5).at_one() == 5


def test_qfact_values():
    assert qfact(0) == ONE
    assert qfact(2) == q(-1) + q(1)
    # product expanded by ordinary multiplication
    assert qfact(3) == (q(-1) + q(1)) * (q(-2) + 1 + q(2))


def test_qbinom_values():
    assert qbinom(2, 1) == qint(2)
    for n in range(6):
        assert qbinom(n, 0) == ONE
    assert qbinom(4, 2) == q(-4) + q(-2) + 2 + q(2) + q(4)


@pytest.mark.parametrize("n", range(0, 8))
def test_qbinom_symmetry_and_value_at_one(n):
    for k in range(n + 1):
        b = qbinom(n, k)
        assert b == qbinom(n, n - k)
        assert b.at_one() == math.comb(n, k)
        # palindromic, positive coefficients, integer exponents
        terms = sorted(b._terms.items())
        assert terms == [(-e, c) for e, c in reversed(terms)]
        assert b._den == 1 and all(c > 0 for _, c in terms)


@pytest.mark.parametrize("n", range(1, 8))
def test_q_pascal_recursion(n):
    for k in range(1, n):
        lhs = qbinom(n, k)
        rhs = q(-k) * qbinom(n - 1, k) + q(n - k) * qbinom(n - 1, k - 1)
        assert lhs == rhs


def test_qbinom_validates_range():
    with pytest.raises(ValueError):
        qbinom(2, 3)
    with pytest.raises(ValueError):
        qbinom(2, -1)


def test_divexact_failure_is_loud():
    with pytest.raises(InexactDivisionError):
        qint(2).divexact(qint(3))
    with pytest.raises(InexactDivisionError):
        (q(1) + 1).divexact(Laurent.integer(2))
    with pytest.raises(InexactDivisionError):
        ONE.divexact(ZERO)


def test_fractional_exponents():
    half = q(1, 2)
    assert half * half == q(1)
    assert half * half * half * half == q(2)
    assert (q(1, 2) * q(1, 3)) == q(5, 6)
    assert q(-3, 2).unit_inverse() == q(3, 2)


def test_units():
    assert q(7).is_unit()
    assert (-q(-2, 3)).is_unit()
    assert not (ONE + q(1)).is_unit()
    assert not Laurent.integer(2).is_unit()


def test_canonical_text():
    assert ZERO.text() == "0"
    assert (q(-1, 2) - 2 + q(3, 2)).text() == "1*q^(-1/2)-2+1*q^(3/2)"
    assert (-ONE).text() == "-1"
    assert (3 * q(2)).text() == "3*q^(2)"


def test_hash_and_equality_across_denominators():
    assert q(2, 2) == q(1)
    assert hash(q(2, 2)) == hash(q(1))
    assert q(1, 2) != q(1, 3)


# ---------------------------------------------------------------------------
# independent oracle: sympy polynomials in x = q^(1/6)

ORACLE_DENS = (1, 2, 3, 6)
ORACLE_SHIFT = 200  # x^ORACLE_SHIFT clears every negative exponent below


@pytest.fixture(scope="module")
def sp():
    return pytest.importorskip("sympy")


def laurents_over():
    """Values c * q^(e/den) with one denominator per value, from ORACLE_DENS."""
    terms = st.dictionaries(st.integers(-8, 8), st.integers(-9, 9), max_size=5)
    return st.builds(Laurent, terms, st.sampled_from(ORACLE_DENS))


def nonmonic_laurents():
    """Nonzero values without a unit coefficient: non-monic at both ends,
    like the Bareiss pivots that nullspace divides by."""
    big = st.integers(2, 9) | st.integers(-9, -2)
    terms = st.dictionaries(st.integers(-8, 8), big, min_size=1, max_size=4)
    return st.builds(Laurent, terms, st.sampled_from(ORACLE_DENS))


def scaled_terms(a: Laurent, D: int) -> list:
    """Ascending (exponent * D, coefficient) pairs of a; a's denominator divides D."""
    return sorted((e * (D // a._den), c) for e, c in a._terms.items())


def to_sympy(sp, a: Laurent):
    x = sp.Symbol("x")
    return sum((c * x**e for e, c in scaled_terms(a, 6)), sp.Integer(0))


def from_sympy(sp, expr) -> Laurent:
    x = sp.Symbol("x")
    poly = sp.Poly(sp.expand(expr * x**ORACLE_SHIFT), x)
    return Laurent({e - ORACLE_SHIFT: int(c) for (e,), c in poly.terms()}, 6)


def sympy_divexact(sp, a: Laurent, b: Laurent):
    """The quotient a/b in Z[q^(1/6), q^(-1/6)] by sympy, or None."""
    x = sp.Symbol("x")
    num = sp.Poly(sp.expand(to_sympy(sp, a) * x**ORACLE_SHIFT), x, domain=sp.QQ)
    den = sp.Poly(sp.expand(to_sympy(sp, b) * x**ORACLE_SHIFT), x, domain=sp.QQ)
    low = min(e for (e,) in den.monoms())
    den = den.exquo(sp.Poly(x**low, x, domain=sp.QQ))
    quot, rem = num.div(den)
    if not rem.is_zero or any(not c.is_integer for c in quot.coeffs()):
        return None
    return from_sympy(sp, quot.as_expr() / x**low)


@settings(max_examples=100, deadline=None)
@given(laurents_over(), laurents_over())
def test_arithmetic_matches_sympy(sp, a, b):
    sa, sb = to_sympy(sp, a), to_sympy(sp, b)
    assert a + b == from_sympy(sp, sa + sb)
    assert a - b == from_sympy(sp, sa - sb)
    assert a * b == from_sympy(sp, sa * sb)
    assert -a == from_sympy(sp, -sa)


@settings(max_examples=100, deadline=None)
@given(laurents_over(), laurents_over(), laurents_over())
def test_addmul_matches_sympy(sp, acc, a, b):
    sa, sb = to_sympy(sp, a), to_sympy(sp, b)
    assert addmul(acc, a, b) == from_sympy(sp, to_sympy(sp, acc) + sa * sb)
    assert addmul(None, a, b) == from_sympy(sp, sa * sb)


@settings(max_examples=100, deadline=None)
@given(laurents_over(), laurents_over())
def test_divexact_matches_sympy(sp, a, b):
    if not b:
        return
    want = sympy_divexact(sp, a, b)
    if want is None:
        with pytest.raises(InexactDivisionError):
            a.divexact(b)
    else:
        assert a.divexact(b) == want


@settings(max_examples=100, deadline=None)
@given(laurents_over(), nonmonic_laurents())
def test_divexact_by_nonmonic_matches_sympy(sp, a, b):
    # the product comes from sympy, so the round trip does not lean on __mul__
    ab = from_sympy(sp, to_sympy(sp, a) * to_sympy(sp, b))
    assert sympy_divexact(sp, ab, b) == a
    assert ab.divexact(b) == a
    if a:
        # a perturbed product is usually no multiple of b; sympy decides
        off = ab + Laurent.integer(1)
        want = sympy_divexact(sp, off, b)
        if want is None:
            with pytest.raises(InexactDivisionError):
                off.divexact(b)
        else:
            assert off.divexact(b) == want


def test_divexact_rejects_rational_quotients(sp):
    # divisible over Q[q] but not over Z[q]: the quotients are (1+q)/2 and
    # 1 + q/2 + q^2, whose lowest and highest terms are integral
    for a, b in [
        (Laurent({0: 1, 1: 1}), Laurent.integer(2)),
        (Laurent({0: 2, 1: 3, 2: 3, 3: 2}), Laurent({0: 2, 1: 2})),
    ]:
        assert sympy_divexact(sp, a, b) is None
        with pytest.raises(InexactDivisionError):
            a.divexact(b)


def assert_canonical(r: Laurent):
    """No zero coefficients, a reduced denominator, and the same value (and
    hash) as the public constructor builds from a non-reduced form."""
    terms, den = r._terms, r._den
    assert all(terms.values())
    g = den
    for e in terms:
        g = math.gcd(g, e)
    assert g == 1
    if not terms:
        assert den == 1
    again = Laurent({3 * e: c for e, c in terms.items()}, 3 * den)
    assert r == again and hash(r) == hash(again)
    assert (again._terms, again._den) == (terms, den)


def units_over():
    """Units +-q^(e/den) from the public constructor, which never returns the
    interned object."""
    return st.builds(
        lambda e, c, den: Laurent({e: c}, den),
        st.integers(-8, 8), st.sampled_from((1, -1)), st.sampled_from(ORACLE_DENS),
    )


def assert_interned(r: Laurent):
    """A unit result is the one interned object for its value, and equals and
    hashes like a fresh copy from the public constructor."""
    if not r.is_unit():
        return
    ((e, c),) = r._terms.items()
    fresh = Laurent({e: c}, r._den)
    assert fresh is not r and r == fresh and hash(r) == hash(fresh)
    assert r is (q(e, r._den) if c == 1 else -q(e, r._den))


@settings(max_examples=200, deadline=None)
@given(laurents_over(), laurents_over())
def test_identity_factors_pass_through(x, acc):
    # with no accumulator a factor that is the interned ONE returns the other
    # factor itself, and zero + x returns x; with an accumulator, or zero - x,
    # the result is computed
    assert addmul(None, ONE, x) is x
    assert addmul(None, x, ONE) is x
    assert ZERO + x is x
    assert_canonical(x)
    r = addmul(acc, ONE, x)
    assert r == acc + x
    assert_canonical(r)
    if x:
        r = ZERO - x
        assert r == -x and r is not x
        assert_canonical(r)


@settings(max_examples=100, deadline=None)
@given(laurents_over(), laurents_over(), laurents_over(), units_over(), units_over())
def test_results_are_canonical(a, b, c, u, v):
    q1 = q(1)
    ((e, _),) = u._terms.items()
    d = u._den
    results = [a + b, a - b, a * b, -a, addmul(c, a, b), addmul(None, a, b)]
    if b:
        results.append((a * b).divexact(b))
    # unit results of every operation, from operands that are not interned
    results += [
        a + (u - a), (a + u) - a, u * v, -u, u.unit_inverse(),
        addmul(None, u, v), addmul(u - u * v, u, v), u.divexact(v), (u * v).divexact(v),
        q(e, d), q(2 * e, 2 * d), Laurent.integer(u.at_one()),
        q1 * u, addmul(q1, a, b), q1.divexact(u), a.divexact(q1),
    ]
    if a:
        results.append((u * a).divexact(a))
    for r in results:
        assert_canonical(r)
        # an operand passed through unchanged (x + 0, acc + 0 * b) was not built
        if not any(r is x for x in (a, b, c, u, v)):
            assert_interned(r)
    assert q(2, 4) is q(1, 2) is q(-2, -4)
    # interning shares q^1 with every result above: none of them changed it
    assert (q1._terms, q1._den) == ({1: 1}, 1)
    if a and b:
        # cancellation gives the shared zero
        assert a - a is ZERO
        assert addmul(-(a * b), a, b) is ZERO
