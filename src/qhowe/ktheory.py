"""Decategorified sl_2 structure on the direct sum of the (k, l) blocks.

Each block K(k, l) is identified with wedge^k (x) wedge^l through the Howe
space; e and f are the transported sl_2 generators with divided powers
e^(r) = e^r/[r]!.  divided_op takes them from the closed form
qmodule.divided_columns on the slot module, with no product or division,
and transports them by HoweSpace.from_slot_op; so the divided_product and
deformed_shadow_crosscheck checks test that closed form against products
of the operators it builds.  Homological and equivariant shifts
decategorify through

    class([a]{b}) = (-1)^a q^(eps * b)

with a single global sign eps.  Its default is the constant -1
(grading_sign), i.e. class({-s}) = q^s: the unique sign for which the
alternating divided-power sum (the Euler characteristic of the twist
complex) equals the quantum Weyl element at the two smallest anchors.
Every report checks that equality under the sign it states
(ktheory.rickard_eq_weyl), so a wrong sum fails it.

conventions() resolves the coproduct, the Weyl variant and eps of a run
into one Conventions value, and it is the only place where an unset
convention gets a value.  The verify_* suites take it whole; the builders
(divided_op, divided_block, rickard_euler, ...) take the fields they
depend on explicitly, with no default, so their cache entries are shared
across the values of the others.
"""

from __future__ import annotations

from .qmodule import COPRODUCTS, GEN_E, GEN_F, Conventions, cached, divided_columns
from ._linalg import SparseOp
from .qring import Laurent, qbinom, qint
from .howe import HoweSpace, blocks, howe_mono_str
from .braidgrp import howe_weyl_op, inverse_variant, parse_variant, selected_variant
from .report import CheckResult, check, check_equal


def shift_class(a: int, b: int, eps: int) -> Laurent:
    """K-class of the shift [a]{b}: (-1)^a q^(eps*b)."""
    s = Laurent.q(eps * b)
    return -s if a % 2 else s


def divided_op(m: int, N: int, kind: str, r: int, coproduct: str) -> SparseOp:
    """e^(r) or f^(r) on the whole degree-N space, zero above the top power."""
    if r < 0:
        raise ValueError("divided power needs r >= 0")
    powers = _divided_ops(m, N, kind, coproduct)
    return powers[r] if r < len(powers) else SparseOp({})


@cached("divided")
def _divided_ops(m: int, N: int, kind: str, coproduct: str) -> list:
    """Every nonzero divided power of one kind, column by column from
    divided_columns on the slot module."""
    space = HoweSpace(m, N, coproduct)
    slot = space.slot_module()
    powers = []
    for mono in slot.basis():
        for s, vec in enumerate(divided_columns(slot, kind, 1, mono)):
            if s == len(powers):
                powers.append({})
            powers[s][mono] = vec
    return [space.from_slot_op(SparseOp(cols)) for cols in powers]


def divided_block(m: int, kind: str, r: int, k: int, l: int, coproduct: str) -> SparseOp:
    """e^(r) or f^(r) restricted to the block K(k, l) of degree N = k + l;
    e^(r) lands in K(k-r, l+r) and f^(r) in K(k+r, l-r)."""
    N = k + l
    space = HoweSpace(m, N, coproduct)
    return divided_op(m, N, kind, r, coproduct).restrict(space.block_basis(k, l))


# ---------------------------------------------------------------------------
# the alternating divided-power sum (Euler characteristic of the twist complex)


def rickard_euler(m: int, k: int, l: int, eps: int, coproduct: str) -> SparseOp:
    """sum_s class([-s]{s}) f^(l-k+s) e^(s) on K(k, l), s = max(0, k-l)..k.

    For k <= l this is the alternating sum with s from 0; the same formula
    continues the complex to the k > l blocks (terms with a negative
    divided power are absent).
    """
    N = k + l
    space = HoweSpace(m, N, coproduct)
    block = space.block_basis(k, l)
    total = SparseOp({})
    for s in range(max(0, k - l), k + 1):
        term = (
            divided_op(m, N, GEN_F, l - k + s, coproduct)
            @ divided_op(m, N, GEN_E, s, coproduct).restrict(block)
        )
        total = total + term.scale(shift_class(-s, s, eps))
    return total


def grading_sign() -> int:
    """The default global sign eps in class([a]{b}) = (-1)^a q^(eps b), -1:
    the unique sign for which the alternating divided-power sum equals the
    quantum Weyl element of fef-1 at (m, N) = (1, 1) and (2, 2) (both signs
    pass (1, 1)).  That search runs in
    tests/test_ktheory.py::test_grading_sign_calibration and
    scripts/convention_audit.py, never at run time."""
    return -1


def conventions(coproduct: str = "standard", variant=None, eps: int = None) -> Conventions:
    """Resolve a verify run's conventions, once and only here.  variant None
    or "auto" is the default Weyl variant, otherwise a name such as "efe+1"
    (an unknown one raises ValueError); eps None is the default grading
    sign, and any other value than -1 or 1 raises ValueError, as does an
    unknown coproduct."""
    if coproduct not in COPRODUCTS:
        raise ValueError(f"unknown coproduct {coproduct!r}")
    if eps not in (None, -1, 1):
        raise ValueError(f"grading sign must be -1 or 1, got {eps!r}")
    return Conventions(
        coproduct,
        selected_variant() if variant in (None, "auto") else parse_variant(variant),
        eps if eps is not None else grading_sign(),
    )


# ---------------------------------------------------------------------------
# verification suites


def verify_commutator(m: int, N: int, conv: Conventions) -> list[CheckResult]:
    """ef - fe = [l - k] id on every block (signed balanced quantum integer)."""
    out = []
    e = divided_op(m, N, GEN_E, 1, conv.coproduct)
    f = divided_op(m, N, GEN_F, 1, conv.coproduct)
    comm = (e @ f) - (f @ e)
    space = HoweSpace(m, N, conv.coproduct)
    for k, l in blocks(m, N):
        block = space.block_basis(k, l)
        got = comm.restrict(block)
        want = SparseOp.identity(block).scale(qint(l - k))
        params = {"m": m, "N": N, "k": k, "l": l, "lambda": l - k}
        out.append(check_equal("ktheory.commutator", params, got, want, howe_mono_str, "(ef-fe)"))
    return out


def verify_divided_products(m: int, N: int, rmax: int, conv: Conventions) -> list[CheckResult]:
    """f^(r2) f^(r1) = qbinom(r1+r2, r1) f^(r1+r2), and the same for e."""
    out = []
    for kind in (GEN_E, GEN_F):
        op = lambda r: divided_op(m, N, kind, r, conv.coproduct)
        for r1 in range(0, rmax + 1):
            for r2 in range(0, rmax + 1 - r1):
                params = {"m": m, "N": N, "kind": kind.lower(), "r1": r1, "r2": r2}
                out.append(
                    check_equal("ktheory.divided_product", params, op(r2) @ op(r1),
                                op(r1 + r2).scale(qbinom(r1 + r2, r1)), howe_mono_str)
                )
    return out


def deformed_pair_class(r: int, eps: int) -> Laurent:
    """K-class of the two-term multiplicity [-r]{r} + [r+1]{-r-2}."""
    return shift_class(-r, r, eps) + shift_class(r + 1, -r - 2, eps)


def verify_ee_deformed_shadow(m: int, N: int, rmax: int, conv: Conventions) -> list[CheckResult]:
    """The two-term deformed multiplicity class is (-1)^r q^(-eps) (q^eps -
    q^(-eps)) [r+1] with eps = conv.eps: it kills the Euler characteristic
    at q = 1 and carries the same [r+1] as the non-deformed product
    e e^(r) = [r+1] e^(r+1)."""
    eps = conv.eps
    out = []
    for r in range(0, rmax + 1):
        c = deformed_pair_class(r, eps)
        factor = Laurent.q(-eps) * (Laurent.q(eps) - Laurent.q(-eps)) * qint(r + 1)
        if r % 2:
            factor = -factor
        params = {"m": m, "N": N, "r": r, "eps": eps}
        out.append(
            check(
                "ktheory.deformed_pair_class",
                params,
                c == factor and c.at_one() == 0,
                lambda: f"class = {c.text()}, expected {factor.text()}",
            )
        )
        e = lambda s: divided_op(m, N, GEN_E, s, conv.coproduct)
        out.append(
            check_equal("ktheory.deformed_shadow_crosscheck", params, e(1) @ e(r),
                        e(r + 1).scale(qint(r + 1)), howe_mono_str, f"e e^({r})")
        )
    return out


def verify_rickard_equals_t(m: int, N: int, conv: Conventions) -> list[CheckResult]:
    """The alternating divided-power sum, graded by conv.eps, equals the
    quantum Weyl element of conv.variant on every block with k <= l."""
    t = howe_weyl_op(m, N, conv.variant)
    space = HoweSpace(m, N, conv.coproduct)
    out = []
    for k, l in blocks(m, N):
        if k > l:
            continue
        got = rickard_euler(m, k, l, conv.eps, conv.coproduct)
        want = t.restrict(space.block_basis(k, l))
        params = {"m": m, "N": N, "k": k, "l": l, "eps": conv.eps}
        out.append(check_equal("ktheory.rickard_eq_weyl", params, got, want, howe_mono_str, "euler"))
    return out


def verify_rickard_invertible(m: int, N: int, conv: Conventions) -> list[CheckResult]:
    """The Euler sum is invertible blockwise (t^(-1) composes to identity)."""
    space = HoweSpace(m, N, conv.coproduct)
    t_inv = howe_weyl_op(m, N, inverse_variant(conv.variant))
    out = []
    for k, l in blocks(m, N):
        if k > l:
            continue
        got = t_inv @ rickard_euler(m, k, l, conv.eps, conv.coproduct)
        out.append(
            check_equal("ktheory.rickard_invertible", {"m": m, "N": N, "k": k, "l": l}, got,
                        SparseOp.identity(space.block_basis(k, l)), howe_mono_str,
                        "t^(-1) euler")
        )
    return out
