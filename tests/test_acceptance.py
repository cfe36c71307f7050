"""Acceptance suite: every identity the engine exists to verify, at full
desk scale, with exact equality (tolerance zero) throughout.

One criterion per test; each prints a pass/fail line.  Run with -s to see
the lines, or rely on the assertions.

Two displayed scalars are implemented in corrected form (see the module
docstrings): the braiding/Weyl comparison carries sign (-1)^(kl+k), not
(-1)^(kl), and the Weyl action on the distinguished vectors carries the
matching extra (-1)^k.  The correction is forced by the value +1 of every
quantum Weyl group element on sl_2-invariant summands, and the corrected
scalars are verified here exactly, for every admissible parameter.
"""

import math

from qhowe import braidgrp as bg
from qhowe import cli, geomcheck as gc, howe, ktheory as kt
from qhowe.howe import HoweSpace, admissible_families
from qhowe.qring import ONE


def _report(n: int, label: str, ok: bool, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{extra}]" if extra else ""
    print(f"ACCEPTANCE {n} ({label}): {status}{suffix}")
    assert ok, f"criterion {n} failed: {label}"


def _failures(results):
    return [(r.id, r.params, r.witness) for r in results if not r.ok]


def test_criterion_1_commuting_actions():
    conv = kt.conventions()
    results = []
    for m in range(1, 5):
        for N in range(1, min(2 * m, 4) + 1):
            results += howe.verify_commuting(m, N, conv)
    _report(1, "commuting sl_m and sl_2 actions, m<=4, N<=4", not _failures(results),
            f"{len(results)} checks")


def test_criterion_2_braiding_equals_scaled_weyl():
    conv = kt.conventions()
    results = []
    for m in (2, 3, 4):
        for k in range(0, min(m, 4) + 1):
            for l in range(0, min(m, 4 - k) + 1):
                if k + l == 0:
                    continue
                results += bg.verify_beta_t_theorem(m, k, l, conv)
    scales = sorted({r.params["scale"] for r in results})
    _report(2, "beta = (-1)^(kl+k) q^(k-kl/m) t on every block, m in {2,3,4}, k+l<=4",
            not _failures(results), f"{len(results)} blocks, scales {scales[:4]}...")


def test_criterion_3_family_scalars():
    conv = kt.conventions()
    results = []
    for m in range(1, 5):
        for N in range(1, min(2 * m, 4) + 1):
            results += bg.verify_family_scalars(m, N, conv)
    _report(3, "braiding and Weyl scalars on all distinguished vectors, m<=4, N<=4",
            not _failures(results), f"{len(results)} checks")


def test_criterion_4_weyl_element_identities():
    conv = kt.conventions()
    results = []
    for m in range(2, 5):
        for d in range(1, m + 1):
            results += bg.verify_eq_comm(m, d, conv)
            results += bg.verify_hightolow(m, d, conv)
        results += bg.verify_braid_relations(m, 1, conv)
        results += bg.verify_word_independence(m, 1, conv)
    _report(4, "Weyl commutation, high-to-low, braid relations, word independence, m<=4",
            not _failures(results), f"{len(results)} checks")


def test_criterion_5_decategorified_sl2_relations():
    conv = kt.conventions()
    results = []
    for m in range(1, 5):
        for N in range(1, min(2 * m, 4) + 1):
            results += kt.verify_commutator(m, N, conv)
            results += kt.verify_divided_products(m, N, conv)
    _report(5, "ef - fe = [lambda] id and divided-power products, m<=4, N<=4, r1+r2<=3",
            not _failures(results), f"{len(results)} checks")


def test_criterion_6_rickard_euler_equals_weyl():
    conv = kt.conventions()
    results = []
    for m in range(1, 4):
        for N in range(1, min(2 * m, 3) + 1):
            results += kt.verify_rickard_equals_t(m, N, conv)
    _report(6, "twist-complex Euler characteristic = quantum Weyl element, m<=3, N<=3",
            not _failures(results), f"eps = {conv.eps}, {len(results)} blocks")


def test_criterion_7_geometric_bookkeeping():
    results = []
    for m in range(1, 7):
        for k in range(m + 1):
            for l in range(m + 1):
                results += gc.verify_canonical(m, k, l)
                results += gc.verify_dims(m, k, l)
                results += gc.fiber_bundle_facts(m, k, l)
                for r in range(0, l + 1):
                    if k + r <= m:
                        results += gc.adjunction_shifts(m, k, l, r)
        for a in range(m + 1):
            for b in range(m - a + 1):
                for c in range(m - a - b + 1):
                    results += gc.codim_checks(m, a, b, c)
    _report(7, "canonical classes, adjunction shifts, codimensions, Betti counts, m<=6",
            not _failures(results), f"{len(results)} checks")


def test_criterion_8_permutation_sum_identity():
    ok = all(howe.sq_sum(n) == ONE for n in range(0, 6))
    _report(8, "divided-power leading-coefficient sum = 1 for n <= 5", ok)


def test_criterion_9_deterministic_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "all", "--m", "1:2", "--N", "1:2", "--format", "json"]
    assert cli.main([*args, "--out", str(a)]) == 0
    assert cli.main([*args, "--out", str(b)]) == 0
    _report(9, "byte-identical JSON reports for identical config",
            a.read_bytes() == b.read_bytes())
