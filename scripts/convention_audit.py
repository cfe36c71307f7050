#!/usr/bin/env python3
"""Audit the default conventions.

Runs every rank-one Weyl variant through the braiding suite's own pinning
checks (verify_hightolow, verify_eq_comm) on the two-dimensional module,
both coproducts against the divided-power leading-coefficient oracle, and
both grading signs against the Euler-sum anchors.  Each `selected:` line is
the unique survivor of its search, and the script exits 1 if a search has
no unique survivor or its survivor is not the engine's constant
(braidgrp.selected_variant, ktheory.grading_sign).
"""

import sys

from qhowe import braidgrp as bg
from qhowe import ktheory as kt
from qhowe.howe import SLOT_X, SLOT_Y, SlotModule
from qhowe.qmodule import GEN_F, Conventions, act_divided
from qhowe.qring import ONE


def passes(results) -> bool:
    return all(r.ok for r in results)


def survivor(what, survivors, constant):
    """The unique survivor of a search, or exit 1 if it is not the constant."""
    if survivors != [constant]:
        sys.exit(f"{what}: survivors {survivors}, but the engine's constant is {constant}")
    return constant


def weyl_variants():
    print("rank-one Weyl variants on the 2-dim module:")
    survivors = []
    for v in bg.VARIANTS:
        conv = Conventions("standard", v, kt.grading_sign())  # the braiding suites read no eps
        high_to_low = passes(bg.verify_hightolow(2, 1, conv))
        comm = passes(bg.verify_eq_comm(2, 1, conv))
        print(f"  {bg.variant_name(v)}: high-to-low={high_to_low} commutation={comm}")
        if high_to_low and comm:
            survivors.append(v)
    variant = survivor("Weyl variant", survivors, bg.selected_variant())
    print(f"  selected: {bg.variant_name(variant)}")
    return variant


def coproducts():
    print("\ncoproducts vs the leading-coefficient oracle (want 1):")
    for cop in ("standard", "flipped"):
        slot = SlotModule(2, 2, coproduct=cop)
        got = act_divided(slot, GEN_F, 1, 1, {(SLOT_X, SLOT_X): ONE})
        lead = got.get((SLOT_Y, SLOT_X))
        print(f"  {cop}: leading coefficient {lead.text() if lead else '0'}")


def grading_signs(variant):
    print("\ngrading signs vs the Euler-sum anchors:")
    survivors = []
    for eps in (1, -1):
        conv = Conventions("standard", variant, eps)
        ok11 = passes(kt.verify_rickard_equals_t(1, 1, conv))
        ok22 = passes(kt.verify_rickard_equals_t(2, 2, conv))
        print(f"  eps={eps:+d}: (m,N)=(1,1) {ok11}, (2,2) {ok22}")
        if ok11 and ok22:
            survivors.append(eps)
    print(f"  selected: eps={survivor('grading sign', survivors, kt.grading_sign()):+d}")


if __name__ == "__main__":
    variant = weyl_variants()
    coproducts()
    grading_signs(variant)
