#!/usr/bin/env python3
"""Audit the convention calibrations.

Runs every rank-one Weyl variant through the braiding suite's own pinning
checks (verify_hightolow, verify_eq_comm) on the two-dimensional module,
both coproducts against the divided-power leading-coefficient oracle, and
both grading signs against the Euler-sum anchors.  The defaults used by the
engine are exactly the survivors.
"""

from qhowe import braidgrp as bg
from qhowe import ktheory as kt
from qhowe.howe import SLOT_X, SLOT_Y, SlotModule
from qhowe.qmodule import GEN_F, Conventions, act_divided
from qhowe.qring import ONE


def weyl_variants():
    print("rank-one Weyl variants on the 2-dim module:")
    for v in bg.VARIANTS:
        conv = Conventions("standard", v, None)
        high_to_low = all(r.ok for r in bg.verify_hightolow(2, 1, conv))
        comm = all(r.ok for r in bg.verify_eq_comm(2, 1, conv))
        print(f"  {bg.variant_name(v)}: high-to-low={high_to_low} commutation={comm}")
    print(f"  selected: {bg.variant_name(bg.selected_variant())}")


def coproducts():
    print("\ncoproducts vs the leading-coefficient oracle (want 1):")
    for cop in ("standard", "flipped"):
        slot = SlotModule(2, 2, coproduct=cop)
        got = act_divided(slot, GEN_F, 1, 1, {(SLOT_X, SLOT_X): ONE})
        lead = got.get((SLOT_Y, SLOT_X))
        print(f"  {cop}: leading coefficient {lead.text() if lead else '0'}")


def grading_signs():
    print("\ngrading signs vs the Euler-sum anchors:")
    for eps in (1, -1):
        ok11 = kt._rickard_matches_weyl(1, 1, eps)
        ok22 = kt._rickard_matches_weyl(2, 2, eps)
        print(f"  eps={eps:+d}: (m,N)=(1,1) {ok11}, (2,2) {ok22}")
    print(f"  selected: eps={kt.grading_sign():+d}")


if __name__ == "__main__":
    weyl_variants()
    coproducts()
    grading_signs()
