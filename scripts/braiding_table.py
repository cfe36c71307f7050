#!/usr/bin/env python3
"""Tabulate the braiding-vs-Weyl scale factor over a (m, k, l) grid.

For each block the braiding equals a single signed q-power times the sl_2
quantum Weyl element; this prints the factor, whether the sign matches the
naive (-1)^(kl), and the distinguished-vector scalars behind it.
"""

import argparse

from qhowe import braidgrp as bg
from qhowe import ktheory as kt
from qhowe.howe import admissible_families, blocks


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-m", type=int, default=3)
    parser.add_argument("--max-N", type=int, default=4)
    args = parser.parse_args()

    conv = kt.conventions()
    print(f"{'m':>2} {'k':>2} {'l':>2}  {'scale':<22} {'naive sign?':<12} status")
    doubt = 0
    for m in range(2, args.max_m + 1):
        for N in range(1, min(2 * m, args.max_N) + 1):
            for k, l in blocks(m, N):
                (res,) = bg.verify_beta_t_theorem(m, k, l, conv)
                naive = "yes" if not res.params["sign_flipped_vs_naive"] else "no"
                print(f"{m:>2} {k:>2} {l:>2}  {res.params['scale']:<22} {naive:<12} {res.status}")
                if not res.ok:
                    doubt += 1

    print("\nper-family scalars (i, k, l | beta | t):")
    for m in range(2, args.max_m + 1):
        for N in range(1, min(2 * m, args.max_N) + 1):
            for i, k, l in admissible_families(m, N):
                b = bg.beta_family_scalar(m, i, k, l)
                t = bg.weyl_family_scalar(m, i, k, l)
                print(f"  m={m} i={i} k={k} l={l}: beta {b.text():<20} t {t.text()}")
    return 1 if doubt else 0


if __name__ == "__main__":
    raise SystemExit(main())
