"""Reference computation that perfbench/run.py times between samples.

    python3 perfbench/reference.py BUDGET_S

Builds a table of small Laurent polynomials (dicts of exponent -> integer,
about 25 MB), then multiplies pairs picked all over it, in chunks of
PRODUCTS products, for whole chunks until BUDGET_S seconds have passed, and
prints the seconds per chunk.  Every chunk of every call does the same work.
It runs in a process of its own because a child's peak resident set starts
from its parent's: a table held by run.py would show up in the peak_rss_mb
of every verify run it starts.
"""

import sys
import time

TABLE = 60000
PRODUCTS = 2000


def chunk_s(budget: float) -> float:
    table = [{j: (i * j) % 100003 * 10**12 + i for j in range(i % 7, i % 7 + 6)}
             for i in range(TABLE)]
    n = len(table)
    chunks = 0
    t0 = time.perf_counter()
    while True:
        for k in range(chunks * PRODUCTS, (chunks + 1) * PRODUCTS):
            a, b = table[k * 7919 % n], table[(k * 104729 + 1) % n]
            out: dict = {}
            for i, x in a.items():
                for j, y in b.items():
                    out[i + j] = out.get(i + j, 0) + x * y
        chunks += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= budget:
            return elapsed / chunks


if __name__ == "__main__":
    print(repr(chunk_s(float(sys.argv[1]))))
