"""Re-measure the single-operation figures quoted in ROADMAP item 1.

    python3 bench/baseline.py

Prints one line per figure: the quoted value next to the median and the best
of REPEATS runs here, timed by the benchmark's own loop (run.run_cycles) and
checked by its own oracles. Operands come from a fixed seed; dense integer
coefficients are drawn from [-99, 99] like the dense-product workload's
signed rows.
"""

import random
import statistics
import sys

from run import import_library, run_cycles

REPEATS = 3


def main() -> int:
    workloads = import_library()
    if workloads is None:
        print("error: run from a source checkout with src/cohomring", file=sys.stderr)
        return 2
    from cohomring import cohomology, poly
    from cohomring.rings import IntegerRing, ModularRing

    rng = random.Random(0)

    def dense(label, ring, n, lo, hi):
        a, b = (rng.choices(range(lo, hi + 1), k=n) for _ in range(2))
        return workloads.dense_op(label, ring, a, b, rng)

    ring = ModularRing(32003)
    base = poly.multi(ring, 3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 1})
    p = base
    for _ in range(9):
        p = poly.mul(p, base)
    # (X+Y+Z+1)^20 has C(23, 3) = 1771 terms and sums to 4^20 at the point (1, 1, 1)
    square_ok = lambda sq: len(sq.terms) == 1771 and poly.multi_eval(sq, [1, 1, 1]) == pow(4, 20, 32003)
    entries = cohomology.catalog_entries()
    rows = [
        ("109 ms", dense("signed Z dense product, n=10^4", IntegerRing(), 10**4, -99, 99)),
        ("2.43 s", dense("signed Z dense product, n=10^5", IntegerRing(), 10**5, -99, 99)),
        ("0.57 s", dense("Z/7 dense product, n=10^5", ModularRing(7), 10**5, 0, 6)),
        ("265 ms", workloads.Op(
            "square (X+Y+Z+1)^10 over Z/32003, 286 terms",
            lambda: poly.mul(p, p),
            lambda sq: None if square_ok(sq) else "wrong square",
            repr,
        )),
        ("about 2.5 s", workloads.Op(
            "verify_entry over all 9 catalog entries",
            lambda: [cohomology.verify_entry(e) for e in entries],
            lambda reports: None if all(r.passed for r in reports) else "an entry failed",
            repr,
        )),
    ]

    failed = False
    for quoted, op in rows:
        tally = run_cycles([op], 0, cycles=REPEATS)
        med, best = statistics.median(tally.latencies), min(tally.latencies)
        problem = tally.first_failure.get(op.kind)
        status = "ok" if problem is None else f"WRONG: {problem}"
        print(f"{op.kind:<48} quoted {quoted:<12} median {med * 1000:10.1f} ms  best {best * 1000:10.1f} ms  {status}")
        failed = failed or problem is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
