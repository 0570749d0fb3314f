"""Print every catalog entry, its verification report, and the featured
space comparisons.

For each space/coefficient pair this shows the quotient presentation, the
groups per degree, the bidegrees with vanishing cup products, and whether
the translation between the quotient and the structure-constant form
verifies as a graded ring isomorphism, with the time the checks took. The
verification is a proof, not a sample: every pair of elements for a finite
quotient, every pair of normal monomials otherwise (see verify_entry).

Usage: python3 scripts/catalog_report.py
"""

import argparse

from cohomring import cohomology as coh
from cohomring.rings import IntegerRing, ModularRing


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--samples",
        type=int,
        default=500,
        help="no effect; kept so that existing command lines still run",
    )
    parser.parse_args()

    for entry in coh.catalog_entries():
        pring = entry.presented
        print(entry.label())
        print(f"  presentation: {entry.presentation()}")
        print(f"  generators:   {entry.degree_line()}")
        groups = ", ".join(f"H^{d} = {pring.group(d).text()}" for d in pring.degrees())
        print(f"  groups:       {groups}")
        nontrivial = [
            (n, m)
            for n in pring.degrees()
            for m in pring.degrees()
            if n and m and not coh.cup_is_trivial(entry, n, m)
        ]
        print(f"  nonzero cups: {nontrivial if nontrivial else 'none in positive degrees'}")
        report = coh.verify_entry(entry)
        status = "ok" if report.passed else f"FAILED ({report.counterexample})"
        total = sum(t for _, t in report.seconds)
        slowest, slowest_t = max(report.seconds, key=lambda item: item[1])
        print(
            f"  verification: {status}, {len(report.checks)} checks, {total:.2f} s"
            f" (slowest {slowest} {slowest_t:.2f} s)"
        )
        print()

    print("comparisons")
    featured = [
        (coh.Space("s2vs4"), coh.Space("cp2"), IntegerRing()),
        (coh.Space("k2"), coh.Space("rp2vs1"), IntegerRing()),
        (coh.Space("k2"), coh.Space("rp2vs1"), ModularRing(2)),
        (coh.Space("sphere", 2), coh.Space("sphere", 3), IntegerRing()),
    ]
    for s1, s2, ring in featured:
        verdict = coh.distinguish(s1, s2, ring)
        print(f"  {s1} vs {s2} over {ring}: {verdict.describe()}")


if __name__ == "__main__":
    main()
