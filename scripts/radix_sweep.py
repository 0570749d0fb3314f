"""Time the dense product in both radices over a grid of operand shapes, the
measurement behind poly's two radix lines (_DECIMAL_SHORT_BITS and
_DECIMAL_BITS).

Each product is timed with every product forced to base 256 and with every
product forced to base 10, the two interleaved, best of --repeats each. A
line per product gives its packed bits (shorter operand, both operands), the
time in each radix, the radix that poly's rule picks, and base 10's time as
a share of base 256's. The closing lines give the rule's total time against
the per-product best, and the pair of lines that would fit the grid best.
The run fails if the two radices disagree on any product.

Usage: python3 scripts/radix_sweep.py [--rings Z-signed,Z-nonneg,Z7,Z32003]
           [--shorts 500,1000,...] [--ratios 1,2,4,8,16] [--repeats 20] [--seed 1]
"""

import argparse
import contextlib
import random
import sys
import time
from unittest import mock

from cohomring import poly
from cohomring.rings import IntegerRing, ModularRing

RINGS = {
    "Z-signed": (IntegerRing(), -99, 99),
    "Z-nonneg": (IntegerRing(), 0, 99),
    "Z7": (ModularRing(7), 0, 6),
    "Z32003": (ModularRing(32003), 0, 32002),
}
NEVER = 1 << 62  # a radix line no product reaches


def _lines(line):
    """Both radix lines at `line` packed bits (None: poly's own lines)."""
    if line is None:
        return contextlib.nullcontext()
    return mock.patch.multiple(poly, _DECIMAL_BITS=line, _DECIMAL_SHORT_BITS=line)


def _timed(ring, a, b, line):
    """The product's coefficients and seconds, with both lines at `line`."""
    with _lines(line):
        start = time.perf_counter()
        out = poly._dense_mul_coeffs(ring, a, b)
        return out, time.perf_counter() - start


def _route(ring, a, b, line):
    """The arguments of _byte_convolution if a product takes base 256 with
    both lines at `line`, else None."""
    spy = mock.patch.object(poly, "_byte_convolution", wraps=poly._byte_convolution)
    with _lines(line), spy as byte:
        poly._dense_mul_coeffs(ring, a, b)
    return byte.call_args.args if byte.called else None


def _fit(rows):
    """The lines (short, both) from the grid's own packed sizes whose rule
    gives the least total time, and that total."""
    shorts = sorted({r["short_bits"] for r in rows}) + [NEVER]
    boths = sorted({r["both_bits"] for r in rows}) + [NEVER]
    best = None
    for s in shorts:
        for b in boths:
            total = sum(
                r["t10"] if r["short_bits"] >= s and r["both_bits"] >= b else r["t256"] for r in rows
            )
            if best is None or total < best[2]:
                best = (s, b, total)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rings", default=",".join(RINGS))
    parser.add_argument("--shorts", default="500,1000,1500,2000,3000,4000,6000,8000,12000")
    parser.add_argument("--ratios", default="1,2,4,8,16")
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    shorts = [int(s) for s in args.shorts.split(",")]
    ratios = [int(r) for r in args.ratios.split(",")]

    print(f"lines: short {poly._DECIMAL_SHORT_BITS} bits, both {poly._DECIMAL_BITS} bits")
    print("ring       short   long  short_bits  both_bits   base256_ms  base10_ms  rule  10/256")
    rows = []
    for label in args.rings.split(","):
        ring, lo, hi = RINGS[label]
        for short in shorts:
            for ratio in ratios:
                a = tuple(rng.randint(lo, hi) for _ in range(short))
                b = tuple(rng.randint(lo, hi) for _ in range(short * ratio))
                if _timed(ring, a, b, NEVER)[0] != _timed(ring, a, b, 0)[0]:
                    sys.exit(f"{label} {short}x{short * ratio}: base 256 and base 10 disagree")
                t256 = t10 = float("inf")
                for _ in range(args.repeats):
                    t256 = min(t256, _timed(ring, a, b, NEVER)[1])
                    t10 = min(t10, _timed(ring, a, b, 0)[1])
                rule = "256" if _route(ring, a, b, None) else "10"
                bits = 8 * _route(ring, a, b, NEVER)[2]  # 8 * sb
                row = {
                    "short_bits": bits * short,
                    "both_bits": bits * short * (1 + ratio),
                    "t256": t256,
                    "t10": t10,
                    "rule": rule,
                }
                rows.append(row)
                print(
                    f"{label:9s} {short:6d} {short * ratio:6d} {row['short_bits']:11d}"
                    f" {row['both_bits']:10d} {1e3 * t256:12.3f} {1e3 * t10:10.3f}"
                    f" {rule:>5s} {t10 / t256:7.3f}",
                    flush=True,
                )

    best = sum(min(r["t256"], r["t10"]) for r in rows)
    ruled = sum(r["t10"] if r["rule"] == "10" else r["t256"] for r in rows)
    print(f"outputs agree on all {len(rows)} products")
    print(
        f"total: rule {1e3 * ruled:.1f} ms, per-product best {1e3 * best:.1f} ms,"
        f" all base 256 {1e3 * sum(r['t256'] for r in rows):.1f} ms,"
        f" all base 10 {1e3 * sum(r['t10'] for r in rows):.1f} ms, rule/best {ruled / best:.3f}"
    )
    s, b, total = _fit(rows)
    s, b = ("none" if line == NEVER else f"{line} bits" for line in (s, b))
    print(f"best lines on this grid: short {s}, both {b}, rule/best {total / best:.3f}")


if __name__ == "__main__":
    main()
