"""cohomring benchmark: one workload per run, a closed loop with one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
src/ directory and nowhere else. The workload's inputs come from the seed.
Whole cycles of operations run until the operations themselves have taken
--seconds; each output is checked against an independent oracle outside the
timed region. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones from a traced run
(see bench/README.md). Lines before it are a readable report.
"""

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# cold set-ups per run, each in its own interpreter: this process's, then the rest
SETUP_REPS = 9
# the tail is the highest of these percentiles with at least ten samples beyond it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import the workloads against this checkout's src/; None if absent."""
    if not (SRC / "cohomring" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import workloads

    import cohomring

    if Path(cohomring.__file__).resolve().parent != (SRC / "cohomring").resolve():
        return None
    return workloads


def set_up(workload: str, seed: int) -> tuple:
    """Everything before the first timed operation: import the library, build
    the seeded inputs, warm up. Returns (ops, seconds); ops is None when src/
    holds no cohomring or the workload is unknown."""
    started = perf_counter()
    workloads = import_library()
    if workloads is None or workload not in workloads.WORKLOADS:
        return None, 0.0
    build, warm = workloads.WORKLOADS[workload]
    ops = build(seed)
    warm(ops)
    return ops, perf_counter() - started


def fresh_set_up_seconds(workload: str, seed: int) -> float:
    """set_up's time in a new interpreter, where nothing is imported or cached yet."""
    code = f"import run; print(run.set_up({workload!r}, {seed})[1])"
    child = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, check=True
    )
    return float(child.stdout.split()[-1])


# ------------------------------------------------------------------ measuring


class Tally:
    """Latencies, outputs and failures of the operations run so far.

    Each operation runs on the same input every cycle. An output whose key
    equals that of the output the oracle last accepted for the same operation
    is accepted without calling the oracle again; any other output is checked
    in full. So every output is checked, and the oracle's cost is paid about
    once per operation rather than once per cycle."""

    def __init__(self, keep_outputs: bool):
        self.keep_outputs = keep_outputs
        self.latencies = []
        self.kinds = []
        self.keys = []
        self.busy = 0.0
        self.cycle_busy = []
        self.attempted: dict = {}
        self.failed: dict = {}
        self.first_failure: dict = {}
        self.accepted: dict = {}  # id(op) -> key of its last accepted output

    def record(self, op, seconds, out, error) -> None:
        self.latencies.append(seconds)
        self.kinds.append(op.kind)
        self.busy += seconds
        self.attempted[op.kind] = self.attempted.get(op.kind, 0) + 1
        if error is not None:
            problem = f"{type(error).__name__}: {error}"[:200]
            key = ("exception", type(error).__name__)
        else:
            key = op.key(out)
            known = id(op) in self.accepted and self.accepted[id(op)] == key
            problem = None if known else op.check(out)
            if problem is None:
                self.accepted[id(op)] = key
        if self.keep_outputs:
            self.keys.append(key)
        if problem:
            self.failed[op.kind] = self.failed.get(op.kind, 0) + 1
            self.first_failure.setdefault(op.kind, problem)

    @property
    def cycles(self) -> int:
        return len(self.cycle_busy)

    @property
    def count(self) -> int:
        return len(self.latencies)

    @property
    def failures(self) -> int:
        return sum(self.failed.values())


def run_cycles(ops, seconds: float, cycles: int | None = None, tracer=None, keep_outputs=False) -> Tally:
    """Whole cycles until the operations have taken `seconds`, or exactly
    `cycles` cycles when given. Outputs are kept only for the traced run's
    comparison, so that the untraced run does not hold every output."""
    tally = Tally(keep_outputs)
    while True:
        cycle_start = tally.busy
        for op in ops:
            started = perf_counter()
            try:
                out = op.run() if tracer is None else tracer.span("op", op.run)
                error = None
            except Exception as exc:  # an escaping exception is a failed operation
                out, error = None, exc
            tally.record(op, perf_counter() - started, out, error)
        tally.cycle_busy.append(tally.busy - cycle_start)
        if cycles is not None:
            if tally.cycles >= cycles:
                return tally
        elif tally.busy >= seconds:
            return tally


def tail(latencies) -> tuple:
    """(percentile, value, samples beyond) for the highest ladder percentile
    that leaves at least TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1], n - rank
    return 50.0, statistics.median(ordered), n - math.ceil(n / 2)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ------------------------------------------------------------------ per layer

def layer_metrics(tr, counters, ops_done, overhead_pct, defects) -> dict:
    """Per-operation counts and self times from the traced run."""
    per_op = lambda x: x / ops_done
    layers = tr.summary()
    calls = lambda layer: per_op(layers.get(layer, (0, 0.0, 0.0))[0])
    self_s = lambda layer: per_op(layers.get(layer, (0, 0.0, 0.0))[2])
    candidates = tr.counts["cohomology.iso_candidates"]
    searches = layers.get("cohomology.find_graded_iso", (0,))[0]
    failed = {name: f for name, _, f, _ in defects}
    values = {
        "rings.coeff_mul": (per_op(counters["coeff_mul"]), "count/op"),
        "dsum.from_terms_calls": (calls("dsum.from_terms"), "count/op"),
        "dsum.from_terms_self_s": (self_s("dsum.from_terms"), "s/op"),
        "graded.mul_sparse_calls": (calls("graded.mul_sparse"), "count/op"),
        "graded.mul_sparse_self_s": (self_s("graded.mul_sparse"), "s/op"),
        "graded.term_pairs": (per_op(tr.counts["graded.term_pairs"]), "count/op"),
        "poly.mul_dense_calls": (calls("poly.mul_dense"), "count/op"),
        "poly.mul_dense_self_s": (self_s("poly.mul_dense"), "s/op"),
        "poly.dense_positions": (per_op(counters["dense_positions"]), "count/op"),
        "ideal.reduce_calls": (calls("ideal.reduce"), "count/op"),
        "ideal.reduce_self_s": (self_s("ideal.reduce"), "s/op"),
        "ideal.normal_monomials_calls": (calls("ideal.normal_monomials"), "count/op"),
        "ideal.normal_monomials_self_s": (self_s("ideal.normal_monomials"), "s/op"),
        "ideal.groebner_self_s": (self_s("ideal.groebner"), "s/op"),
        "cohomology.generator_monomials_calls": (calls("cohomology.generator_monomials"), "count/op"),
        "cohomology.image_of_poly_calls": (calls("cohomology.image_of_poly"), "count/op"),
        "cohomology.image_of_poly_self_s": (self_s("cohomology.image_of_poly"), "s/op"),
        "cohomology.verify_entry_self_s": (self_s("cohomology.verify_entry"), "s/op"),
        "cohomology.find_graded_iso_self_s": (self_s("cohomology.find_graded_iso"), "s/op"),
        "cohomology.iso_candidates": (per_op(candidates), "count/op"),
        "cohomology.iso_candidates_per_search": (candidates / searches if searches else 0, "count/search"),
        "expr.parse_calls": (calls("expr.parse"), "count/op"),
        "expr.parse_self_s": (self_s("expr.parse"), "s/op"),
        "cli.run_command_calls": (calls("cli.run_command"), "count/op"),
        "cli.run_command_self_s": (self_s("cli.run_command"), "s/op"),
        "cli.exit_nonzero": (per_op(tr.exit_nonzero), "count/op"),
        "trace.overhead_pct": (overhead_pct, "%"),
        "ideal.reduce_gcd_rule_violations": (failed.get("reduce-gcd-rule", 0), "count"),
        "cli.uncaught_exceptions": (failed.get("deep-nesting", 0) + failed.get("huge-result", 0), "count"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


# ------------------------------------------------------------------- reporting


def report_failures(tally: Tally, say) -> None:
    say("operation class                  attempted  failed  median ms")
    by_kind: dict = {}
    for kind, seconds in zip(tally.kinds, tally.latencies):
        by_kind.setdefault(kind, []).append(seconds)
    for kind in sorted(tally.attempted):
        med = statistics.median(by_kind[kind]) * 1000
        say(f"  {kind:<31}{tally.attempted[kind]:>9}{tally.failed.get(kind, 0):>8}{med:>11.3f}")
        if kind in tally.first_failure:
            say(f"    first failure: {tally.first_failure[kind]}")


def report_defects(rows, say) -> None:
    if not rows:
        return
    say("known defects (ROADMAP item 2), run untimed after measuring, not in attempted:")
    for name, attempted, failed, first in rows:
        say(f"  {name:<18} {failed} of {attempted} inputs fail" + (f"; e.g. {first}" if first else ""))


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    ops, own_setup_s = set_up(args.workload, args.seed)
    if ops is None:
        if import_library() is None:
            print(f"error: no cohomring sources at {SRC}; run from a source checkout", file=sys.stderr)
        else:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import workloads

    reps = [own_setup_s] + [fresh_set_up_seconds(args.workload, args.seed) for _ in range(SETUP_REPS - 1)]
    setup_s = statistics.median(reps)

    lines = []
    say = lines.append
    say(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    say(f"closed loop, 1 client, 1 thread; {len(ops)} operations per cycle")
    say(f"setup_s {setup_s:.4f} s, median of {SETUP_REPS} cold set-ups, this process's first: "
        + ", ".join(f"{r:.4f}" for r in reps))

    if args.trace == 0:
        tally = run_cycles(ops, args.seconds)
        defects = workloads.known_defects(args.seed) if args.workload == "cli-mix" else []
        p, tail_value, beyond = tail(tally.latencies)
        metrics = {
            "ops_per_s": {"value": len(ops) / statistics.median(tally.cycle_busy), "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(tally.latencies) * 1000, "unit": "ms"},
            "latency_tail_ms": {"value": tail_value * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        say(f"{tally.cycles} cycles, {tally.count} samples, {tally.busy:.3f} s of operations")
        say("cycle seconds: " + " ".join(f"{c:.4f}" for c in tally.cycle_busy))
        for name, m in metrics.items():
            note = f"  (p{p:g}, {beyond} samples beyond, of {tally.count})" if name == "latency_tail_ms" else ""
            say(f"{name:<16} {m['value']:.6g} {m['unit']}{note}")
        say(f"failed_ratio     {tally.failures / tally.count:.6g}  ({tally.failures} of {tally.count})")
        report_failures(tally, say)
        report_defects(defects, say)
        attempted, failed, correct = tally.count, tally.failures, tally.failures == 0
    else:
        import tracer

        tr = tracer.Tracer()
        from cohomring import instrument

        tr.install()
        try:
            instrument.reset()
            traced = run_cycles(ops, args.seconds / 2, tracer=tr, keep_outputs=True)
            counters = instrument.counts()
        finally:
            tr.uninstall()
        left = tr.restored()
        plain = run_cycles(ops, 0, cycles=traced.cycles, keep_outputs=True)
        mismatches = sum(a != b for a, b in zip(traced.keys, plain.keys))
        overhead_pct = (traced.busy / plain.busy - 1) * 100
        defects = workloads.known_defects(args.seed) if args.workload == "cli-mix" else []
        metrics = layer_metrics(tr, counters, traced.count, overhead_pct, defects)
        say(f"traced: {traced.cycles} cycles, {traced.count} operations, {traced.busy:.3f} s, "
            f"{tr.span_count} spans kept in memory")
        say(f"untraced replay of the same operations: {plain.busy:.3f} s; "
            f"tracing overhead {overhead_pct:.2f}%")
        say(f"outputs differing between traced and untraced runs: {mismatches}")
        say("names still wrapped after the traced run: " + (", ".join(left) if left else "none"))
        say("layer                              calls/op      total s/op       self s/op")
        for layer, (calls, total, own) in sorted(tr.summary().items()):
            n = traced.count
            say(f"  {layer:<31}{calls / n:>10.4g}{total / n:>16.6g}{own / n:>16.6g}")
        for name, m in metrics.items():
            say(f"{name:<40} {m['value']:.6g} {m['unit']}")
        report_failures(traced, say)
        report_defects(defects, say)
        attempted = traced.count + plain.count
        failed = traced.failures + plain.failures + mismatches + len(left)
        correct = failed == 0

    print("\n".join(lines))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
