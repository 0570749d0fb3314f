"""The tracer leaves no wrapped name behind and does not change outputs, the
iso-search plan builds forms of the classes it names, and a run prints the
metrics BENCHMARK.json lists.

Run from the repository root: python3 -m pytest bench/test_harness.py -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from cohomring import cli, dsum, ideal  # noqa: E402


def _outputs(ops):
    return [op.key(op.run()) for op in ops]


def test_traced_outputs_match_and_every_name_is_restored():
    ops = workloads.build_cli_mix(3)[:60] + workloads.build_iso_search(3)[:6]
    before = (cli.reduce_to_normal, ideal.reduce, dsum.SparseSum.__dict__["from_terms"])
    plain = _outputs(ops)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert cli.reduce_to_normal is not before[0]
        traced = _outputs(ops)
    finally:
        tr.uninstall()
    assert traced == plain
    assert tr.restored() == []
    assert (cli.reduce_to_normal, ideal.reduce, dsum.SparseSum.__dict__["from_terms"]) == before
    assert tr.summary()["cli.run_command"][0] == sum(op.kind[0] != "k" and "distinguish K2" not in op.kind for op in ops)


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.span("op", cli.run_command, ["mul", "X + 1", "X - 1"])
    finally:
        tr.uninstall()
    layers = tr.summary()
    assert layers["op"][0] == 1 and layers["expr.parse"][0] == 2
    op_total, op_self = layers["op"][1:]
    assert abs(op_total - op_self - layers["cli.run_command"][1]) < 1e-9
    assert layers["cli.run_command"][2] < layers["cli.run_command"][1]


def test_iso_plan_forms_fall_in_their_classes():
    import random

    import oracles

    rng = random.Random(1)
    for k, class_a, class_b in workloads.ISO_PLAN:
        for cls in (class_a, class_b):
            assert oracles.f2_form_class(workloads._random_form(rng, k, cls)) == cls
    isomorphic = sum(a == b for _, a, b in workloads.ISO_PLAN)
    assert abs(2 * isomorphic - len(workloads.ISO_PLAN)) <= 1


def test_run_prints_exactly_the_metrics_benchmark_json_names(capsys):
    import json

    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", "cli-mix", "--seed", "1", "--seconds", "0.01", "--trace", str(trace)]
        assert run.main(argv) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        names = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_every_cycle_is_checked_not_only_the_first():
    """An output equal to one the oracle accepted skips the oracle; any other
    output is checked again, so a wrong answer in a later cycle still fails."""
    import run

    answers = iter([1, 1, 2, 1])
    op = workloads.Op("flaky", lambda: next(answers), lambda out: None if out == 1 else "wrong", repr)
    tally = run.run_cycles([op], 0, cycles=4)
    assert tally.count == 4 and tally.failures == 1
    assert tally.first_failure == {"flaky": "wrong"}
