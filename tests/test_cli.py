import json
import sys
import time
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohomring import cli
from cohomring import cohomology as coh
from cohomring import ideal as ideal_module
from cohomring.cli import main, run_command
from cohomring.cohomology import catalog_entries

REDUCE_ARGS = [
    "reduce",
    "X^2",
    "--ideal",
    "(X^3, Y^2, X^2+X*Y)",
    "--ring",
    "Z2",
    "--vars",
    "X,Y",
]


def test_reduce_example():
    assert run_command(REDUCE_ARGS) == (0, "X*Y")


def test_reduce_example_json_bytes():
    code, text = run_command(REDUCE_ARGS + ["--json"])
    assert code == 0
    assert text == (
        '{"command": "reduce", "diagnostics": {}, '
        '"inputs": {"expr": "X^2", "ideal": "(X^3, Y^2, X^2+X*Y)", '
        '"ring": "Z2", "vars": "X,Y"}, "result": "X*Y"}'
    )


GROEBNER_CHECK_ARGS = ["groebner-check", "--ideal", "(X^3, Y^2, X^2+X*Y)", "--ring", "Z2", "--vars", "X,Y"]


def test_field_reduce_checks_an_equal_basis_once():
    # the leads X^3 and X^2 share X, so the Groebner check forms S-polynomials;
    # reduce and groebner-check keep one verdict per basis between them
    runs = {tuple(REDUCE_ARGS): (0, "X*Y"), tuple(GROEBNER_CHECK_ARGS): (0, "true")}
    for argv, want in runs.items():
        ideal_module._known_groebner.cache_clear()
        with mock.patch.object(ideal_module, "s_poly", wraps=ideal_module.s_poly) as spy:
            assert run_command(argv) == want
            formed = spy.call_count
            for again, again_want in runs.items():
                assert run_command(again) == again_want
        assert formed > 0
        assert spy.call_count == formed
    # a term-ideal basis has no verdict to keep; it is refused on every call
    refusal = (1, "error: confluence via S-polynomials needs field mode")
    for _ in range(2):
        assert run_command(["groebner-check", "--ideal", "(2*X, 3*Y)", "--vars", "X,Y"]) == refusal


def test_distinguish_example():
    code, text = run_command(
        ["cohomology-distinguish", "K2", "RP2vS1", "--coeff", "Z2"]
    )
    assert code == 0
    assert text == "distinct (no graded ring isomorphism exists)"


def test_distinguish_example_json_bytes():
    code, text = run_command(
        ["cohomology-distinguish", "K2", "RP2vS1", "--coeff", "Z2", "--json"]
    )
    assert code == 0
    assert text == (
        '{"command": "cohomology-distinguish", "diagnostics": {}, '
        '"inputs": {"coeff": "Z2", "space1": "K2", "space2": "RP2vS1"}, '
        '"result": "distinct (no graded ring isomorphism exists)"}'
    )


def test_unsupported_pair_example():
    code, text = run_command(["cohomology-ring", "S2", "--coeff", "Z2"])
    assert code == 1
    assert text == "error: unsupported coefficient for this space"


def test_unsupported_pair_example_json_bytes():
    code, text = run_command(["cohomology-ring", "S2", "--coeff", "Z2", "--json"])
    assert code == 1
    assert text == (
        '{"command": "cohomology-ring", '
        '"diagnostics": {"error": "unsupported coefficient for this space"}, '
        '"inputs": {"coeff": "Z2", "space": "S2"}, "result": null}'
    )


def test_normalize():
    assert run_command(["normalize", "X + X + 1", "--ring", "Z2", "--vars", "X"]) == (
        0,
        "1",
    )
    # canonical order is ascending, later variables weigh less
    assert run_command(["normalize", "X + Y", "--vars", "X,Y"]) == (0, "Y + X")


def test_add_and_mul():
    assert run_command(["add", "X^2", "3*X", "--vars", "X"]) == (0, "3*X + X^2")
    assert run_command(["mul", "X + 1", "X - 1", "--vars", "X"]) == (0, "-1 + X^2")


def test_eval():
    assert run_command(["eval", "X^2 + 1", "3", "--vars", "X"]) == (0, "10")
    assert run_command(["eval", "X*Y", "3", "4", "--vars", "X,Y"]) == (0, "12")
    assert run_command(["eval", "X^2 + 1", "3", "--ring", "Z2", "--vars", "X"]) == (
        0,
        "0",
    )


def test_eval_wrong_value_count():
    code, text = run_command(["eval", "X*Y", "3", "--vars", "X,Y"])
    assert code == 1
    assert text.startswith("error:")


def test_groebner_check():
    args = ["groebner-check", "--ideal", "(X^3, Y^2, X^2+X*Y)", "--ring", "Z2", "--vars", "X,Y"]
    assert run_command(args) == (0, "true")
    args = ["groebner-check", "--ideal", "(X*Y+1, X^2)", "--ring", "Z2", "--vars", "X,Y"]
    assert run_command(args) == (0, "false")


def test_groebner_check_on_coprime_leads_and_on_an_unresolved_pair():
    z7 = ["--ring", "Z7", "--vars", "X,Y,Z"]
    coprime = ["--ideal", "(3*X^2 + Y, Y^3 + X + 1, Z^2 + 3*Y)"] + z7
    assert run_command(["groebner-check"] + coprime) == (0, "true")
    assert run_command(["reduce", "X^2 + Z^2"] + coprime) == (0, "6*Y")
    unresolved = ["--ideal", "(X*Y + 2, X*Z + 3)"] + z7
    assert run_command(["groebner-check"] + unresolved) == (0, "false")


def test_reduce_refuses_a_field_basis_that_is_not_groebner():
    # modulo (X-1, X-Y) the remainder of X was 1 in one order and Y in the
    # other, and Y-1, which lies in the ideal, reduced to 6 + Y
    refusal = (1, "error: normal forms are only unique for a Groebner basis")
    for ideal in ("(X-1, X-Y)", "(X-Y, X-1)"):
        for expr in ("X", "Y-1"):
            assert run_command(["reduce", expr, "--ideal", ideal, "--ring", "Z7"]) == refusal
    done = run_command(["groebner-check", "--ideal", "(X-1, X-Y)", "--ring", "Z7", "--complete"])
    assert done == (0, "(6 + X, 6*Y + X, 6 + Y)")
    assert run_command(["reduce", "X", "--ideal", done[1], "--ring", "Z7"]) == (0, "1")


def test_groebner_complete():
    code, text = run_command(
        [
            "groebner-check",
            "--ideal",
            "(X*Y+1, X^2)",
            "--ring",
            "Z2",
            "--vars",
            "X,Y",
            "--complete",
        ]
    )
    assert code == 0
    # generators render canonically, constant term first
    assert text == "(1 + X*Y, X^2, X, 1)"


def test_groebner_complete_bound_exceeded():
    code, text = run_command(
        [
            "groebner-check",
            "--ideal",
            "(X*Y+Z^2, X^2+Y^2)",
            "--ring",
            "Z2",
            "--vars",
            "X,Y,Z",
            "--complete",
            "--degree-bound",
            "2",
        ]
    )
    assert code == 1
    assert text.startswith("error:")


def test_cohomology_ring_presentations():
    code, text = run_command(["cohomology-ring", "K2", "--coeff", "Z2"])
    assert code == 0
    assert text == "Z2[X,Y]/(X^3, Y^2, X*Y + X^2)\ndeg X = 1, deg Y = 1"
    code, text = run_command(["cohomology-ring", "S2", "--coeff", "Z"])
    assert code == 0
    assert text == "Z[X]/(X^2)\ndeg X = 2"


def test_cohomology_ring_json_shape():
    code, text = run_command(["cohomology-ring", "CP2", "--coeff", "Z", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["result"] == {
        "degrees": [2],
        "relations": ["X^3"],
        "ring": "Z",
        "variables": ["X"],
    }


PINNED_CATALOG = [
    # space, coeff, human text, JSON "result" field
    ("S1", "Z", "Z[X]/(X^2)\ndeg X = 1",
     '{"degrees": [1], "relations": ["X^2"], "ring": "Z", "variables": ["X"]}'),
    ("S2", "Z", "Z[X]/(X^2)\ndeg X = 2",
     '{"degrees": [2], "relations": ["X^2"], "ring": "Z", "variables": ["X"]}'),
    ("S3", "Z", "Z[X]/(X^2)\ndeg X = 3",
     '{"degrees": [3], "relations": ["X^2"], "ring": "Z", "variables": ["X"]}'),
    ("S5", "Z", "Z[X]/(X^2)\ndeg X = 5",
     '{"degrees": [5], "relations": ["X^2"], "ring": "Z", "variables": ["X"]}'),
    ("CP2", "Z", "Z[X]/(X^3)\ndeg X = 2",
     '{"degrees": [2], "relations": ["X^3"], "ring": "Z", "variables": ["X"]}'),
    ("S2vS4", "Z", "Z[X,Y]/(X^2, X*Y, Y^2)\ndeg X = 2, deg Y = 4",
     '{"degrees": [2, 4], "relations": ["X^2", "X*Y", "Y^2"], "ring": "Z", "variables": ["X", "Y"]}'),
    ("K2", "Z", "Z[X,Y]/(X^2, X*Y, 2*Y, Y^2)\ndeg X = 1, deg Y = 2",
     '{"degrees": [1, 2], "relations": ["X^2", "X*Y", "2*Y", "Y^2"], "ring": "Z", "variables": ["X", "Y"]}'),
    ("RP2vS1", "Z", "Z[X,Y]/(X^2, X*Y, 2*Y, Y^2)\ndeg X = 1, deg Y = 2",
     '{"degrees": [1, 2], "relations": ["X^2", "X*Y", "2*Y", "Y^2"], "ring": "Z", "variables": ["X", "Y"]}'),
    ("K2", "Z2", "Z2[X,Y]/(X^3, Y^2, X*Y + X^2)\ndeg X = 1, deg Y = 1",
     '{"degrees": [1, 1], "relations": ["X^3", "Y^2", "X*Y + X^2"], "ring": "Z2", "variables": ["X", "Y"]}'),
    ("RP2vS1", "Z2", "Z2[X,Y]/(X^3, Y^2, X*Y)\ndeg X = 1, deg Y = 1",
     '{"degrees": [1, 1], "relations": ["X^3", "Y^2", "X*Y"], "ring": "Z2", "variables": ["X", "Y"]}'),
]


def test_catalog_output_is_pinned():
    assert [e.label() for e in catalog_entries()] == [
        "S1 with Z coefficients",
        "S2 with Z coefficients",
        "S3 with Z coefficients",
        "CP2 with Z coefficients",
        "S2vS4 with Z coefficients",
        "K2 with Z coefficients",
        "RP2vS1 with Z coefficients",
        "K2 with Z2 coefficients",
        "RP2vS1 with Z2 coefficients",
    ]
    for space, coeff, text, result in PINNED_CATALOG:
        argv = ["cohomology-ring", space, "--coeff", coeff]
        assert run_command(argv) == (0, text)
        assert run_command(argv + ["--json"]) == (
            0,
            '{"command": "cohomology-ring", "diagnostics": {}, '
            f'"inputs": {{"coeff": "{coeff}", "space": "{space}"}}, "result": {result}}}',
        )


def test_cohomology_group():
    assert run_command(["cohomology-group", "K2", "2", "--coeff", "Z"]) == (0, "Z2")
    assert run_command(["cohomology-group", "K2", "1", "--coeff", "Z2"]) == (
        0,
        "Z2 x Z2",
    )
    assert run_command(["cohomology-group", "S2", "1", "--coeff", "Z"]) == (0, "0")
    assert run_command(["cohomology-group", "S2", "2", "--coeff", "Z"]) == (0, "Z")


def test_cup_trivial():
    assert run_command(
        ["cohomology-cup-trivial", "S2vS4", "2", "2", "--coeff", "Z"]
    ) == (0, "true")
    assert run_command(["cohomology-cup-trivial", "CP2", "2", "2", "--coeff", "Z"]) == (
        0,
        "false",
    )


def test_distinguish_by_groups():
    code, text = run_command(["cohomology-distinguish", "S2", "S3", "--coeff", "Z"])
    assert code == 0
    assert text == "distinct (cohomology groups differ in degree 2)"


def test_distinguish_inconclusive():
    code, text = run_command(["cohomology-distinguish", "K2", "RP2vS1", "--coeff", "Z"])
    assert code == 0
    assert text == "indistinguishable by implemented invariants"


def test_unknown_space():
    code, text = run_command(["cohomology-ring", "T2", "--coeff", "Z"])
    assert code == 1
    assert "T2" in text


def test_usage_errors_exit_2():
    assert run_command([])[0] == 2
    assert run_command(["no-such-command"])[0] == 2
    assert run_command(["reduce"])[0] == 2
    assert run_command(["normalize", "X", "--no-such-flag"])[0] == 2


def test_vars_must_be_distinct_readable_names():
    # a second X would shadow the first, and 2Y lexes as "2" then "Y"
    assert run_command(["eval", "X", "5", "7", "--vars", "X,X"]) == (
        1,
        "error: variable 'X' declared twice",
    )
    for bad in ("2Y", "X^2", "X Y", "\u00b2", "&"):
        assert run_command(["eval", "X", "5", "7", "--vars", f"X,{bad}"]) == (
            1,
            f"error: cannot read {bad!r} as a variable name",
        )
    assert run_command(["eval", "X*_y2*\u00e9", "5", "7", "2", "--vars", " X,_y2 ,\u00e9"]) == (0, "70")


def test_a_catalog_entry_is_built_once(monkeypatch):
    built = []
    presented_ring = coh.presented_ring

    def counted(*args):
        built.append(args)
        return presented_ring(*args)

    monkeypatch.setattr(coh, "presented_ring", counted)
    coh.catalog_get.cache_clear()
    argv = ["cohomology-ring", "K2", "--coeff", "Z2"]
    assert run_command(argv) == run_command(argv)
    assert run_command(argv)[0] == 0
    assert len(built) == 1


def test_domain_errors_exit_1():
    assert run_command(["normalize", "X^", "--vars", "X"])[0] == 1
    assert run_command(["normalize", "Q", "--vars", "X"])[0] == 1
    assert run_command(["normalize", "X", "--ring", "Q7", "--vars", "X"])[0] == 1
    assert run_command(["reduce", "X", "--ideal", "X", "--vars", "X"])[0] == 1


def test_reduce_applies_the_gcd_of_the_dividing_moduli():
    ideal = ["--ideal", "(4*X, 6*X)", "--vars", "X"]
    assert run_command(["reduce", "2*X"] + ideal) == (0, "0")
    assert run_command(["reduce"] + ideal + ["--", "-X"]) == (0, "X")


DEEP = "(" * 3000 + "X" + ")" * 3000


def test_deep_nesting_is_a_parse_error():
    code, text = run_command(["normalize", DEEP, "--vars", "X"])
    assert code == 1
    assert text == "error: parentheses nested deeper than 100 (at position 100)"
    assert run_command(["normalize", "(" * 100 + "X" + ")" * 100, "--vars", "X"]) == (0, "X")


def _refused_as_too_large(argv):
    code, text = run_command(argv)
    assert code == 1
    assert "digits" in text and text.startswith("error: ")


def test_huge_power_value_is_refused():
    _refused_as_too_large(["eval", "X^300000", "3", "--vars", "X"])


def test_hopeless_power_is_refused_before_it_is_computed():
    start = time.perf_counter()
    _refused_as_too_large(["eval", "X^100000000", "3", "--vars", "X"])
    assert time.perf_counter() - start < 1
    # |x| <= 1 adds nothing to the size bound
    for x in ("1", "0", "-1"):
        assert run_command(["eval", "X^100000000", x, "--vars", "X"])[0] == 0


def test_eval_prints_up_to_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    e = (10**limit).bit_length() - 1  # the largest power of 2 with `limit` digits
    code, text = run_command(["eval", f"X^{e}", "2", "--vars", "X"])
    assert (code, len(text)) == (0, limit)
    _refused_as_too_large(["eval", f"X^{e + 1}", "2", "--vars", "X"])


def test_huge_eval_value_is_refused_in_a_short_message():
    code, text = run_command(["eval", "X", "9" * 5000, "--vars", "X"])
    assert code == 1
    assert str(sys.get_int_max_str_digits()) in text and len(text) < 200


def test_huge_literal_is_refused():
    _refused_as_too_large(["normalize", "9" * 5000, "--vars", "X"])


def test_unprintable_product_is_refused():
    _refused_as_too_large(["mul", "9" * 3000, "9" * 3000, "--vars", "X"])
    power = "X^5" + "0" * (sys.get_int_max_str_digits() - 1)  # squared: one digit more
    _refused_as_too_large(["mul", power, power, "--vars", "X"])


def test_products_whose_packing_weights_have_thousands_of_digits():
    limit = sys.get_int_max_str_digits()  # 4300 by default
    n = "1" + "0" * (limit - 1)
    assert run_command(["mul", f"X^{n}", "Y", "--vars", "X,Y"]) == (0, f"X^{n}*Y")
    n = "9" * limit  # X^(n+1)*Y, the product's first term, has an exponent of limit + 1 digits
    code, text = run_command(["mul", f"X^{n}*Y", f"Y^{n} + X", "--vars", "X,Y", "--ring", "Z7"])
    refusal = f"error: a number runs past {limit} digits, where int/str conversion stops"
    assert (code, text) == (1, refusal)


def test_huge_modulus_and_sphere_dimension_are_refused():
    _refused_as_too_large(["normalize", "X", "--ring", "Z/" + "7" * 5000, "--vars", "X"])
    _refused_as_too_large(["cohomology-group", "S" + "7" * 5000, "1"])


def test_non_decimal_digits_are_domain_errors():
    assert run_command(["normalize", "X^\u00b2", "--vars", "X"])[0] == 1
    assert run_command(["normalize", "X", "--ring", "Z\u00b2", "--vars", "X"])[0] == 1
    assert run_command(["cohomology-group", "S\u00b2", "1"])[0] == 1


def test_help_exits_0():
    code, text = run_command(["--help"])
    assert code == 0
    assert "cohomring" in text


def test_json_output_is_stable():
    for argv in (
        REDUCE_ARGS + ["--json"],
        ["cohomology-group", "K2", "1", "--coeff", "Z2", "--json"],
        ["eval", "X^2", "5", "--vars", "X", "--json"],
    ):
        assert run_command(argv) == run_command(argv)


def test_main_prints_and_returns(capsys):
    assert main(["normalize", "0", "--vars", "X"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["cohomology-ring", "S2", "--coeff", "Z2"]) == 1
    assert capsys.readouterr().err.strip() == "error: unsupported coefficient for this space"


_TOKENS = st.sampled_from(
    [
        "normalize",
        "reduce",
        "eval",
        "bench",
        "cohomology-ring",
        "X^2",
        "X,Y",
        "((",
        "-3",
        "--ring",
        "--vars",
        "--ideal",
        "--coeff",
        "--json",
        "Z2",
        "Z/0",
        "K2",
        "",
        "mul",
        "3",
        DEEP,
        "X^300000",
        "X^100000000",
        "9" * 3000,
        "9" * 5000,
        "X^\u00b2",
    ]
)


@given(st.lists(_TOKENS, max_size=5))
def test_fuzzed_argv_never_panics(argv):
    code, _ = run_command(argv)
    assert code in (0, 1, 2)


# groebner-check --complete then plain; eval with 1, 2 and 3 values; --json
# then none; usage errors after successes; --help
_GROEBNER = ["groebner-check", "--ideal", "(X^2 - Y, X*Y - 1)", "--ring", "Z7"]
_SEQUENCE = [
    _GROEBNER + ["--complete"],
    _GROEBNER,
    ["eval", "X^2 + 1", "3", "--vars", "X"],
    ["eval", "X*Y", "3", "4"],
    ["eval", "X*Y*Z", "2", "3", "5", "--vars", "X,Y,Z", "--ring", "Z7"],
    ["eval", "X*Y", "2", "3", "5"],
    REDUCE_ARGS + ["--json"],
    REDUCE_ARGS,
    ["normalize", "X + X"],
    ["normalize"],
    ["mul", "X + 1", "X - 1", "--unknown"],
    ["--help"],
    ["eval", "--help"],
    ["cohomology-group", "K2", "1", "--coeff", "Z2", "--json"],
    ["cohomology-group", "K2", "1"],
    ["add", "X", "Y", "--json"],
    ["add", "X", "Y"],
]


def test_the_parser_is_built_once_and_keeps_no_state(monkeypatch):
    cached = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", cached.__wrapped__)
    fresh = [run_command(argv) for argv in _SEQUENCE]
    monkeypatch.undo()
    assert fresh[:2] == [(0, "(6*Y + X^2, 6 + X*Y, 6*X + Y^2)"), (0, "false")]
    assert fresh[2:6] == [(0, "10"), (0, "12"), (0, "2"), (1, "error: expected 2 values, got 3")]
    assert json.loads(fresh[6][1])["result"] == "X*Y" and fresh[7] == (0, "X*Y")
    for code, text in fresh[9:11]:
        assert code == 2 and text.startswith("usage: cohomring")
    assert fresh[11][0] == 0 and fresh[11][1].startswith("usage: cohomring [-h]")
    assert fresh[12][0] == 0 and fresh[12][1].startswith("usage: cohomring eval")

    cached.cache_clear()
    assert [run_command(argv) for argv in _SEQUENCE] == fresh
    for argv in (_SEQUENCE * 2)[: 50 - len(_SEQUENCE)]:
        run_command(argv)
    assert cached.cache_info().misses == 1
