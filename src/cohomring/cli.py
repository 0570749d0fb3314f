"""Command-line front end.

Every command is available through run_command(argv) -> (exit code, text),
which never raises: domain problems (bad expressions, unsupported catalog
pairs, non-invertible leads) exit 1, usage problems (unknown flags, missing
arguments) exit 2. With --json the output is a single JSON object with the
fields {command, inputs, result, diagnostics}, rendered with sorted keys so
equal invocations produce identical bytes.

The argparse parser is built once per process, on the first command, and
reused: a parse keeps no state in the parser, and argparse looks up
sys.stdout and sys.stderr only when it prints, so run_command still captures
usage errors and --help.
"""

import argparse
import contextlib
import functools
import io
import json
import sys

from . import expr, poly
from .cohomology import (
    catalog_get,
    cohomology_group,
    cup_is_trivial,
    distinguish,
    parse_space,
)
from .errors import AlgebraError, ConfigError
from .ideal import _known_groebner, complete_to_groebner, make_basis, require_groebner
from .ideal import reduce as reduce_to_normal
from .rings import check_digits, check_printable, parse_ring


def _poly_setup(args):
    ring = parse_ring(args.ring)
    names = tuple(s.strip() for s in args.vars.split(",") if s.strip())
    if not names:
        raise ConfigError("no variables declared")
    for k, name in enumerate(names):
        if not expr.is_name(name):
            raise ConfigError(f"cannot read {name!r} as a variable name")
        if name in names[:k]:
            raise ConfigError(f"variable {name!r} declared twice")
    return ring, names


def _handle_normalize(args):
    ring, names = _poly_setup(args)
    text = poly.render(expr.parse(args.expr, ring, names), names)
    return text, text, {}


def _handle_add(args):
    ring, names = _poly_setup(args)
    p = expr.parse(args.expr1, ring, names)
    q = expr.parse(args.expr2, ring, names)
    text = poly.render(p + q, names)
    return text, text, {}


def _handle_mul(args):
    ring, names = _poly_setup(args)
    p = expr.parse(args.expr1, ring, names)
    q = expr.parse(args.expr2, ring, names)
    text = poly.render(poly.mul(p, q), names)
    return text, text, {}


def _integer(text: str) -> int:
    """One eval value; refused before int() when it has too many digits."""
    check_digits(sum(ch.isdecimal() for ch in text), "a value")
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"values must be integers, got {text!r}") from None


def _handle_eval(args):
    ring, names = _poly_setup(args)
    p = expr.parse(args.expr, ring, names)
    point = [_integer(v) for v in args.values]
    if len(point) != len(names):
        raise ConfigError(f"expected {len(names)} values, got {len(point)}")
    value = poly.multi_eval(p, point)
    check_printable(value)
    return value, str(value), {}


def _handle_reduce(args):
    ring, names = _poly_setup(args)
    basis = make_basis(expr.parse_ideal(args.ideal, ring, names))
    require_groebner(basis)
    text = poly.render(reduce_to_normal(expr.parse(args.expr, ring, names), basis), names)
    return text, text, {}


def _handle_groebner_check(args):
    ring, names = _poly_setup(args)
    basis = make_basis(expr.parse_ideal(args.ideal, ring, names))
    if args.complete:
        done = complete_to_groebner(basis, bound=args.degree_bound)
        rendered = [poly.render(g, names) for g in done.gens]
        return rendered, "(" + ", ".join(rendered) + ")", {"mode": done.mode}
    ok = _known_groebner(basis)
    return ok, "true" if ok else "false", {"mode": basis.mode}


def _handle_cohomology_ring(args):
    entry = catalog_get(parse_space(args.space), parse_ring(args.coeff))
    result = {
        "ring": str(entry.ring),
        "variables": list(entry.variables),
        "degrees": list(entry.var_degrees),
        "relations": list(entry.relations),
    }
    return result, f"{entry.presentation()}\n{entry.degree_line()}", {}


def _handle_cohomology_group(args):
    group = cohomology_group(parse_space(args.space), parse_ring(args.coeff), args.degree)
    return group.text(), group.text(), {}


def _handle_cup_trivial(args):
    entry = catalog_get(parse_space(args.space), parse_ring(args.coeff))
    ok = cup_is_trivial(entry, args.n, args.m)
    return ok, "true" if ok else "false", {}


def _handle_distinguish(args):
    verdict = distinguish(
        parse_space(args.space1), parse_space(args.space2), parse_ring(args.coeff)
    )
    return verdict.describe(), verdict.describe(), {}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohomring",
        description="Polynomial arithmetic, quotient rings, and a cohomology-ring catalog.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true", help="emit one JSON object")
    ringy = argparse.ArgumentParser(add_help=False)
    ringy.add_argument("--ring", default="Z", help="coefficient ring: Z, Zn, or Z/n")
    ringy.add_argument("--vars", default="X,Y", help="comma-separated variable names")
    coh = argparse.ArgumentParser(add_help=False)
    coh.add_argument("--coeff", default="Z", help="coefficient ring: Z or Z2")

    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def cmd(name, handler, parents, help_text):
        p = sub.add_parser(name, parents=[shared] + parents, help=help_text)
        p.set_defaults(handler=handler, command=name)
        return p

    p = cmd("normalize", _handle_normalize, [ringy], "parse and render canonically")
    p.add_argument("expr")
    p = cmd("add", _handle_add, [ringy], "sum of two expressions")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p = cmd("mul", _handle_mul, [ringy], "product of two expressions")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p = cmd("eval", _handle_eval, [ringy], "evaluate at a point")
    p.add_argument("expr")
    p.add_argument("values", nargs="+", help="one integer per variable")
    p = cmd("reduce", _handle_reduce, [ringy], "normal form modulo an ideal")
    p.add_argument("expr")
    p.add_argument("--ideal", required=True, help='generators, e.g. "(X^2, X*Y)"')
    p = cmd("groebner-check", _handle_groebner_check, [ringy], "confluence of a basis")
    p.add_argument("--ideal", required=True)
    p.add_argument("--complete", action="store_true", help="run Buchberger completion")
    p.add_argument("--degree-bound", type=int, default=8, dest="degree_bound")
    p = cmd("cohomology-ring", _handle_cohomology_ring, [coh], "presentation of H*(space)")
    p.add_argument("space")
    p = cmd("cohomology-group", _handle_cohomology_group, [coh], "one cohomology group")
    p.add_argument("space")
    p.add_argument("degree", type=int)
    p = cmd("cohomology-cup-trivial", _handle_cup_trivial, [coh], "do all cups in a bidegree vanish")
    p.add_argument("space")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p = cmd("cohomology-distinguish", _handle_distinguish, [coh], "tell two spaces apart")
    p.add_argument("space1")
    p.add_argument("space2")
    return parser


def run_command(argv) -> tuple:
    """Run one command; returns (exit code, output text) and never raises."""
    capture = io.StringIO()
    try:
        with contextlib.redirect_stdout(capture), contextlib.redirect_stderr(capture):
            args = _build_parser().parse_args(list(argv))
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 2
        return code, capture.getvalue().rstrip("\n")
    inputs = {
        k: v for k, v in vars(args).items() if k not in ("handler", "command", "json")
    }
    code = 0
    try:
        result, human, diagnostics = args.handler(args)
    except AlgebraError as err:
        code, result, human, diagnostics = 1, None, f"error: {err}", {"error": str(err)}
    if args.json:
        payload = {
            "command": args.command,
            "inputs": inputs,
            "result": result,
            "diagnostics": diagnostics,
        }
        return code, json.dumps(payload, sort_keys=True)
    return code, human


def main(argv=None) -> int:
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    if text:
        print(text, file=sys.stdout if code == 0 else sys.stderr)
    return code
