"""The four workloads: seeded inputs, the library call each input drives, and
the independent check of its output.

Each workload builds one cycle of operations from the seed. The benchmark
runs whole cycles, so every run sees the same mix of operation classes and
only the seeded data inside each class changes. Every call goes through a
public module attribute at call time (poly.mul, cli.run_command, ...), which
is what lets the tracer rebind those names from outside.
"""

import json
import random
from dataclasses import dataclass
from typing import Callable

import oracles
from cohomring import cli, cohomology, poly
from cohomring.rings import IntegerRing, ModularRing


@dataclass(frozen=True)
class Op:
    kind: str  # operation class, the unit of failure reports
    run: Callable  # () -> output; the only timed part
    check: Callable  # output -> None when correct, else what is wrong
    key: Callable  # output -> small value compared between traced and plain runs


def _jitter(rng, size: int, spread: float = 0.03) -> int:
    return max(1, round(size * (1 + rng.uniform(-spread, spread))))


# ---------------------------------------------------------------- dense-product

DENSE_RINGS = (
    ("Z-signed", IntegerRing(), -99, 99),
    ("Z-nonneg", IntegerRing(), 0, 99),
    ("Z7", ModularRing(7), 0, 6),
    ("Z32003", ModularRing(32003), 0, 32002),
)
DENSE_SIZES = (1000, 2000, 3000, 5000, 10000, 30000)
SQUARE_SIZE = 5000  # one signed squaring makes the cycle 49 operations long
UNBALANCED_RATIO = 8  # the short operand of an unbalanced pair is 1/8 as long


def dense_op(kind, ring, a_coeffs, b_coeffs, check_rng) -> Op:
    a = poly.uni_dense(ring, a_coeffs)
    b = poly.uni_dense(ring, b_coeffs)
    modulus = ring.n if isinstance(ring, ModularRing) else None

    def check(out):
        if type(out).__name__ != "DenseSeq":
            return f"expected a DenseSeq, got {type(out).__name__}"
        return oracles.check_dense_product(a.coeffs, b.coeffs, out.coeffs, modulus, check_rng)

    key = lambda out: hash(out.coeffs) if type(out).__name__ == "DenseSeq" else None
    return Op(kind, lambda: poly.mul(a, b), check, key)


def build_dense_product(seed: int) -> list:
    rng = random.Random(f"dense-product:{seed}")
    check_rng = random.Random(f"dense-product-check:{seed}")
    ops = []
    for label, ring, lo, hi in DENSE_RINGS:
        values = range(lo, hi + 1)
        for size in DENSE_SIZES:
            for shape in ("balanced", "unbalanced"):
                n = _jitter(rng, size)
                m = n if shape == "balanced" else _jitter(rng, size // UNBALANCED_RATIO)
                a = rng.choices(values, k=n)
                b = rng.choices(values, k=m)
                if rng.random() < 0.5:
                    a, b = b, a
                ops.append(dense_op(f"{label} {size} {shape}", ring, a, b, check_rng))
    label, ring, lo, hi = DENSE_RINGS[0]
    a = rng.choices(range(lo, hi + 1), k=_jitter(rng, SQUARE_SIZE))
    ops.append(dense_op(f"{label} {SQUARE_SIZE} square", ring, a, a, check_rng))
    rng.shuffle(ops)
    return ops


def warm_dense_product(ops: list) -> None:
    for op in ops:
        if op.kind.split()[1] == str(DENSE_SIZES[0]):
            op.run()


# --------------------------------------------------------------- catalog-verify


def _verify_op(entry, seed: int) -> Op:
    def check(report):
        if not report.passed:
            return f"verify_entry failed: {report.counterexample}"
        if len(report.checks) != 6 or not all(ok for _, ok, _ in report.checks):
            return f"unexpected checks {report.checks}"
        return None

    return Op(
        f"verify {entry.space}/{entry.ring}",
        lambda: cohomology.verify_entry(entry, seed=seed),
        check,
        lambda report: (report.passed, report.checks),
    )


def build_catalog_verify(seed: int) -> list:
    rng = random.Random(f"catalog-verify:{seed}")
    return [_verify_op(e, rng.randrange(1 << 30)) for e in cohomology.catalog_entries()]


def warm_catalog_verify(ops: list) -> None:
    ops[0].run()


# ------------------------------------------------------------------- iso-search

# One cycle of (k, F2 class of form A, F2 class of form B) with k the rank in
# degree 1 and a class written (rank, alternating); equal classes make an
# isomorphic pair. Fixing the classes keeps the search cost of every slot
# alike across seeds while the seed picks random forms within each class.
ALT, NON = True, False


def _slots(k: int, pairs, count: int) -> list:
    return [(k,) + pairs[i % len(pairs)] for i in range(count)]


ISO_PLAN = (
    [(4, (4, NON), (4, ALT))]
    + _slots(3, [((3, NON), (2, ALT)), ((2, ALT), (3, NON)), ((1, NON), (3, NON))], 8)
    + _slots(3, [(c, c) for c in ((3, NON), (2, ALT), (2, NON), (1, NON))], 8)
    + _slots(
        2,
        [((2, NON), (2, ALT)), ((2, ALT), (2, NON)), ((1, NON), (2, NON)),
         ((2, NON), (1, NON)), ((0, ALT), (1, NON)), ((1, NON), (2, ALT))],
        25,
    )
    + _slots(2, [(c, c) for c in ((2, NON), (1, NON), (2, ALT), (0, ALT))], 26)
)


def _canonical_form(k: int, cls) -> list:
    """Hyperbolic planes for an alternating class, ones on the diagonal otherwise."""
    rank, alternating = cls
    form = [[0] * k for _ in range(k)]
    if alternating:
        for i in range(0, rank, 2):
            form[i][i + 1] = form[i + 1][i] = 1
    else:
        for i in range(rank):
            form[i][i] = 1
    return form


def _random_invertible(rng, k: int) -> list:
    while True:
        p = [[rng.randrange(2) for _ in range(k)] for _ in range(k)]
        if oracles.f2_rank(p) == k:
            return p


def _random_form(rng, k: int, cls) -> list:
    """A uniformly random form in the congruence class cls."""
    return oracles.f2_congruent_form(_canonical_form(k, cls), _random_invertible(rng, k))


def form_ring(form):
    """The mod-2 ring with ranks (1, k, 1) whose degree-1 cup product is the form."""
    k = len(form)
    names = tuple(f"a{i}" for i in range(k))
    products = {(names[i], names[j]): (form[i][j],) for i in range(k) for j in range(k)}
    return cohomology.presented_ring(
        {0: ((2,), ("eta",)), 1: ((2,) * k, names), 2: ((2,), ("top",))}, products
    )


def check_form_iso(phi, form_a, form_b) -> str | None:
    """phi must be a degreewise invertible, unit-preserving, multiplicative map."""
    k = len(form_a)
    if not isinstance(phi, dict) or set(phi) != {0, 1, 2}:
        return f"expected a map on degrees 0, 1, 2, got {phi!r}"
    if tuple(map(tuple, phi[0])) != ((1,),) or tuple(map(tuple, phi[2])) != ((1,),):
        return "degree 0 or degree 2 part is not the identity"
    cols = [tuple(c) for c in phi[1]]
    if len(cols) != k or any(len(c) != k for c in cols) or oracles.f2_rank(cols) != k:
        return "degree 1 part is not invertible"
    for i in range(k):
        for j in range(k):
            image = sum(cols[i][s] * form_b[s][t] * cols[j][t] for s in range(k) for t in range(k))
            if image % 2 != form_a[i][j] % 2:
                return f"not multiplicative on generators {i}, {j}"
    return None


def _iso_op(rng, k: int, class_a, class_b) -> Op:
    form_a, form_b = _random_form(rng, k, class_a), _random_form(rng, k, class_b)
    isomorphic = oracles.f2_form_class(form_a) == oracles.f2_form_class(form_b)
    a, b = form_ring(form_a), form_ring(form_b)

    def check(phi):
        if not isomorphic:
            return None if phi is None else "found a map between non-congruent forms"
        if phi is None:
            return "no map found between congruent forms"
        return check_form_iso(phi, form_a, form_b)

    kind = f"k={k} {'isomorphic' if isomorphic else 'non-isomorphic'}"
    return Op(kind, lambda: cohomology.find_graded_iso(a, b), check, repr)


def build_iso_search(seed: int) -> list:
    rng = random.Random(f"iso-search:{seed}")
    ops = [_iso_op(rng, k, class_a, class_b) for k, class_a, class_b in ISO_PLAN]
    k2, rp2vs1 = cohomology.parse_space("K2"), cohomology.parse_space("RP2vS1")
    z2 = ModularRing(2)
    ops.append(
        Op(
            "distinguish K2 RP2vS1 Z2",
            lambda: cohomology.distinguish(k2, rp2vs1, z2),
            lambda v: None if v.kind == "iso-search" else f"verdict {v!r}",
            repr,
        )
    )
    rng.shuffle(ops)
    return ops


def warm_iso_search(ops: list) -> None:
    for op in ops:
        if op.kind.startswith("k=2") or op.kind.startswith("distinguish"):
            op.run()


# ---------------------------------------------------------------------- cli-mix

CLI_RINGS = (("Z", None), ("Z7", 7), ("Z/32003", 32003))
FIELDS = (("Z2", 2), ("Z7", 7), ("Z/32003", 32003))


def _mono_text(names, mono) -> list:
    return [n if e == 1 else f"{n}^{e}" for n, e in zip(names, mono) if e]


def write_expr(rng, terms, names) -> str:
    """A non-canonical input text for a list of (monomial, coefficient) terms:
    shuffled, with explicit "1*" and "^1" now and then."""
    terms = list(terms)
    rng.shuffle(terms)
    pieces = []
    for mono, c in terms:
        factors = _mono_text(names, mono)
        if rng.random() < 0.1 and factors:
            factors = [f if "^" in f else f"{f}^1" for f in factors]
        if abs(c) != 1 or not factors or rng.random() < 0.1:
            factors = [str(abs(c))] + factors
        body = "*".join(factors)
        if not pieces:
            # a leading space keeps argparse from reading "-X" as an option
            pieces.append(f" -{body}" if c < 0 else body)
        else:
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(pieces) if pieces else "0"


def _ideal_text(rng, polys, names) -> str:
    return "(" + ", ".join(write_expr(rng, list(p.items()), names) for p in polys) + ")"


def _random_terms(rng, nvars: int, count: int, max_exp: int, coeff: int = 99) -> list:
    """count distinct monomials (as many as fit) with nonzero coefficients in
    [-coeff, coeff], plus a tenth as many repeats for the parser to merge."""
    grid = (max_exp + 1) ** nvars
    picks = rng.sample(range(grid), min(count, grid))
    picks += [rng.choice(picks) for _ in range(count // 10)]
    terms = []
    for k in picks:
        mono = tuple(k // (max_exp + 1) ** v % (max_exp + 1) for v in range(nvars))
        terms.append((mono, rng.choice([-1, 1]) * rng.randint(1, coeff)))
    return terms


def _as_dict(terms, modulus) -> dict:
    acc: dict = {}
    for mono, c in terms:
        acc[mono] = acc.get(mono, 0) + c
    return oracles.clean(acc, modulus)


def _cli_op(kind: str, argv: list, want_code: int, want_text=None, want_prefix=None) -> Op:
    argv = list(argv)

    def check(out):
        code, text = out
        if code != want_code:
            return f"exit {code}, expected {want_code}: {text[:120]!r}"
        if want_text is not None and text != want_text:
            return f"output {text[:120]!r}, expected {want_text[:120]!r}"
        if want_prefix is not None and not text.startswith(want_prefix):
            return f"output {text[:120]!r} does not start with {want_prefix!r}"
        return None

    return Op(kind, lambda: cli.run_command(argv), check, lambda out: out)


def stratified_pairs(rng, lo: int, hi: int, count: int) -> list:
    """count size pairs, one per stratum of [lo, hi] with both sizes drawn
    from that stratum: every seed gets the same spread of sizes and so of
    product costs."""
    width = (hi - lo + 1) / count
    return [
        (lo + int(width * (i + rng.random())), lo + int(width * (i + rng.random())))
        for i in range(count)
    ]


def _poly_case(rng, kind: str, ring, p_size: int, q_size: int):
    names = ("X", "Y", "Z")
    ring_text, modulus = ring
    common = ["--ring", ring_text, "--vars", ",".join(names)]
    p_terms = _random_terms(rng, len(names), p_size, 5)
    p = _as_dict(p_terms, modulus)
    p_text = write_expr(rng, p_terms, names)
    if kind == "normalize":
        return ["normalize", p_text] + common, oracles.render(p, names)
    if kind == "eval":
        point = [rng.randint(-9, 9) for _ in names]
        argv = ["eval", p_text] + [str(v) for v in point] + common
        return argv, str(oracles.poly_eval(p, point, modulus))
    q_terms = _random_terms(rng, len(names), q_size, 5)
    q = _as_dict(q_terms, modulus)
    combine = oracles.poly_add if kind == "add" else oracles.poly_mul
    argv = [kind, p_text, write_expr(rng, q_terms, names)] + common
    return argv, oracles.render(combine(p, q, modulus), names)


def _term_ideal_case(rng):
    names = rng.choice((("X", "Y"), ("X", "Y", "Z")))
    nvars = len(names)
    rules, gens = [], []
    for _ in range(rng.randint(2, 4)):
        mono = tuple(rng.randint(0, 3) for _ in range(nvars))
        if not any(mono):
            mono = (1,) + mono[1:]
        modulus = rng.randint(1, 12)
        rules.append((mono, modulus))
        gens.append((mono, rng.choice([-1, 1]) * modulus))
    terms = _random_terms(rng, nvars, rng.randint(5, 30), 4)
    p = _as_dict(terms, None)
    argv = [
        "reduce",
        write_expr(rng, terms, names),
        "--ideal",
        _ideal_text(rng, [dict([g]) for g in gens], names),
        "--vars",
        ",".join(names),
    ]
    want = oracles.render(oracles.term_ideal_normal_form(p, rules), names)
    return argv, want, oracles.needs_gcd_rule(p, rules)


def _coprime_basis(rng, modulus, nvars: int):
    """Generators u*(x_i^d_i + lower terms), one per variable: their leading
    monomials are pairwise coprime, so they form a Groebner basis."""
    gens, leads = [], []
    for i in range(nvars):
        d = rng.randint(1, 3)
        lead = tuple(d if j == i else 0 for j in range(nvars))
        tail = {}
        for _ in range(rng.randint(1, 3)):
            mono = tuple(rng.randint(0, d - 1) for _ in range(nvars))
            while sum(mono) >= d:
                mono = tuple(max(0, e - 1) for e in mono)
            tail[mono] = rng.randrange(1, modulus)
        g = oracles.clean({**tail, lead: 1}, modulus)
        unit = rng.randrange(1, modulus)
        gens.append((g, {m: c * unit % modulus for m, c in g.items()}))
        leads.append(lead)
    return gens, leads


def _field_reduce_case(rng):
    ring_text, modulus = rng.choice(FIELDS)
    names = ("X", "Y", "Z")
    gens, leads = _coprime_basis(rng, modulus, 3)
    remainder = {}
    for _ in range(rng.randint(2, 8)):
        mono = tuple(rng.randint(0, lead[i] - 1) for i, lead in enumerate(leads))
        remainder[mono] = rng.randrange(1, modulus)
    p = dict(remainder)
    for _, scaled in gens:
        h = _as_dict(_random_terms(rng, 3, rng.randint(1, 3), 2), modulus)
        p = oracles.poly_add(p, oracles.poly_mul(h, scaled, modulus), modulus)
    argv = [
        "reduce",
        write_expr(rng, list(p.items()), names),
        "--ideal",
        _ideal_text(rng, [s for _, s in gens], names),
        "--ring",
        ring_text,
        "--vars",
        "X,Y,Z",
    ]
    return argv, oracles.render(oracles.clean(remainder, modulus), names)


def _groebner_case(rng, complete: bool):
    ring_text, modulus = rng.choice(FIELDS)
    names = ("X", "Y", "Z")
    common = ["--ring", ring_text, "--vars", "X,Y,Z"]
    if rng.random() < 0.5:
        gens, _ = _coprime_basis(rng, modulus, 3)
        ideal = _ideal_text(rng, [s for _, s in gens], names)
        want = "(" + ", ".join(oracles.render(g, names) for g, _ in gens) + ")"
        if not complete:
            want = "true"
    else:
        # X*Y + a and X*Z + b: the S-polynomial a*Z - b*Y is irreducible, and
        # completion stops after adding Y - (a/b)*Z
        a, b = rng.randrange(1, modulus), rng.randrange(1, modulus)
        u, v = rng.randrange(1, modulus), rng.randrange(1, modulus)
        f = {(1, 1, 0): 1, (0, 0, 0): a}
        g = {(1, 0, 1): 1, (0, 0, 0): b}
        h = oracles.clean({(0, 1, 0): 1, (0, 0, 1): -a * pow(b, -1, modulus)}, modulus)
        scaled = [{m: c * w % modulus for m, c in poly_.items()} for poly_, w in ((f, u), (g, v))]
        ideal = _ideal_text(rng, scaled, names)
        want = "(" + ", ".join(oracles.render(x, names) for x in (f, g, h)) + ")"
        if not complete:
            want = "false"
    argv = ["groebner-check", "--ideal", ideal] + common + (["--complete"] if complete else [])
    return argv, want


# Independent facts about the catalog spaces: cohomology groups as cyclic
# orders per degree (0 = Z), the nonzero cup products of positive-degree
# classes, and the presentations the catalog documents.
SPHERES = tuple(f"S{n}" for n in range(1, 7))
SPACE_GROUPS = {
    **{(f"S{n}", "Z"): {0: (0,), n: (0,)} for n in range(1, 7)},
    ("CP2", "Z"): {0: (0,), 2: (0,), 4: (0,)},
    ("S2vS4", "Z"): {0: (0,), 2: (0,), 4: (0,)},
    ("K2", "Z"): {0: (0,), 1: (0,), 2: (2,)},
    ("RP2vS1", "Z"): {0: (0,), 1: (0,), 2: (2,)},
    ("K2", "Z2"): {0: (2,), 1: (2, 2), 2: (2,)},
    ("RP2vS1", "Z2"): {0: (2,), 1: (2, 2), 2: (2,)},
}
NONZERO_CUPS = {("CP2", "Z"): {(2, 2)}, ("K2", "Z2"): {(1, 1)}, ("RP2vS1", "Z2"): {(1, 1)}}
PRESENTATIONS = {
    **{(f"S{n}", "Z"): f"Z[X]/(X^2)\ndeg X = {n}" for n in range(1, 7)},
    ("CP2", "Z"): "Z[X]/(X^3)\ndeg X = 2",
    ("S2vS4", "Z"): "Z[X,Y]/(X^2, X*Y, Y^2)\ndeg X = 2, deg Y = 4",
    ("K2", "Z"): "Z[X,Y]/(X^2, X*Y, 2*Y, Y^2)\ndeg X = 1, deg Y = 2",
    ("RP2vS1", "Z"): "Z[X,Y]/(X^2, X*Y, 2*Y, Y^2)\ndeg X = 1, deg Y = 2",
    ("K2", "Z2"): "Z2[X,Y]/(X^3, Y^2, X*Y + X^2)\ndeg X = 1, deg Y = 1",
    ("RP2vS1", "Z2"): "Z2[X,Y]/(X^3, Y^2, X*Y)\ndeg X = 1, deg Y = 1",
}
UNSUPPORTED = "error: unsupported coefficient for this space"


def _group_text(orders) -> str:
    return " x ".join("Z" if o == 0 else f"Z{o}" for o in orders) if orders else "0"


def _cup_trivial(space, coeff, n, m) -> bool:
    groups = SPACE_GROUPS[(space, coeff)]
    if n not in groups or m not in groups:
        return True
    if n == 0 or m == 0:
        return False
    return (n, m) not in NONZERO_CUPS.get((space, coeff), set())


def _distinguish_text(s1, s2, coeff) -> str:
    g1, g2 = SPACE_GROUPS[(s1, coeff)], SPACE_GROUPS[(s2, coeff)]
    degs = sorted(set(g1) | set(g2))
    for d in degs:
        if g1.get(d, ()) != g2.get(d, ()):
            return f"distinct (cohomology groups differ in degree {d})"
    for n in degs:
        for m in degs:
            if _cup_trivial(s1, coeff, n, m) != _cup_trivial(s2, coeff, n, m):
                return f"distinct (cup product triviality differs in bidegree ({n}, {m}))"
    if coeff == "Z2" and {s1, s2} == {"K2", "RP2vS1"}:
        return "distinct (no graded ring isomorphism exists)"
    return "indistinguishable by implemented invariants"


def _json_text(command, inputs, result) -> str:
    payload = {"command": command, "inputs": inputs, "result": result, "diagnostics": {}}
    return json.dumps(payload, sort_keys=True)


def _cohomology_case(rng, command: str):
    spaces = SPHERES + ("CP2", "S2vS4", "K2", "RP2vS1")
    coeff = "Z2" if rng.random() < 0.3 else "Z"
    space = rng.choice(("K2", "RP2vS1")) if coeff == "Z2" and rng.random() < 0.8 else rng.choice(spaces)
    supported = (space, coeff) in SPACE_GROUPS
    as_json = rng.random() < 0.3
    if command == "cohomology-ring":
        argv, inputs = [command, space], {"space": space, "coeff": coeff}
        if supported:
            pres = PRESENTATIONS[(space, coeff)]
            head, degs = pres.split("\n")
            ring, rest = head.split("[", 1)
            variables, relations = rest.split("]/(", 1)
            result = {
                "ring": ring,
                "variables": variables.split(","),
                "degrees": [int(part.split(" = ")[1]) for part in degs.split(", ")],
                "relations": relations[:-1].split(", "),
            }
            text = pres
    elif command == "cohomology-group":
        degree = rng.randint(-1, 7)
        argv = [command, space, str(degree)]
        inputs = {"space": space, "coeff": coeff, "degree": degree}
        # every space has the zero group below degree 0, whatever the coefficients
        supported = supported or degree < 0
        if supported:
            result = text = _group_text(SPACE_GROUPS.get((space, coeff), {}).get(degree, ()))
    elif command == "cohomology-cup-trivial":
        n, m = rng.randint(0, 4), rng.randint(0, 4)
        argv = [command, space, str(n), str(m)]
        inputs = {"space": space, "coeff": coeff, "n": n, "m": m}
        if supported:
            result = _cup_trivial(space, coeff, n, m)
            text = "true" if result else "false"
    else:
        other = rng.choice(("K2", "RP2vS1")) if coeff == "Z2" else rng.choice(spaces)
        argv = [command, space, other]
        inputs = {"space1": space, "space2": other, "coeff": coeff}
        supported = supported and (other, coeff) in SPACE_GROUPS
        if supported:
            result = text = _distinguish_text(space, other, coeff)
    argv += ["--coeff", coeff] + (["--json"] if as_json else [])
    if not supported:
        if as_json:
            payload = {"command": command, "inputs": inputs, "result": None,
                       "diagnostics": {"error": UNSUPPORTED[len("error: "):]}}
            return argv, 1, json.dumps(payload, sort_keys=True)
        return argv, 1, UNSUPPORTED
    return argv, 0, _json_text(command, inputs, result) if as_json else text


# argv the CLI must refuse: (argv, exit code). Exit 2 output starts with the
# usage line, exit 1 output with "error: ".
MALFORMED = (
    (["frobnicate"], 2),
    (["mul", "X"], 2),
    (["normalize", "X", "--bogus"], 2),
    (["cohomology-group", "K2", "two"], 2),
    (["reduce", "X"], 2),
    (["normalize", "X +* Y"], 1),
    (["normalize", "X + W"], 1),
    (["normalize", "2X"], 1),
    (["normalize", "(X + Y"], 1),
    (["normalize", "X", "--ring", "Z/1"], 1),
    (["eval", "X*Y", "1"], 1),
    (["eval", "X", "one", "2"], 1),
    (["groebner-check", "--ideal", "(2*X)"], 1),
    (["reduce", "X", "--ideal", "(0)"], 1),
    (["cohomology-ring", "T2"], 1),
)

# operation class -> operations per cycle
CLI_PLAN = {
    "normalize": 35,
    "add": 35,
    "mul": 35,
    "eval": 35,
    "reduce term-ideal": 35,
    "reduce field": 30,
    "groebner-check": 14,
    "groebner-check --complete": 14,
    "cohomology-ring": 18,
    "cohomology-group": 28,
    "cohomology-cup-trivial": 28,
    "cohomology-distinguish": 29,
    "malformed": len(MALFORMED),
}
DEFECT_SAMPLES = 20


def term_ideal_cases(seed: int) -> tuple:
    """(kept, held out): seeded term-ideal reduce cases as (argv, expected).

    A case is held out when it needs the gcd rule, which ROADMAP item 2 says
    the program does not apply yet; known_defects reruns those untimed."""
    rng = random.Random(f"cli-mix-reduce:{seed}")
    kept, held_out = [], []
    while len(kept) < CLI_PLAN["reduce term-ideal"]:
        argv, want, needs_gcd = _term_ideal_case(rng)
        if not needs_gcd:
            kept.append((argv, want))
        elif len(held_out) < DEFECT_SAMPLES:
            held_out.append((argv, want))
    return kept, held_out


def build_cli_mix(seed: int) -> list:
    rng = random.Random(f"cli-mix:{seed}")
    ops = []
    for kind in ("normalize", "add", "mul", "eval"):
        sizes = stratified_pairs(rng, 5, 60, CLI_PLAN[kind])
        for i, (p_size, q_size) in enumerate(sizes):
            ring = CLI_RINGS[i % len(CLI_RINGS)]
            argv, want = _poly_case(rng, kind, ring, p_size, q_size)
            ops.append(_cli_op(kind, argv, 0, want))
    for argv, want in term_ideal_cases(seed)[0]:
        ops.append(_cli_op("reduce term-ideal", argv, 0, want))
    for _ in range(CLI_PLAN["reduce field"]):
        argv, want = _field_reduce_case(rng)
        ops.append(_cli_op("reduce field", argv, 0, want))
    for complete in (False, True):
        kind = "groebner-check --complete" if complete else "groebner-check"
        for _ in range(CLI_PLAN[kind]):
            argv, want = _groebner_case(rng, complete)
            ops.append(_cli_op(kind, argv, 0, want))
    for command in ("cohomology-ring", "cohomology-group", "cohomology-cup-trivial", "cohomology-distinguish"):
        for _ in range(CLI_PLAN[command]):
            argv, code, want = _cohomology_case(rng, command)
            ops.append(_cli_op(command, argv, code, want))
    for argv, code in MALFORMED:
        ops.append(_cli_op("malformed", argv, code, want_prefix="usage:" if code == 2 else "error: "))
    rng.shuffle(ops)
    return ops


def warm_cli_mix(ops: list) -> None:
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            op.run()


# ---------------------------------------------------------------- known defects

DEEP = 3000


def known_defects(seed: int) -> list:
    """Run the inputs ROADMAP item 2 says the program gets wrong, untimed.

    Returns (defect, attempted, failed, first failure) rows. These inputs are
    kept out of the timed mix so that it measures working operations; they are
    rerun on every cli-mix run so that the defects stay visible until fixed.
    """
    reduce_cases = [
        (["reduce", "2*X", "--ideal", "(4*X, 6*X)", "--vars", "X"], "0"),
        (["reduce", " -X", "--ideal", "(4*X, 6*X)", "--vars", "X"], "X"),
    ] + term_ideal_cases(seed)[1]
    rows = []

    def tally(name, cases, judge):
        failed, first = 0, None
        for argv in cases:
            try:
                problem = judge(argv, cli.run_command(argv))
            except Exception as exc:  # the defect may be an escaping exception
                problem = f"{type(exc).__name__} escaped run_command"
            if problem:
                failed += 1
                first = first or problem
        rows.append((name, len(cases), failed, first))

    wants = {tuple(argv): want for argv, want in reduce_cases}
    tally(
        "reduce-gcd-rule",
        [argv for argv, _ in reduce_cases],
        lambda argv, out: None
        if out == (0, wants[tuple(argv)])
        else f"{argv[1].strip()} mod {argv[3]} gave {out[1]!r}, gcd rule gives {wants[tuple(argv)]!r}",
    )
    tally(
        "deep-nesting",
        [["normalize", "(" * DEEP + "X" + ")" * DEEP]],
        lambda argv, out: None if out[0] == 1 else f"exit {out[0]}",
    )
    tally(
        "huge-result",
        [["eval", "X^300000", "3", "--vars", "X"]],
        lambda argv, out: None if out[0] in (0, 1) else f"exit {out[0]}",
    )
    return rows


WORKLOADS = {
    "dense-product": (build_dense_product, warm_dense_product),
    "catalog-verify": (build_catalog_verify, warm_catalog_verify),
    "iso-search": (build_iso_search, warm_iso_search),
    "cli-mix": (build_cli_mix, warm_cli_mix),
}
