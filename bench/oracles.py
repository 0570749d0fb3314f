"""Independent oracles that the benchmark checks program outputs against.

Nothing here imports cohomring: every expected value is computed from first
principles, so a bug in the library cannot also hide in its own check.

Polynomials are dicts mapping exponent tuples to int coefficients, with no
zero coefficients kept. Over Z/n ("modulus" n) coefficients live in [0, n).
"""

import math

# ------------------------------------------------------------ dict polynomials


def grlex_key(mono: tuple):
    """Graded lexicographic order with the first variable greatest."""
    return (sum(mono), mono)


def clean(p: dict, modulus: int | None = None) -> dict:
    """Reduce coefficients into [0, modulus) when given, and drop zeros."""
    out = {}
    for mono, c in p.items():
        if modulus is not None:
            c %= modulus
        if c:
            out[mono] = c
    return out


def poly_add(p: dict, q: dict, modulus: int | None = None) -> dict:
    out = dict(p)
    for mono, c in q.items():
        out[mono] = out.get(mono, 0) + c
    return clean(out, modulus)


def poly_mul(p: dict, q: dict, modulus: int | None = None) -> dict:
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            out[mono] = out.get(mono, 0) + c1 * c2
    return clean(out, modulus)


def poly_eval(p: dict, point, modulus: int | None = None) -> int:
    acc = 0
    for mono, c in p.items():
        term = c
        for x, e in zip(point, mono):
            term *= pow(x, e, modulus) if modulus else x**e
        acc += term
    return acc % modulus if modulus else acc


def render(p: dict, names) -> str:
    """The canonical text form: terms ascending in grlex, "+"/"-" separated,
    coefficient 1 and exponent 1 left implicit, "0" for the zero polynomial."""
    if not p:
        return "0"
    pieces = []
    for mono in sorted(p, key=grlex_key):
        c = p[mono]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, mono) if e]
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        if not pieces:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(pieces)


def divides(m: tuple, n: tuple) -> bool:
    return all(a <= b for a, b in zip(m, n))


# ------------------------------------------------------ term-ideal normal forms


def _dividing_moduli(mono: tuple, rules) -> list:
    return [c for m, c in rules if divides(m, mono)]


def term_ideal_normal_form(p: dict, rules) -> dict:
    """Normal form of an integer polynomial modulo single-term generators c*m.

    rules is a list of (monomial, modulus) with modulus >= 1. The ideal holds
    g*t for every term t, where g is the gcd of the moduli of every generator
    whose monomial divides t, so the unique residue of the coefficient of t
    lies in [0, g). Terms with no dividing generator stay as they are.
    """
    out = {}
    for mono, c in p.items():
        moduli = _dividing_moduli(mono, rules)
        if moduli:
            c %= math.gcd(*moduli)
        if c:
            out[mono] = c
    return out


def needs_gcd_rule(p: dict, rules) -> bool:
    """True when some term of p is divided by generators whose moduli have a
    gcd below their minimum, so that reducing by one generator at a time can
    stop short of the normal form (4*X and 6*X leave 2*X unreduced)."""
    for mono in p:
        moduli = _dividing_moduli(mono, rules)
        if moduli and math.gcd(*moduli) < min(moduli):
            return True
    return False


# --------------------------------------------- symmetric bilinear forms over F2


def f2_rank(rows) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] % 2), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % 2:
                rows[r] = [(x + y) % 2 for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def f2_form_class(form) -> tuple:
    """(rank, alternating) of a symmetric bilinear form over F2.

    Two such forms are congruent (B' = P^T B P for an invertible P) exactly
    when both invariants agree; a form is alternating when B(x, x) = 0 for
    every x, that is when its diagonal vanishes.
    """
    return f2_rank(form), all(form[i][i] % 2 == 0 for i in range(len(form)))


def f2_congruent_form(form, p) -> list:
    """P^T B P over F2."""
    k = len(form)
    return [
        [
            sum(p[a][i] * form[a][b] * p[b][j] for a in range(k) for b in range(k)) % 2
            for j in range(k)
        ]
        for i in range(k)
    ]


# --------------------------------------------------------- dense product checks

EVAL_PRIME = (1 << 61) - 1
# Over Z/p a product is checked at a random point of GF(p^k) with p^k >= this
FIELD_SIZE = 1 << 40


def horner(coeffs, r: int, modulus: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * r + c) % modulus
    return acc


def product_identity_holds(a, b, c, r: int, modulus: int) -> bool:
    """c(r) == a(r) * b(r) modulo the given modulus."""
    return horner(c, r, modulus) == horner(a, r, modulus) * horner(b, r, modulus) % modulus


def poly_rem(coeffs, m, p: int) -> list:
    """coeffs (lowest degree first) modulo the monic m over Z/p, as len(m) - 1
    coefficients. With m the minimal polynomial of a point r of GF(p^k), this
    is the value of coeffs at r."""
    k = len(m) - 1
    r = [0] * k
    for c in reversed(coeffs):
        lead = r[-1]  # r*x + c, with x^k replaced by -(m - x^k)
        r = [(c - lead * m[0]) % p] + [(r[j - 1] - lead * m[j]) % p for j in range(1, k)]
    return r


def _mul_mod(a, b, m, p: int) -> list:
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return poly_rem(prod, m, p)


def _gcd_is_one(a, b, p: int) -> bool:
    a, b = list(a), list(b)
    for x in (a, b):
        while x and x[-1] == 0:
            x.pop()
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q, shift = a[-1] * inv % p, len(a) - len(b)
            for j, y in enumerate(b):
                a[shift + j] = (a[shift + j] - q * y) % p
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) == 1


def is_irreducible(m, p: int) -> bool:
    """Ben-Or's test for a monic m of degree k over the prime field Z/p: m is
    irreducible exactly when gcd(x^(p^i) - x, m) = 1 for i = 1 .. k/2."""
    k = len(m) - 1
    x = poly_rem([0, 1], m, p)
    h = x
    for _ in range(k // 2):
        power, base, e = poly_rem([1], m, p), h, p
        while e:
            if e & 1:
                power = _mul_mod(power, base, m, p)
            base = _mul_mod(base, base, m, p)
            e >>= 1
        h = power
        if not _gcd_is_one([(u - v) % p for u, v in zip(h, x)], m, p):
            return False
    return True


def random_irreducible(p: int, k: int, rng) -> list:
    """A uniformly random monic irreducible polynomial of degree k over Z/p."""
    while True:
        m = [rng.randrange(p) for _ in range(k)] + [1]
        if is_irreducible(m, p):
            return m


def check_dense_product(a, b, c, ring_modulus: int | None, rng) -> str | None:
    """None when c is the product of a and b, else a description of the fault.

    Over Z the check is the product identity at two random points modulo a
    61-bit prime. Over Z/p (p prime) it is the product identity at a random
    point r of GF(p^k), p^k >= 2^40, computed as remainders modulo the
    minimal polynomial of r, a random monic irreducible of degree k. A nonzero
    error of degree d vanishes there with probability at most d / p^k, also
    when it vanishes at every point of Z/p, as x^p - x does. Coefficients
    must also lie in [0, p).
    """
    if not a or not b:
        return None if not any(c) else "product of an empty operand is nonzero"
    want_len = len(a) + len(b) - 1
    if len(c) > want_len and any(c[want_len:]):
        return f"nonzero coefficient past degree {want_len - 1}"
    if ring_modulus is None:
        for _ in range(2):
            r = rng.randrange(2, EVAL_PRIME - 1)
            if not product_identity_holds(a, b, c, r, EVAL_PRIME):
                return "product identity fails at a random point mod 2^61-1"
        return None
    p = ring_modulus
    if any(not 0 <= x < p for x in c):
        return f"coefficient outside [0, {p})"
    k = 1
    while p**k < FIELD_SIZE:
        k += 1
    m = random_irreducible(p, k, rng)
    want = _mul_mod(poly_rem(a, m, p), poly_rem(b, m, p), m, p)
    if poly_rem(c, m, p) != want:
        return f"product identity fails at a random point of GF({p}^{k})"
    return None
