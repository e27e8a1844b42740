"""Seeded workload generators with expected answers known from construction.

Every operation carries the verdict it must produce, derived from how its
input was built and never from running endospec:

- rotation-block isogenies ([[a, -b], [b, a]] with a^2 + b^2 = q, plus a
  +-sqrt(q) block for odd n) are polarized by construction, so every
  non-advisory check passes; so do Grassmannians and generic models whose
  polynomials are products of Weil factors;
- an isogeny with two real eigenvalues l * m = q, l != m, is not polarized:
  its degree-1 roots lie off the circle and `weil_weight` fails;
- a generic model whose degree-1 constant term is pushed from q to q + 1
  breaks the coefficientwise functional equation: `functional_equation`
  fails;
- descriptors that violate the schema or the model rules exit 2.

Draws are never filtered by outcome. Each pass has the same structure for
every seed (counts per size, kind and shape), so per-pass cost hardly
depends on the seed; each generator says what its seed draws. Every
operation carries its model family in facts["family"], which the known
defects in run.py refer to.
"""

import random
from collections import Counter
from dataclasses import dataclass, field
from math import comb, isqrt

PRIMES = (2, 3, 5)

# q with several representations a^2 + b^2 (b >= 1).
ROTATION_Q = (25, 65, 85, 125, 145)
# Perfect squares with rotation representations, for odd n.
SQUARE_Q = (25, 169)

WORKLOADS = ("abelian_scale", "grassmannian_sweep", "cli_mixed")

# Per-operation time limit in seconds: at least twice the slowest run of an
# operation that ends with a document (on a 2-core 2.1 GHz Xeon VM, up to
# 6.9 s for the E^4 report, 0.4 s for a Grassmannian, 0.11 s for a CLI
# call), so no such operation is cut off and its time is measured, not
# capped. Operations that end without a document do not count in the times.
TIME_LIMITS = {"abelian_scale": 15.0, "grassmannian_sweep": 1.0, "cli_mixed": 5.0}

# Host speed on shared machines swings by a quarter within seconds; so
# operations run several times per pass and each operation is timed by the
# median of its runs.
LIGHT_REPEATS = 3
E4_REPEATS = 2
GRASSMANNIAN_REPEATS = 2


@dataclass
class Op:
    """One closed-loop operation and the answer it must produce.

    kind is "api" (payload: model spec for `full_report`) or "cli"
    (payload: argv tail plus descriptor document). expect is "pass",
    "fail" (with fail_checks naming checks that must fail), "inapplicable"
    (zeta: the functional equation does not apply) or "invalid"."""

    op_id: str
    kind: str
    payload: dict
    expect: str
    fail_checks: tuple = ()
    facts: dict = field(default_factory=dict)


# -- small exact integer helpers (independent of endospec) -----------------


def mat_mul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[at + i][at + j] = x
        at += len(b)
    return out


def unimodular_pair(rng, n, steps, coeffs=(-2, -1, 1, 2)):
    """U and U^-1 as products of elementary row additions."""
    U, V = identity(n), identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(coeffs)
        E, F = identity(n), identity(n)
        E[i][j], F[i][j] = c, -c
        U = mat_mul(E, U)
        V = mat_mul(V, F)
    return U, V


def signed_permutation_pair(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    P = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        P[i][j] = rng.choice((-1, 1))
    Pt = [[P[j][i] for j in range(n)] for i in range(n)]
    return P, Pt


def conjugate(U, B, V):
    return mat_mul(mat_mul(U, B), V)


def rotation_as(q):
    """Every a with a^2 + b^2 = q for some integer b >= 1, ascending."""
    return [
        a for a in range(-isqrt(q), isqrt(q) + 1)
        if q > a * a and isqrt(q - a * a) ** 2 == q - a * a
    ]


def poly_mul(p, r):
    """Product of ascending integer coefficient lists."""
    out = [0] * (len(p) + len(r) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(r):
            out[i + j] += x * y
    return out


def poly_prod(factors):
    out = [1]
    for f in factors:
        out = poly_mul(out, f)
    return out


def desc_strings(asc):
    return [str(c) for c in reversed(asc)]


def box_partition_count(rows, cols, size):
    """Partitions of size with at most rows parts, each at most cols."""

    def count(remaining, cap, parts_left):
        if remaining == 0:
            return 1
        if parts_left == 0:
            return 0
        return sum(
            count(remaining - p, p, parts_left - 1)
            for p in range(min(cap, remaining), 0, -1)
        )

    return count(size, cols, rows)


# -- abelian_scale ----------------------------------------------------------


def rotation_model(rng, n, q, reps, root_sign=1):
    """Block-diagonal rotation isogeny and its degree-1 factors.

    reps gives the a of each [[a, -b], [b, a]] block (b = +-sqrt(q - a^2),
    sign drawn). Returns (B, factors) with P_1 = prod(factors)**2, factors
    ascending."""
    blocks, factors = [], []
    for a in reps:
        b = isqrt(q - a * a) * rng.choice((-1, 1))
        blocks.append([[a, -b], [b, a]])
        factors.append([q, -2 * a, 1])
    if n % 2:
        r = isqrt(q) * root_sign
        blocks.append([[r]])
        factors.append([-r, 1])
    return block_diag(blocks), factors


def _abelian_op(op_id, A, q, factors):
    p1 = poly_prod(factors + factors)
    return Op(
        op_id=op_id,
        kind="api",
        payload={"model": "abelian_en", "A": A, "q": q},
        expect="pass",
        facts={"p1": desc_strings(p1), "n": len(A), "family": "rotation"},
    )


# E^4 members: (q, a of each block), two representations of one q.
E4_SIGNED = (25, (3, 4))
E4_GENERAL = (65, (-1, 4))


def abelian_scale(seed):
    """E^n for n = 2, 3, 4.

    Every pass has each rotation block a (b != 0) of every q in ROTATION_Q
    as an E^2 member, and of every q in SQUARE_Q as an E^3 member with a
    +-sqrt(q) block, each LIGHT_REPEATS times, so the degree-1 polynomials
    are the same for every seed and per-operation times are comparable
    across seeds. One E^4 member is block-diagonal up to a signed
    permutation (E4_REPEATS times); one is conjugated by a general
    unimodular matrix. The seed draws the signs of b, the conjugating
    matrices, the permutation and the order of operations."""
    rng = random.Random(f"abelian_scale:{seed}")
    ops = []
    for n, qs, steps in ((2, ROTATION_Q, 4), (3, SQUARE_Q, 6)):
        for q in qs:
            for idx, a in enumerate(rotation_as(q)):
                B, factors = rotation_model(rng, n, q, reps=(a,), root_sign=(-1) ** idx)
                U, V = unimodular_pair(rng, n, steps)
                ops.append(_abelian_op(f"E{n}-q{q}-a{a}", conjugate(U, B, V), q, factors))
    ops *= LIGHT_REPEATS
    q, reps = E4_SIGNED
    B, factors = rotation_model(rng, 4, q, reps=reps)
    P, Pt = signed_permutation_pair(rng, 4)
    ops += [_abelian_op(f"E4-q{q}", conjugate(P, B, Pt), q, factors)] * E4_REPEATS
    q, reps = E4_GENERAL
    B, factors = rotation_model(rng, 4, q, reps=reps)
    U, V = unimodular_pair(rng, 4, 8)
    ops.append(_abelian_op(f"E4-q{q}-general", conjugate(U, B, V), q, factors))
    rng.shuffle(ops)
    return ops


# -- grassmannian_sweep ------------------------------------------------------


def grassmannian_betti(k, n):
    """b_{2j} = partitions of j in a k x (n - k) box; odd degrees vanish."""
    return [
        box_partition_count(k, n - k, i // 2) if i % 2 == 0 else 0
        for i in range(2 * k * (n - k) + 1)
    ]


def grassmannian_shapes():
    for n in range(2, 10):
        for k in range(1, n):
            yield k, n, "scalar"
            if n == 2 * k:
                yield k, n, "involution"


def grassmannian_sweep(seed):
    """Every G(k, n) with n <= 9, both variants, with q = 4, q = 6 and a
    seeded q of 100 bits, each GRASSMANNIAN_REPEATS times per pass in
    seeded order. Two small q
    per shape put the median operation inside the small-q population
    rather than at its edge."""
    rng = random.Random(f"grassmannian_sweep:{seed}")
    ops = []
    for k, n, variant in grassmannian_shapes():
        betti = grassmannian_betti(k, n)
        for size, q in (("q4", 4), ("q6", 6), ("big", rng.getrandbits(99) | (1 << 99))):
            payload = {"model": "grassmannian", "k": k, "n": n, "q": q, "variant": variant}
            facts = {"betti": betti, "family": "grassmannian"}
            ops.append(Op(f"G({k},{n})-{variant}-{size}", "api", payload, "pass", facts=facts))
    ops *= GRASSMANNIAN_REPEATS
    rng.shuffle(ops)
    return ops


# -- cli_mixed ---------------------------------------------------------------


def _weil_factors(rng, q, count):
    """count factors t^2 - a t + q with a^2 < 4q: roots on |t| = sqrt(q)."""
    bound = isqrt(4 * q - 1)
    return [[q, -rng.randint(-bound, bound), 1] for _ in range(count)]


def _generic_doc(rng, q, pushed):
    """d = 1 generic model: P_0 = t - 1, P_1 Weil of degree 4, P_2 = t - q.
    When pushed, the constant term of one factor becomes q + 1, so that
    root pair leaves the circle and the functional equation breaks."""
    factors = _weil_factors(rng, q, 2)
    if pushed:
        factors[0] = [q + 1, factors[0][1], 1]
    p1 = poly_prod(factors)
    doc = {
        "kind": "generic",
        "q": str(q),
        "d": 1,
        "charpolys": [["1", "-1"], desc_strings(p1), ["1", str(-q)]],
    }
    return doc, [1, 4, 1]


def _strings(M):
    return [[str(x) for x in row] for row in M]


def _abelian_doc(rng, q, a, kind):
    """E^2 rotation isogeny with block a, conjugated; kind "abelian_en"
    sends the isogeny, kind "abelian" its degree-1 action A tensor I2
    (d = 2)."""
    B, _ = rotation_model(rng, 2, q, reps=(a,))
    U, V = unimodular_pair(rng, 2, 3)
    A = conjugate(U, B, V)
    betti = [comb(4, i) for i in range(5)]
    if kind == "abelian_en":
        return {"kind": kind, "q": str(q), "isogeny_matrix": _strings(A)}, betti
    M = [[A[i // 2][j // 2] * int(i % 2 == j % 2) for j in range(4)] for i in range(4)]
    return {"kind": kind, "q": str(q), "d": 2, "matrix": _strings(M)}, betti


# Grassmannian descriptors (k, n, variant, q), taken in turn.
CLI_GRASSMANNIANS = tuple(
    (k, n, variant, q)
    for q in (4, 6, 9)
    for k, n, variant in ((1, 3, "scalar"), (2, 4, "scalar"), (2, 4, "involution"),
                          (2, 5, "scalar"), (1, 4, "scalar"))
)
# Eigenvalue pairs (l, m) of the non-polarized isogenies, taken in turn.
NONPOLARIZED = ((1, 6), (2, 3), (1, 10), (2, 5), (1, 15), (3, 5))
GENERIC_Q = (5, 7, 9, 11)


def _grassmannian_doc(k, n, variant, q):
    doc = {"kind": "grassmannian", "q": str(q), "k": k, "n": n, "variant": variant}
    return doc, grassmannian_betti(k, n)


def _nonpolarized_doc(rng, l, m):
    """E^2 isogeny with integer eigenvalues l, m, l * m = q, l != m: the
    model satisfies Poincare duality but no root has modulus sqrt(q)."""
    q = l * m
    B = [[0, -q], [1, l + m]]
    U, V = unimodular_pair(rng, 2, 3)
    A = conjugate(U, B, V)
    return {"kind": "abelian_en", "q": str(q), "isogeny_matrix": _strings(A)}


INVALID_DOCS = (
    {"kind": "elliptic", "q": "5"},  # unknown kind
    {"kind": "abelian_en", "q": "25", "isogeny_matrix": [["1", "2"], ["2", "4"]]},  # singular
    {"kind": "grassmannian", "q": "4", "k": 2, "n": 5, "variant": "involution"},  # n != 2k
    {"kind": "grassmannian", "q": "1", "k": 1, "n": 3},  # q <= 1
    {"kind": "abelian", "q": "25", "d": 2, "matrix": [["3", "-4"], ["4", "3"]]},  # not 2d x 2d
    {"kind": "generic", "q": "7", "d": 1, "charpolys": [["1", "-1"]]},  # degrees 1, 2 missing
    {"kind": "abelian_en", "q": "x25", "isogeny_matrix": [["3"]]},  # q not a decimal
)


# Groups of 30 CLI operations per pass; more groups average out the cost
# differences between individual seeded descriptors.
CLI_GROUPS = 10


def cli_mixed(seed):
    """Small descriptors of all four kinds through verify, zeta and
    polygons. Each group of 30 operations has 18 on passing models, 9 on
    models that fail a named check, and 3 on invalid descriptors.

    Shapes are taken in turn from fixed lists (rotation blocks (q, a),
    CLI_GRASSMANNIANS, NONPOLARIZED, GENERIC_Q), so every seed has the same
    shapes; the seed draws the signs of b, the conjugating matrices, the
    Weil factors, the polygon degree and prime, the invalid descriptors and
    the order of operations."""
    rng = random.Random(f"cli_mixed:{seed}")
    ops = []
    primes = ",".join(str(p) for p in PRIMES)
    verify = ["verify", "--primes", primes]
    rotations = [(q, a) for q in ROTATION_Q for a in rotation_as(q)]
    turn = Counter()

    def take(name, shapes):
        turn[name] += 1
        return shapes[(turn[name] - 1) % len(shapes)]

    def add(op_id, argv, doc, expect, fail_checks=(), **facts):
        payload = {"argv": argv, "doc": doc}
        ops.append(Op(op_id, "cli", payload, expect, tuple(fail_checks), facts))

    for group in range(CLI_GROUPS):
        g = f"g{group}-"
        for idx in range(6):
            choice = idx % 4
            if choice in (0, 1):
                kind = "abelian_en" if choice == 0 else "abelian"
                doc, betti = _abelian_doc(rng, *take("rotation", rotations), kind)
                family = "rotation"
            elif choice == 2:
                doc, betti = _grassmannian_doc(*take("grassmannian", CLI_GRASSMANNIANS))
                family = "grassmannian"
            else:
                doc, betti = _generic_doc(rng, take("generic", GENERIC_Q), pushed=False)
                family = "generic"
            facts = {"betti": betti, "family": family}
            add(f"{g}verify-pass-{idx}", verify, doc, "pass", **facts)
            add(f"{g}zeta-pass-{idx}", ["zeta"], doc, "pass", **facts)
            degree = rng.choice([i for i, b in enumerate(betti) if b])
            prime = str(rng.choice(PRIMES))
            argv = ["polygons", "--prime", prime, "--degree", str(degree)]
            add(f"{g}polygons-{idx}", argv, doc, "pass", degree=degree, **facts)
        for idx in range(5):
            doc = _nonpolarized_doc(rng, *take("nonpolarized", NONPOLARIZED))
            add(f"{g}verify-nonpolarized-{idx}", verify, doc, "fail", ("weil_weight",),
                family="nonpolarized")
        for idx in range(2):
            doc, _ = _generic_doc(rng, take("pushed", GENERIC_Q), pushed=True)
            add(f"{g}verify-pushed-{idx}", verify, doc, "fail", ("functional_equation",),
                family="pushed")
            add(f"{g}zeta-pushed-{idx}", ["zeta"], doc, "inapplicable", family="pushed")
        for idx, doc in enumerate(rng.sample(INVALID_DOCS, 3)):
            add(f"{g}invalid-{idx}", verify, doc, "invalid", family="invalid")
    rng.shuffle(ops)
    return ops


GENERATORS = {
    "abelian_scale": abelian_scale,
    "grassmannian_sweep": grassmannian_sweep,
    "cli_mixed": cli_mixed,
}


def make_ops(workload, seed):
    return GENERATORS[workload](seed)
