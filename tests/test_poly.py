import random
from fractions import Fraction

import pytest
import sympy
from helpers import divmod_by_exact_divide_out, fraction_divmod, inverse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from endospec.errors import (
    ConsistencyError,
    DomainError,
    DualityViolationError,
    EndospecError,
    ShapeError,
    SingularActionError,
    ValidityError,
)
from endospec.exactnum import perfect_sqrt
from endospec.poly import (
    DegreeFacts,
    Poly,
    _real_circle_factor,
    charpoly,
    coeff_strings,
    count_real_roots,
    cross_duality_check,
    duality_partner,
    exact_divide_out,
    exterior_power_charpolys,
    functional_equation_check,
    half_weight_multiplicity,
    poly_from_strings,
    poly_gcd,
    power_sums,
    reciprocal_partner,
    squarefree_part,
    sturm_chain,
)

EXAMPLE_P1 = Poly.from_desc([1, -4, 16, -24, 36])


def test_charpoly_examples():
    assert charpoly([[1, 0], [0, 1]]) == Poly.from_desc([1, -2, 1])
    assert charpoly([[1, -5], [1, 1]]) == Poly.from_desc([1, -2, 6])
    assert charpoly([[2, 0], [0, 3]]) == Poly.from_desc([1, -5, 6])


def test_charpoly_rational_entries():
    M = [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]
    assert charpoly(M) == Poly.from_desc([1, Fraction(-5, 6), Fraction(1, 6)])


def test_charpoly_rejects_nonsquare():
    with pytest.raises(ShapeError):
        charpoly([[1, 2, 3], [4, 5, 6]])


def test_charpoly_matches_from_roots():
    rng = random.Random(3)
    for _ in range(50):
        roots = [rng.randint(-6, 6) for _ in range(rng.randint(1, 5))]
        M = [[roots[i] if i == j else 0 for j in range(len(roots))] for i in range(len(roots))]
        assert charpoly(M) == Poly.from_roots(roots)


def test_functional_equation_example_polynomial():
    res = functional_equation_check(EXAMPLE_P1, 6, 1)
    assert res.holds and res.epsilon == 0


def test_functional_equation_degree_one_even_weight():
    # t - q**j in weight 2j picks up the sign
    for q, j in ((6, 1), (5, 2), (36, 1)):
        res = functional_equation_check(Poly.from_desc([1, -(q**j)]), q, 2 * j)
        assert res.holds and res.epsilon == 1


def test_functional_equation_split_roots():
    res = functional_equation_check(Poly.from_desc([1, -5, 6]), 6, 1)
    assert res.holds and res.epsilon == 0


def test_functional_equation_failure_index():
    res = functional_equation_check(Poly.from_desc([1, -5, 7]), 6, 1)
    assert not res.holds
    assert res.epsilon is None
    assert res.failure_index == 0


def test_functional_equation_preconditions():
    with pytest.raises(ValidityError):
        functional_equation_check(Poly.from_desc([1, -2]), 6, 1)  # odd n, odd i
    with pytest.raises(SingularActionError):
        functional_equation_check(Poly.from_desc([1, -1, 0]), 6, 2)
    with pytest.raises(ValidityError):
        functional_equation_check(Poly.from_desc([2, -1, 6]), 6, 1)  # not monic


def test_duality_partner_examples():
    assert duality_partner(Poly.from_desc([1, -1]), 6, 2) == Poly.from_desc([1, -36])
    P1 = Poly.from_desc([1, -2, 6])
    assert duality_partner(P1, 6, 1) == P1
    pair = Poly.from_roots([2, 18])
    assert duality_partner(pair, 6, 2) == pair
    # with d=1 the image roots 3, 1/3 are not integral, which is an input error
    with pytest.raises(ConsistencyError):
        duality_partner(pair, 6, 1)


def test_duality_partner_rejects_zero_constant():
    with pytest.raises(SingularActionError):
        duality_partner(Poly.from_desc([1, -1, 0]), 6, 1)


def test_duality_partner_is_involution():
    rng = random.Random(9)
    count = 0
    while count < 500:
        q, d = rng.choice(((6, 1), (6, 2), (4, 1), (10, 2)))
        s = q**d
        # build partner-stable inputs: products of (t-u)(t-s/u) and t -+ sqrt(s) pairs
        P = Poly([1])
        for _ in range(rng.randint(1, 3)):
            u = rng.choice([u for u in range(1, s + 1) if s % u == 0])
            P = P * Poly.from_roots([u, s // u])
        partner = duality_partner(P, q, d)
        assert duality_partner(partner, q, d) == P
        count += 1


def test_functional_equation_implies_self_duality_in_weight():
    # when the weight-i equation holds, q**i/root permutes the root multiset
    cases = [
        (EXAMPLE_P1, 6, 1),
        (Poly.from_desc([1, -5, 6]), 6, 1),
        (Poly.from_desc([1, 0, -36]), 6, 2),
        (Poly.from_roots([2, 3, 12, 18]), 6, 2),
    ]
    for P, q, i in cases:
        assert functional_equation_check(P, q, i).holds
        assert duality_partner(P, q, i) == P


def test_reciprocal_partner_monic_and_exact():
    P = Poly.from_roots([2, 3])
    R = reciprocal_partner(P, 6)
    assert R == P
    assert reciprocal_partner(Poly.from_desc([1, -2, 6]), 6) == Poly.from_desc([1, -2, 6])


def test_cross_duality_examples():
    facts = DegreeFacts(0, 6, Poly.from_desc([1, -1]), Poly.from_desc([1, -6]), 1)
    res = cross_duality_check(facts)
    assert res.holds and res.epsilon == 1

    P1 = Poly.from_desc([1, -2, 6])
    res = cross_duality_check(DegreeFacts(1, 6, P1, P1, 1))
    assert res.holds and res.epsilon == 0

    P3 = duality_partner(EXAMPLE_P1, 6, 2)
    res = cross_duality_check(DegreeFacts(1, 6, EXAMPLE_P1, P3, 2))
    assert res.holds and res.epsilon == 0


def test_cross_duality_degree_mismatch():
    facts = DegreeFacts(0, 6, Poly.from_desc([1, -1]), Poly.from_desc([1, 0, -36]), 1)
    with pytest.raises(DualityViolationError):
        cross_duality_check(facts)


def test_cross_duality_without_a_partner_is_refused():
    # facts built without P_(2d-i) or d: a ValidityError, not an AttributeError
    for facts in (DegreeFacts(1, 6, Poly([6, -5, 1])), DegreeFacts(1, 6, EXAMPLE_P1, EXAMPLE_P1)):
        with pytest.raises(ValidityError, match="partner P_"):
            cross_duality_check(facts)


def test_cross_duality_detects_wrong_partner():
    facts = DegreeFacts(0, 6, Poly.from_desc([1, -1]), Poly.from_desc([1, -7]), 1)
    res = cross_duality_check(facts)
    assert not res.holds


@pytest.mark.parametrize(
    "P, i",
    [(Poly.from_desc([2, -1]), 0), (Poly.from_desc([1, -2]), 1)],
    ids=["non-monic", "odd-weight-odd-degree"],
)
def test_a_fact_that_raised_raises_again_when_read(P, i):
    facts = DegreeFacts(i, 4, P, P, 1)

    def error(name):
        with pytest.raises(EndospecError) as info:
            getattr(facts, name)
        return type(info.value)

    for name in ("fe", "dual"):
        assert error(name) is error(name) is ValidityError
    assert facts.fe_holds is False


def test_power_sums_examples():
    assert power_sums(Poly.from_desc([1, -5, 6]), 2) == [5, 13]
    for m in (2, 5):
        P = Poly.from_roots([m, m])
        assert power_sums(P, 4) == [2 * m**n for n in range(1, 5)]
    assert power_sums(Poly.from_desc([1, -2, 6]), 2) == [2, -8]


def test_power_sums_match_matrix_traces():
    from endospec.matrixops import ExactMatrix

    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(1, 6)
        M = ExactMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        P = charpoly(M.rows)
        # past deg P the recurrence keeps only its first n terms
        sums = power_sums(P, 12)
        A = M
        for k in range(1, 13):
            assert sums[k - 1] == A.trace()
            A = A @ M


def test_exterior_power_charpolys_match_matrices():
    from helpers import block_diag
    from test_matrixops import _jordan_block, _random_unimodular

    from endospec.matrixops import ExactMatrix, exterior_power, invariant_factors

    rng = random.Random(34)
    matrices = []
    for _ in range(40):
        n = rng.randint(1, 6)
        matrices.append(
            ExactMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        )
        blocks, left = [], n
        while left:
            size = rng.randint(1, left)
            blocks.append(_jordan_block(rng.choice([-2, 1, 2, 3]), size))
            left -= size
        U = _random_unimodular(rng, n)
        matrices.append(U @ block_diag(blocks) @ inverse(U))
    for M in matrices:
        pieces = exterior_power_charpolys(invariant_factors(M))
        assert pieces[0] == {0: Poly.from_desc([1, -1])}
        for k in range(1, M.nrows + 1):
            P = Poly([1])
            for w, Q in pieces[k].items():
                P = P * Q ** (2 if w else 1)
            assert P == charpoly(exterior_power(M, k).rows)
    with pytest.raises(ValidityError):
        exterior_power_charpolys([Poly([Fraction(1, 2), 1])])
    with pytest.raises(ValidityError):
        exterior_power_charpolys([Poly([3])])
    with pytest.raises(ValidityError):
        exterior_power_charpolys([])


def test_exterior_power_pieces_by_weight():
    # Blocks of sizes 2 at 1 (weights 1, -1) and 1, 1 at 4 (weight 0).
    factors = [Poly.from_roots([4]), Poly.from_roots([1, 1, 4])]
    pieces = exterior_power_charpolys(factors)
    assert pieces[1] == {0: Poly.from_roots([4, 4]), 1: Poly.from_roots([1])}
    assert pieces[2] == {0: Poly.from_roots([1, 16]), 1: Poly.from_roots([4, 4])}
    assert pieces[3] == {0: Poly.from_roots([4, 4]), 1: Poly.from_roots([16])}
    assert pieces[4] == {0: Poly.from_roots([16])}
    # a size-3 block gives weights 2, 0, -2
    assert exterior_power_charpolys([Poly.from_roots([2, 2, 2])])[1] == {
        0: Poly.from_roots([2]),
        2: Poly.from_roots([2]),
    }


def test_sturm_counts_match_sympy():
    t = sympy.symbols("t")
    rng = random.Random(55)
    for _ in range(40):
        roots = [
            Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3)))
            for _ in range(rng.randint(1, 5))
        ]
        P = Poly.from_roots(roots) * Poly.from_desc([1, 0, rng.randint(-3, 3)])
        chain = sturm_chain(P)
        oracle = sympy.Poly(P.coeffs_desc(), t)
        assert count_real_roots(chain) == len(set(oracle.real_roots()))
        lo, hi = sorted(Fraction(rng.randint(-30, 30), 4) for _ in range(2))
        # sympy counts [lo, hi]; Sturm counts (lo, hi] for squarefree P
        sqf = sympy.Poly(sympy.sqf_part(oracle), t)
        lo_s, hi_s = sympy.Rational(lo), sympy.Rational(hi)
        expected = sqf.count_roots(lo_s, hi_s) - (sqf.eval(lo_s) == 0)
        assert count_real_roots(sturm_chain(squarefree_part(P)), lo, hi) == expected


def test_exact_divide_out():
    base = Poly.from_desc([1, 0, -6])
    P = base * base * Poly.from_desc([1, -1])
    quotient, mult = exact_divide_out(P, base)
    assert mult == 2
    assert quotient == Poly.from_desc([1, -1])
    assert base**mult * quotient == P

    _, mult = exact_divide_out(EXAMPLE_P1, base)
    assert mult == 0

    cube = Poly.from_roots([6, 6, 6])
    quotient, mult = exact_divide_out(cube, Poly.from_desc([1, -6]))
    assert mult == 3 and quotient == Poly([1])


EXACT = st.one_of(st.integers(-5, 5), st.fractions(-3, 3, max_denominator=4))


@settings(max_examples=200, deadline=None)
@given(st.lists(EXACT, max_size=4), st.lists(EXACT, min_size=1, max_size=3), st.integers(0, 3))
@example([], [0], 2)  # the zero polynomial
@example([1, 1], [1, 0, 2], 0)  # a factor of higher degree than P
@example([Fraction(1, 2)], [Fraction(-1, 3)], 3)
def test_exact_divide_out_matches_the_divmod_loop(rest, low, m):
    """Division on the coefficient lists gives the quotient, with its int
    and Fraction coefficients, and the multiplicity of the Poly.divmod_by
    loop."""
    factor = Poly(low + [1])
    P = factor**m * Poly(rest)
    got, want = exact_divide_out(P, factor), divmod_by_exact_divide_out(P, factor)
    typed = lambda Q: [(type(c), c) for c in Q.coeffs_asc()]
    assert got[1] == want[1] and typed(got[0]) == typed(want[0])
    assert got[1] >= m or P.is_zero


@settings(max_examples=300, deadline=None)
@given(st.lists(EXACT, max_size=6), st.lists(EXACT, min_size=1, max_size=4))
@example([], [0, 2])  # the zero dividend, a non-monic divisor
@example([1, 2], [0, 0, 3])  # deg P < deg D
@example([Fraction(1, 2), 3, 0, 5], [1, Fraction(2, 3)])
@example([4, 0, 6], [-2])  # a constant divisor
def test_divmod_by_matches_the_fraction_loop(dividend, divisor):
    """Poly.divmod_by on the pseudo-division kernel gives the quotient and
    remainder of its own former loop, coefficient types included."""
    P, D = Poly(dividend), Poly(divisor)
    if D.is_zero:
        with pytest.raises(ZeroDivisionError):
            P.divmod_by(D)
        return
    typed = lambda Q: [(type(c), c) for c in Q.coeffs_asc()]
    assert [typed(Q) for Q in P.divmod_by(D)] == [typed(Q) for Q in fraction_divmod(P, D)]


def test_half_weight_multiplicity_conventions():
    # odd weight, non-square q: the conjugate pair is counted through t**2 - q**i
    facts = DegreeFacts(1, 6, Poly.from_desc([1, 0, -6]) ** 2)
    assert half_weight_multiplicity(facts, 1) == 2
    assert half_weight_multiplicity(facts, -1) == 2
    # square q: the linear factors separate
    facts = DegreeFacts(1, 36, Poly.from_roots([6, 6, -6]))
    assert half_weight_multiplicity(facts, 1) == 2
    assert half_weight_multiplicity(facts, -1) == 1
    assert half_weight_multiplicity(DegreeFacts(1, 6, EXAMPLE_P1), 1) == 0
    with pytest.raises(DomainError):
        half_weight_multiplicity(facts, 0)


def test_poly_serialization_round_trip():
    P = Poly.from_desc([1, -4, Fraction(1, 3), 0, 36])
    assert poly_from_strings(coeff_strings(P)) == P
    assert coeff_strings(Poly.from_desc([1, -2, 6])) == ["1", "-2", "6"]


def test_poly_divmod_and_squarefree():
    P = Poly.from_roots([2, 2, 3])
    q, r = P.divmod_by(Poly.from_roots([2]))
    assert r.is_zero and q == Poly.from_roots([2, 3])
    assert squarefree_part(P) == Poly.from_roots([2, 3])
    assert squarefree_part(Poly.from_roots([5])) == Poly.from_roots([5])


def test_poly_arithmetic_basics():
    P = Poly.from_desc([1, -2, 6])
    assert P(0) == 6 and P(1) == 5
    assert (P - P).is_zero
    assert P.degree == 2 and P.is_monic()
    assert P.reversed_poly() == Poly.from_desc([6, -2, 1])
    assert str(Poly.from_desc([1, -2, 6])) == "t^2 - 2*t + 6"


T = sympy.symbols("t")
_coeffs = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=4))


def _to_sympy(P):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in P.coeffs_desc()]
    return sympy.Poly(coeffs or [0], T, domain="QQ")


@st.composite
def _factors(draw):
    """A nonconstant factor with integer or rational coefficients, monic or
    with a random nonzero leading coefficient."""
    lower = draw(st.lists(_coeffs, min_size=1, max_size=3))
    lead = 1 if draw(st.booleans()) else draw(_coeffs.filter(bool))
    return Poly(lower + [lead])


@st.composite
def _products(draw, factors):
    """A constant times the factors, each to a power 0..3: the empty
    product is a constant."""
    P = Poly([draw(st.sampled_from((1, -3, Fraction(2, 5))))])
    for f in factors:
        P = P * f ** draw(st.integers(0, 3))
    return P


@settings(max_examples=80, deadline=None)
@given(st.lists(_factors(), max_size=4), st.data())
def test_gcd_and_squarefree_part_match_sympy(factors, data):
    P = data.draw(_products(factors))
    Q = Poly([]) if data.draw(st.booleans()) else data.draw(_products(factors))
    assert _to_sympy(poly_gcd(P, Q)) == sympy.gcd(_to_sympy(P), _to_sympy(Q))
    assert _to_sympy(poly_gcd(Q, P)) == sympy.gcd(_to_sympy(P), _to_sympy(Q))
    assert _to_sympy(squarefree_part(P)) == sympy.sqf_part(_to_sympy(P))
    if P.is_monic() and P.is_integer():
        # Gauss's lemma: the gcd of a monic integer polynomial is integral
        assert poly_gcd(P, P.derivative()).is_integer()
        assert squarefree_part(P).is_integer()


def test_gcd_zero_and_constant_cases():
    P = Poly.from_roots([2, 2, Fraction(1, 3)])
    assert poly_gcd(Poly([]), Poly([])).is_zero
    assert poly_gcd(P, Poly([])) == P.monic()
    assert poly_gcd(Poly([]), P.scale(-4)) == P.monic()
    assert poly_gcd(Poly([5]), P) == Poly([1])
    assert poly_gcd(P, Poly([Fraction(-2, 7)])) == Poly([1])
    assert squarefree_part(Poly([Fraction(3, 2)])) == Poly([1])


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((2, 4, 6, 9, 12, 25)),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 3),
    st.lists(EXACT, max_size=5),
)
@example(6, 1, 2, 0, [Fraction(1, 2), 1])  # t**2 - 6 twice, a rational cofactor
@example(4, 1, 2, 1, [3, 0, 1])  # t - 2 twice, t + 2 once, integers
@example(2, 1, 1, 0, [-2, 0, 1])  # (t**2 - 2)**2: the factor itself is the cofactor
# t - 3 and t + 3, a rational cofactor: dividing by t + 3 first would leave
# an int where t - 3 first leaves a Fraction
@example(9, 1, 1, 1, [1, Fraction(3)])
def test_half_weight_divisions_match_the_divmod_loop(q, i, plus, minus, rest):
    """mu+-, read by Horner passes (t - r) or the kernel (t**2 - q**i when
    q**i is not a square), and the circle-free part are the multiplicities
    and quotients of the Poly.divmod_by loop, with the same int and
    Fraction coefficients. The loop divides S by the factors in the order
    circle_free does, +sqrt(q**i) first, as the coefficient types depend on
    the order."""
    factors = {sign: _real_circle_factor(q**i, perfect_sqrt(q**i), sign) for sign in (1, -1)}
    P = factors[1] ** plus * factors[-1] ** minus * Poly(rest + [1])
    facts = DegreeFacts(i, q, P)
    typed = lambda Q: [(type(c), c) for c in Q.coeffs_asc()]
    square = perfect_sqrt(q**i) is not None
    for sign, mu, built in ((1, facts.mu_plus, plus), (-1, facts.mu_minus, minus)):
        got, want = exact_divide_out(P, factors[sign]), divmod_by_exact_divide_out(P, factors[sign])
        assert mu == got[1] == want[1] >= (built if square else plus + minus)
        assert typed(got[0]) == typed(want[0])
    S = squarefree_part(P)
    for f in dict.fromkeys(factors.values()):
        S = divmod_by_exact_divide_out(S, f)[0]
    assert typed(facts.circle_free) == typed(S)
