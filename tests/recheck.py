"""A second decider: re-decide rows of an emitted `verify` document with
sympy and plain integers, from the document alone and sharing no code with
endospec.

It decides the functional_equation and cross_duality rows as sympy
polynomial identities, t**n P_i(q**i/t) = +-q**(i n/2) P_i(t) and
t**n P_i(q**d/t) = P_i(0) P_(2d-i)(t), and the weil_weight row. endospec
reads the weight verdict off Kedlaya's trace polynomial
(poly._circle_defect); here it is read off a Cayley transform instead. A root lambda of P_i has |lambda|**2 = q**i
exactly when s = lambda**2 lies on the circle |s| = q**i, which has an
integer radius. s = Q * (1 + I*x) / (1 - I*x) maps the real line onto that
circle less the point -Q, so the roots of P_i are all on the circle
exactly when every distinct root of the squarefree polynomial of the s is
-Q or the image of a real x.

It also decides the parity rows: each degree row's mu_plus and mu_minus,
the multiplicities of t -+ sqrt(q**i), or of t**2 - q**i for both when
q**i is not a square, by repeated sympy division, and from them and the
functional equation the epsilon_congruence and even_multiplicity rows.
"""

from math import isqrt

import sympy

_s, _t, _x = sympy.symbols("s t x")


def _on_circle(S, Q):
    """Distinct roots of the squarefree Poly S (in _s) on |s| = Q."""
    count = 0
    if S.eval(-Q) == 0:
        count, S = 1, S.exquo(sympy.Poly(_s + Q, _s))
    m = S.degree()
    if m < 1:
        return count
    # (1 - I x)**m S(Q (1 + I x) / (1 - I x)): its real roots are the
    # preimages of S's roots on the circle, the common real roots of its
    # real and imaginary parts.
    T = sympy.Poly(
        sum(
            c * Q**k * (1 + sympy.I * _x) ** k * (1 - sympy.I * _x) ** (m - k)
            for (k,), c in S.terms()
        ),
        _x,
    )
    parts = [c.as_real_imag() for c in T.all_coeffs()]
    re = sympy.Poly([a for a, _ in parts], _x)
    im = sympy.Poly([b for _, b in parts], _x)
    G = sympy.gcd(re, im)
    if G.degree() < 1:
        return count
    return count + G.sqf_part().count_roots()


def weight_holds(coeffs, q, i):
    """The weil_weight verdict of the monic P_i with leading-first
    coefficient strings coeffs: every root has |lambda|**2 = q**i, and the
    functional equation's leg, which refuses odd weight in odd degree."""
    P = sympy.Poly([sympy.Rational(c) for c in coeffs], _t)
    n = P.degree()
    if n == 0:
        return True
    if P.eval(0) == 0 or (i % 2 and n % 2):
        return False
    S = sympy.Poly(sympy.resultant(P.as_expr(), _s - _t**2, _t), _s).sqf_part()
    return _on_circle(S, q**i) == S.degree()


def weil_weight_rows(doc):
    """{degree: passes} for every degree row of a verify document that has
    a characteristic polynomial."""
    q = int(doc["model"]["q"])
    return {
        row["degree"]: weight_holds(row["charpoly"], q, row["degree"])
        for row in doc["degrees"]
        if "charpoly" in row
    }


def _reflected_minus(P, s, c, Q):
    """Ascending coefficients of t**n P(s/t) - c Q(t), n = deg P: empty
    exactly when the identity t**n P(s/t) = c Q(t) holds."""
    n = P.degree()
    reflected = sympy.Poly(sympy.expand(_t**n * P.as_expr().subs(_t, s / _t)), _t)
    diff = reflected - c * Q
    return [] if diff.is_zero else diff.all_coeffs()[::-1]


def _sign_row(asc, epsilon):
    """(status, epsilon, failure_index) of an identity whose two sides
    differ by the ascending coefficients asc: the first nonzero index
    fails."""
    if not asc:
        return "pass", epsilon, None
    return "fail", None, next(j for j, c in enumerate(asc) if c)


def _sign_rows(P, q, i, d, partner):
    """The functional_equation and cross_duality rows of degree i, whose
    polynomial P has the rational sign q**(i n/2), and partner P_(2d-i)."""
    half = q ** (i * P.degree() // 2)
    signs = [e for e in (0, 1) if not _reflected_minus(P, q**i, (-1) ** e * half, P)]
    if signs:
        fe = _sign_row([], signs[0])
    else:
        fe = _sign_row(_reflected_minus(P, q**i, P.eval(0), P), None)
    if fe[0] == "fail":  # no sign for cross duality to agree with
        return fe, fe
    return fe, _sign_row(_reflected_minus(P, q**d, P.eval(0), partner), fe[1])


def reciprocity_rows(doc):
    """{(check, degree): (status, epsilon, failure_index)} for the
    functional_equation and cross_duality rows of every degree of a verify
    document. A degree without a characteristic polynomial has no
    cohomology, and both rows are not applicable. Odd weight in odd degree
    has no rational sign q**(i n/2), so both rows fail there without an
    index."""
    q, d = int(doc["model"]["q"]), doc["model"]["dimension"]
    polys = _polys(doc)
    out = {}
    for i in range(2 * d + 1):
        if i not in polys:
            rows = [("not-applicable", None, None)] * 2
        elif i % 2 and polys[i].degree() % 2:
            rows = [("fail", None, None)] * 2
        else:
            rows = _sign_rows(polys[i], q, i, d, polys[2 * d - i])
        out["functional_equation", i], out["cross_duality", i] = rows
    return out


def _polys(doc):
    """{degree: sympy Poly in t} of every degree row with a characteristic
    polynomial."""
    return {
        row["degree"]: sympy.Poly([sympy.Rational(c) for c in row["charpoly"]], _t)
        for row in doc["degrees"]
        if "charpoly" in row
    }


def _multiplicity(P, F):
    """Largest m with F**m dividing P."""
    m = 0
    while True:
        quot, rem = P.div(F)
        if not rem.is_zero:
            return m
        P, m = quot, m + 1


def half_weight_multiplicities(doc):
    """{degree: (mu_plus, mu_minus)} for every degree row of a verify
    document that has a characteristic polynomial: the multiplicities of
    the eigenvalues +-q**(i/2)."""
    q, out = int(doc["model"]["q"]), {}
    for i, P in _polys(doc).items():
        Q = q**i
        r = isqrt(Q)
        if r * r == Q:
            out[i] = tuple(_multiplicity(P, sympy.Poly(_t - s * r, _t)) for s in (1, -1))
        else:
            out[i] = (_multiplicity(P, sympy.Poly(_t**2 - Q, _t)),) * 2
    return out


def parity_rows(doc):
    """{(check, degree): (status, witness)} for the epsilon_congruence and
    even_multiplicity rows of every degree of a verify document. The
    congruence epsilon = betti + mu_minus mod 2, and epsilon = 0 in odd
    degree, is decided when the functional equation passes, with its
    epsilon; even_multiplicity asks both mu to be even in odd degree."""
    d = doc["model"]["dimension"]
    polys, mus, signs = _polys(doc), half_weight_multiplicities(doc), reciprocity_rows(doc)
    out = {}
    for i in range(2 * d + 1):
        if i not in polys:
            na = ("not-applicable", {"reason": "no cohomology in this degree"})
            out["epsilon_congruence", i] = out["even_multiplicity", i] = na
            continue
        (mu_plus, mu_minus), (status, epsilon, _) = mus[i], signs["functional_equation", i]
        if status == "pass":
            betti = polys[i].degree()
            holds = (epsilon - betti - mu_minus) % 2 == 0 and (i % 2 == 0 or epsilon == 0)
            witness = {"epsilon": epsilon, "betti": betti, "mu_minus": mu_minus}
            out["epsilon_congruence", i] = ("pass" if holds else "fail", witness)
        else:
            reason = {"reason": "functional equation did not pass"}
            out["epsilon_congruence", i] = ("not-applicable", reason)
        if i % 2 == 0:
            out["even_multiplicity", i] = ("not-applicable", {"reason": "even degree"})
        else:
            even = mu_plus % 2 == 0 and mu_minus % 2 == 0
            witness = {"mu_plus": mu_plus, "mu_minus": mu_minus}
            out["even_multiplicity", i] = ("pass" if even else "fail", witness)
    return out
