"""A second decider: re-decide rows of an emitted `verify` document with
sympy and plain integers, from the document alone and sharing no code with
endospec.

So far it decides the weil_weight row. endospec reads that verdict off
Kedlaya's trace polynomial (poly._circle_defect); here it is read off a
Cayley transform instead. A root lambda of P_i has |lambda|**2 = q**i
exactly when s = lambda**2 lies on the circle |s| = q**i, which has an
integer radius. s = Q * (1 + I*x) / (1 - I*x) maps the real line onto that
circle less the point -Q, so the roots of P_i are all on the circle
exactly when every distinct root of the squarefree polynomial of the s is
-Q or the image of a real x.
"""

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
