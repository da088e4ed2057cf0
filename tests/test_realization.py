"""The bracket table against an independent construction by differential operators.

Modulo its centre C, the twisted Schrodinger-Virasoro algebra acts by
first-order operators on functions of ``(t, r)`` with a central multiplier mu
(M. Henkel, J. Stat. Phys. 75, 1994; C. Roger and J. Unterberger, Ann. Henri
Poincare 7, 2006):

    L[n] = t^(n+1) d/dt + (n+1)/2 t^n r d/dr + n(n+1)/4 mu t^(n-1) r^2
    Y[m] = t^(m+1/2) d/dr + (m+1/2) mu t^(m-1/2) r
    M[k] = mu t^k

An operator is the triple ``(d/dt part, d/dr part, multiplication part)`` of
polynomials ``{(a, b, c): coefficient}`` in ``t^a r^b mu^c``, with ``a`` in
half-integers and every coefficient a Fraction.  The commutator of two such
operators ``X + f`` and ``Y + g`` is ``[X, Y] + X(g) - Y(f)``.  Only the basis
vectors, and the table and automorphism action under test, come from svlie;
the operator algebra does not.
"""

from fractions import Fraction

from svlie.algebra import BasisVector, Element, M, Window, Y, bracket_basis, single
from svlie.autgroup import AutomorphismParams, apply

HALF = Fraction(1, 2)


def _clean(p):
    return {key: cf for key, cf in p.items() if cf}


def _add(p, q, k=1):
    out = dict(p)
    for key, cf in q.items():
        out[key] = out.get(key, 0) + k * cf
    return _clean(out)


def _mul(p, q):
    out = {}
    for (a1, b1, c1), x in p.items():
        for (a2, b2, c2), y in q.items():
            key = (a1 + a2, b1 + b2, c1 + c2)
            out[key] = out.get(key, 0) + x * y
    return _clean(out)


def _along(field, p):
    """The vector field ``field = (ft, fr)`` applied to the polynomial ``p``."""
    dt = {(a - 1, b, c): a * cf for (a, b, c), cf in p.items() if a}
    dr = {(a, b - 1, c): b * cf for (a, b, c), cf in p.items() if b}
    return _add(_mul(field[0], dt), _mul(field[1], dr))


def commutator(x, y):
    return tuple(_add(_along(x[:2], yp), _along(y[:2], xp), -1) for xp, yp in zip(x, y))


def realize(bv: BasisVector):
    n = Fraction(bv.index)
    if bv.kind == "L":
        parts = ({(n + 1, 0, 0): 1}, {(n, 1, 0): (n + 1) / 2}, {(n - 1, 2, 1): n * (n + 1) / 4})
    elif bv.kind == "Y":
        parts = ({}, {(n + HALF, 0, 0): 1}, {(n - HALF, 1, 1): n + HALF})
    else:
        parts = ({}, {}, {(n, 0, 1): 1})
    return tuple(map(_clean, parts))


def realize_element(x: Element):
    """The operator of ``x`` modulo C; every coefficient of the table is real."""
    op = ({}, {}, {})
    for bv, cf in x.terms():
        assert cf.im == 0, (x, bv)
        if bv.kind != "C":
            op = tuple(_add(part, term, cf.re) for part, term in zip(op, realize(bv)))
    return op


def _non_central(radius):
    return [bv for bv in Window(radius).vectors() if bv.kind != "C"]


def _mismatches(table, radius):
    gens = _non_central(radius)
    return [
        (x, y)
        for x in gens
        for y in gens
        if commutator(realize(x), realize(y)) != realize_element(table(x, y))
    ]


def test_commutators_realize_the_bracket_modulo_c():
    assert len(_non_central(6)) ** 2 == 1521
    assert _mismatches(bracket_basis, 6) == []


def _neighbour(x, y):
    """The c = 0 member of the weight family: [L[n], Y[m]] = m Y[n+m] and
    [L[n], M[m]] = (m+n) M[n+m]; every other entry as in the engine's table."""
    if x.kind != "L" and y.kind == "L":
        return -_neighbour(y, x)
    n, m = x.index, y.index
    if x.kind == "L" and y.kind == "Y":
        return Element([(Y(n + m), m)])
    if x.kind == "L" and y.kind == "M":
        return Element([(M(n + m), m + n)])
    return bracket_basis(x, y)


def test_the_neighbouring_table_is_not_realized():
    # the two tables differ exactly where an L[n] with n != 0 meets a Y or an M
    assert len(_non_central(4)) ** 2 == 729
    assert len(_mismatches(_neighbour, 4)) == 288



def _in_scaled_coordinates(op, root, rho):
    """``op`` rewritten in the coordinates t' = lam t, r' = rho r, mu' = (lam / rho^2) mu,
    lam = root^2: t^a r^b mu^c gains lam^-a rho^-b (rho^2 / lam)^c, and d/dt and
    d/dr become lam d/dt' and rho d/dr'."""
    lam = root * root

    def substitute(part, factor):
        return {(a, b, c): factor * cf * root ** int(-2 * a) * rho**-b * (rho * rho / lam) ** c
                for (a, b, c), cf in part.items()}

    dt, dr, multiplier = op
    return substitute(dt, lam), substitute(dr, rho), substitute(multiplier, 1)


def test_degree_and_kind_scale_are_a_change_of_coordinates():
    # degree_scale(u) . kind_scale(w), u = 1/lam and w = rho/sqrt(lam), is the
    # coordinate change t' = lam t, r' = rho r, mu' = (lam / rho^2) mu: an oracle
    # for the engine's scale factors that shares no code with its action
    root, rho = Fraction(2, 3), Fraction(-5, 7)
    params = AutomorphismParams(u=1 / root**2, w=rho / root)
    gens = _non_central(6)
    assert len(gens) == 39
    for bv in gens:
        expected = realize_element(apply(params, single(bv)))
        assert _in_scaled_coordinates(realize(bv), root, rho) == expected, bv
