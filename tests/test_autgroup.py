import importlib.util
import re
from fractions import Fraction
from pathlib import Path

import pytest

from svlie.algebra import BasisVector, C, Element, L, M, Window, Y, bracket, exp_ad, single
from svlie.autgroup import (
    AutomorphismParams,
    FactorizationError,
    action,
    apply,
    automorphism_window_map,
    compose,
    compose_oracle,
    factorize,
    identity,
    invert,
)
from svlie.derivations import WindowMap, is_automorphism_window
from svlie.expr import params_from_json, params_to_json
from svlie.scalar import I, ONE, Scalar, ZERO
from svlie.verify import SplitMix64, random_element, random_params, random_scalar


# A Fraction-only bracket and automorphism action that imports nothing from
# svlie, read as the independent reference for compose, invert and factorize.
_ORACLE_SPEC = importlib.util.spec_from_file_location(
    "svlie_reference_oracle", Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
)
oracle = importlib.util.module_from_spec(_ORACLE_SPEC)
_ORACLE_SPEC.loader.exec_module(oracle)


def sc(num, den=1):
    return Scalar(Fraction(num, den))


def shear(alpha, beta=0, gamma=0):
    return AutomorphismParams(alpha=alpha, beta=beta, gamma=gamma)


def kind_scale(w):
    return AutomorphismParams(w=w)


def degree_scale(u):
    return AutomorphismParams(u=u)


FLIP = AutomorphismParams(i=1)


def test_apply_examples():
    assert apply(shear(1), single(L(2))) == Element([(L(2), 1), (Y(2), 2), (M(2), 4)])
    assert apply(degree_scale(sc(2)), single(L(3))) == single(L(3), 8)
    assert apply(kind_scale(sc(3)), single(M(1))) == single(M(1), 9)
    assert apply(FLIP, apply(FLIP, single(Y(1)))) == single(Y(1))
    assert apply(FLIP, single(L(2))) == single(L(-2), -1)


def _shear_closed_form(alpha, beta, gamma, x):
    """The shear written out term by term from the autgroup module docstring."""
    out = Element()
    for bv, cf in x.terms():
        n = bv.index
        if bv.kind == "L":
            image = Element(
                [(L(n), 1), (Y(n), alpha * n), (M(n), alpha * alpha * n * n + beta * n + gamma)]
            )
        elif bv.kind == "Y":
            image = Element([(Y(n), 1), (M(n), 2 * alpha * n)])
        else:
            image = single(bv)
        out = out + image * cf
    return out


_SHEAR_INPUTS = [single(bv) for bv in Window(3).vectors()] + [
    Element([(L(-2), 3), (Y(1), sc(1, 2)), (M(0), -1), (C, 2)]),
    Element([(L(3), I), (L(-1), 1), (Y(-3), sc(-2, 3)), (Y(0), 5), (M(2), I)]),
]


@pytest.mark.parametrize(
    "alpha, beta, gamma",
    [
        (ZERO, ZERO, ZERO),
        (ZERO, sc(2), sc(-3)),
        (sc(3, 2), ZERO, ZERO),
        (sc(1, 2) + I, sc(2) - I * sc(1, 3), sc(-5, 4) + 2 * I),
    ],
)
def test_shear_matches_its_closed_form_on_every_kind(alpha, beta, gamma):
    for x in _SHEAR_INPUTS:
        assert apply(shear(alpha, beta, gamma), x) == _shear_closed_form(alpha, beta, gamma, x)


def _scalings_closed_form(i, u, w, x):
    """flip^i . degree_scale(u) . kind_scale(w), one docstring rule after another."""
    kind_power = {"L": 0, "Y": 1, "M": 2, "C": 0}
    x = Element([(bv, cf * w ** kind_power[bv.kind]) for bv, cf in x.terms()])
    x = Element([(bv, cf * u**bv.degree) for bv, cf in x.terms()])
    if i:
        x = Element([(BasisVector(bv.kind, -bv.index), -cf) for bv, cf in x.terms()])
    return x


@pytest.mark.parametrize("i", [0, 1])
@pytest.mark.parametrize("u", [ONE, sc(-2, 3) + I])
@pytest.mark.parametrize("w", [ONE, sc(-1), sc(3, 2) - 2 * I])
def test_flip_degree_and_kind_scale_match_their_closed_form(i, u, w):
    for x in _SHEAR_INPUTS:
        assert apply(AutomorphismParams(i=i, u=u, w=w), x) == _scalings_closed_form(i, u, w, x)


def _full_params(rng):
    """Random params with every factor acting: i = 1, u not +-1, w != 1, nonzero alpha, beta, gamma, b, c."""
    while True:
        p = random_params(rng)
        if (p.i and p.u not in (ONE, -ONE) and p.w != ONE and p.alpha and p.beta
                and p.gamma and p.b and p.c):
            return p


# indices repeat across kinds, so one u^n serves several terms, and n and -n both occur
_MIXED = Element([
    (L(-3), 2), (L(0), 1), (L(2), I), (L(3), sc(-1, 2)), (Y(-2), sc(1, 2)), (Y(2), -1),
    (Y(3), 3), (M(-3), sc(2, 3)), (M(2), 1 + I), (M(4), -2), (C, 5),
])


def test_action_is_linear_and_matches_the_five_factors_one_by_one():
    rng = SplitMix64(107)
    for _ in range(6):
        p = _full_params(rng)
        act = action(p)
        images = [act(single(bv, cf)) for bv, cf in _MIXED.terms()]
        assert act(_MIXED) == apply(p, _MIXED) == sum(images, Element())
        x = _shear_closed_form(p.alpha, p.beta, p.gamma, _MIXED)
        x = _scalings_closed_form(p.i, p.u, p.w, x)
        argument = Element([(Y(j), cf) for j, cf in p.b.items()] + [(M(k), cf) for k, cf in p.c.items()])
        assert act(_MIXED) == exp_ad(argument, x)


def test_window_map_is_apply_on_every_generator():
    rng = SplitMix64(109)
    for _ in range(10):
        p = random_params(rng)
        wmap = automorphism_window_map(p, 4)
        for bv in Window(4).vectors():
            assert wmap.image(bv) == apply(p, single(bv))


def test_central_character():
    assert apply(identity(), single(C)) == single(C)
    assert apply(FLIP, single(C)) == single(C, -1)
    rng = SplitMix64(59)
    for _ in range(30):
        p = random_params(rng)
        expected = single(C) if p.i == 0 else single(C, -1)
        assert apply(p, single(C)) == expected


def test_identity_fixes_everything():
    for bv in Window(4).vectors():
        assert apply(identity(), single(bv)) == single(bv)


def test_inner_exp_factor_uses_exp_ad():
    p = AutomorphismParams(b={2: ONE}, c={-1: sc(3)})
    arg = single(Y(2)) + single(M(-1), 3)
    for bv in Window(3).vectors():
        assert apply(p, single(bv)) == exp_ad(arg, single(bv))


def test_compose_spot_checks():
    assert compose(FLIP, degree_scale(sc(2))) == AutomorphismParams(i=1, u=sc(2))
    assert compose(degree_scale(sc(2)), FLIP) == AutomorphismParams(i=1, u=sc(1, 2))
    assert compose(shear(1), shear(1)) == shear(2)
    # [Y[1], Y[-1]] = -2*M[0] is central, so the merge drops it.
    y1, ym1 = AutomorphismParams(b={1: ONE}), AutomorphismParams(b={-1: ONE})
    assert compose(y1, ym1) == AutomorphismParams(b={1: ONE, -1: ONE})
    assert compose(y1, AutomorphismParams(b={2: ONE})) == AutomorphismParams(
        b={1: ONE, 2: ONE}, c={3: sc(1, 2)}
    )
    rng = SplitMix64(61)
    for _ in range(20):
        p = random_params(rng)
        assert compose(p, identity()) == p
        assert compose(identity(), p) == p


def test_compose_matches_generatorwise_oracle():
    rng = SplitMix64(67)
    for _ in range(40):
        p, q = random_params(rng), random_params(rng)
        assert compose(p, q) == compose_oracle(p, q)


def test_compose_action_consistency():
    rng = SplitMix64(71)
    gens = Window(4).vectors()
    for _ in range(25):
        p, q = random_params(rng), random_params(rng)
        r = compose(p, q)
        for bv in gens:
            assert apply(r, single(bv)) == apply(p, apply(q, single(bv)))


def test_invert_spot_checks():
    assert invert(degree_scale(sc(2))) == degree_scale(sc(1, 2))
    assert invert(shear(1, 2, 3)) == shear(-1, -2, -3)
    xi = AutomorphismParams(b={1: ONE, -2: sc(3)}, c={2: sc(5)})
    assert invert(xi) == AutomorphismParams(b={1: -ONE, -2: sc(-3)}, c={2: sc(-5)})
    assert invert(AutomorphismParams(b={1: ONE}, i=1, w=sc(2))) == AutomorphismParams(
        b={-1: sc(1, 2)}, i=1, w=sc(1, 2)
    )


def test_invert_roundtrip_randomized():
    rng = SplitMix64(73)
    for _ in range(40):
        p = random_params(rng)
        assert compose(p, invert(p)) == identity()
        assert compose(invert(p), p) == identity()


def test_associativity_randomized():
    rng = SplitMix64(79)
    for _ in range(25):
        p, q, r = (random_params(rng) for _ in range(3))
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_factorize_spot_checks():
    assert factorize(automorphism_window_map(shear(1, 2, 3), 3)) == shear(1, 2, 3)
    composite = compose(FLIP, degree_scale(sc(2)))
    assert factorize(automorphism_window_map(composite, 3)) == AutomorphismParams(
        i=1, u=sc(2)
    )
    assert factorize(automorphism_window_map(identity(), 3)) == identity()


def test_factorize_apply_identity_randomized():
    rng = SplitMix64(83)
    for _ in range(40):
        p = random_params(rng)
        assert factorize(automorphism_window_map(p, 4)) == p


def test_factorize_shear_product():
    rng = SplitMix64(89)
    for _ in range(20):
        a1, b1, g1, a2, b2, g2 = (
            Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(6)
        )
        p, q = shear(a1, b1, g1), shear(a2, b2, g2)
        wmap = WindowMap.from_function(3, lambda bv: apply(p, apply(q, single(bv))))
        got = factorize(wmap)
        assert got == shear(a1 + a2, b1 + b2, g1 + g2)


def test_factorize_rejects_center_rescale():
    def image(bv):
        return single(C, 2) if bv.kind == "C" else single(bv)

    with pytest.raises(FactorizationError, match="not an automorphism"):
        factorize(WindowMap.from_function(3, image))


def test_factorize_rejects_shift():
    def image(bv):
        if bv.kind == "C":
            return single(C)
        return single(BasisVector(bv.kind, bv.index + 1))

    with pytest.raises(FactorizationError):
        factorize(WindowMap.from_function(3, image))


_INNER = AutomorphismParams(b={-2: ONE, 1: sc(2)}, c={2: ONE}, u=sc(3), w=sc(2), gamma=ONE)


@pytest.mark.parametrize(
    "holder, stray",
    [
        (L(0), single(L(2))),
        (L(1), single(Y(3))),
        (Y(0), single(Y(0), -_INNER.w)),
        (L(0), single(L(0))),
        (L(0), single(Y(0))),
        (Y(1), single(M(1))),
    ],
    ids=["l2-in-l0", "y3-in-l1", "w-zero", "l0-coefficient-not-s", "y0-in-l0", "m1-in-y1"],
)
def test_factorize_names_the_image_that_holds_a_stray_term(holder, stray):
    # b carries -2, so peeling the inner factor spreads a stray L[2] or Y[3] into
    # the M[0] or M[1] coefficient that gamma, c or beta are read from; the next
    # three make w zero, the L[0] coefficient 2, and put Y[0] in the L[0] image;
    # only the sweep reads the Y[1] image, so a stray M[1] there names Y[1]
    wmap = automorphism_window_map(_INNER, 3)
    images = dict(wmap.images)
    images[holder] = images[holder] + stray
    message = f"not an automorphism of canonical shape: {holder}"
    with pytest.raises(FactorizationError, match=f"^{re.escape(message)}$"):
        factorize(WindowMap(wmap.window, images))


def test_factorize_reads_four_images_then_sweeps_each_once(monkeypatch):
    # M[1], Y[0], L[0] and L[1] give the parameters; the sweep starts at L[1]
    # and reads every other generator once, in window order: 4 + 25 at radius 3
    params = _INNER.replace(i=1, alpha=sc(-2), beta=sc(1, 3))
    wmap = automorphism_window_map(params, 3)
    reads = []
    original = WindowMap.image
    monkeypatch.setattr(WindowMap, "image", lambda self, bv: reads.append(bv) or original(self, bv))
    assert factorize(wmap) == params
    rest = [bv for bv in Window(3).vectors() if bv is not L(1)]
    assert reads == [M(1), Y(0), L(0), L(1), L(1), *rest]


def test_factorize_needs_radius_3():
    with pytest.raises(ValueError, match=r"^factorize needs window radius >= 3$"):
        factorize(automorphism_window_map(identity(), 2))


def test_is_automorphism_window():
    assert is_automorphism_window(automorphism_window_map(kind_scale(sc(4)), 4)) == []
    inner = AutomorphismParams(b={2: ONE}, c={-1: sc(3)})
    assert is_automorphism_window(automorphism_window_map(inner, 4)) == []

    def shifted(bv):
        if bv.kind == "C":
            return single(C)
        return single(BasisVector(bv.kind, bv.index + 1))

    bad = is_automorphism_window(WindowMap.from_function(3, shifted))
    assert (L(0), L(1)) in [(x, y) for x, y, _ in bad]


def test_random_automorphisms_preserve_brackets():
    rng = SplitMix64(103)
    for _ in range(8):
        p = random_params(rng)
        assert is_automorphism_window(automorphism_window_map(p, 4)) == []


def test_ideal_preservation():
    rng = SplitMix64(97)
    for _ in range(25):
        p = random_params(rng)
        for bv in Window(4).vectors():
            kinds = {t.kind for t in apply(p, single(bv)).support()}
            if bv.kind in ("Y", "M", "C"):
                assert "L" not in kinds
            if bv.kind in ("M", "C"):
                assert "Y" not in kinds


def test_parameter_faithfulness():
    rng = SplitMix64(101)
    gens = [single(bv) for bv in Window(3).vectors()]
    for _ in range(20):
        p, q = random_params(rng), random_params(rng)
        if p == q:
            continue
        assert any(apply(p, g) != apply(q, g) for g in gens)


def test_position_maps_drop_zero_values():
    p = AutomorphismParams(b={2: ONE, 1: ZERO}, c=[(-1, ZERO), (3, 2)])
    assert dict(p.b) == {2: ONE} and dict(p.c) == {3: sc(2)}
    assert p.b.get(1, ZERO) == ZERO and p.b.get(1) is None
    assert AutomorphismParams(b={1: ZERO}, c={2: ZERO}) == identity()
    with pytest.raises(ValueError):
        AutomorphismParams(b={0: ONE})


def test_position_maps_are_read_only():
    p = AutomorphismParams(b={1: ONE}, c={2: ONE})
    with pytest.raises(TypeError):
        p.b[1] = ONE
    with pytest.raises(TypeError):
        p.c[3] = ONE
    assert dict(p.b) == {1: ONE} and dict(p.c) == {2: ONE}


def test_position_maps_are_in_position_order():
    entries = [(3, ONE), (-2, sc(2)), (1, sc(3)), (-5, sc(4))]
    for given in (entries, entries[::-1], dict(entries), dict(entries[::-1])):
        p = AutomorphismParams(b=given, c=given)
        assert list(p.b) == list(p.c) == [-5, -2, 1, 3]
        assert list(p.b.items()) == sorted(entries)


def test_mapping_and_pairs_give_equal_params():
    entries = [(2, sc(1, 2)), (-1, ONE), (4, ZERO)]
    assert AutomorphismParams(b=dict(entries), c=dict(entries)) == AutomorphismParams(b=entries, c=entries)


def test_replace_checks_the_new_positions():
    p = AutomorphismParams(b={1: ONE}, c={2: ONE}, u=sc(2))
    assert p.replace(b=p.b, c=p.c) == p
    assert p.replace(b={1: ZERO}) == AutomorphismParams(c={2: ONE}, u=sc(2))
    with pytest.raises(ValueError, match="position 0 is forbidden"):
        p.replace(b={0: ONE})
    with pytest.raises(TypeError, match="position must be an int"):
        p.replace(c={"2": ONE})


@pytest.mark.parametrize("field, mapping", [("b", {1.5: 1}), ("b", {True: 1}), ("c", {"3": 1})])
def test_positions_are_exact_ints(field, mapping):
    """A float, a bool or a digit string is refused, not read as int(pos), as a mapping or as pairs."""
    with pytest.raises(TypeError, match="position must be an int"):
        AutomorphismParams(**{field: mapping})
    with pytest.raises(TypeError, match="position must be an int"):
        AutomorphismParams(**{field: list(mapping.items())})


@pytest.mark.parametrize(
    "mapping, error",
    [({1.5: 0, 0: 0}, TypeError), ({True: 0}, TypeError), ({0: 0}, ValueError), ([(0, ZERO)], ValueError),
     ([(1, ONE), (1, sc(5))], ValueError), ([(1, ONE), (1, ZERO)], ValueError),
     ({"3": 0}, TypeError), ([(1.5, ZERO)], TypeError), ([(True, ZERO)], TypeError)],
    ids=["float", "bool", "zero", "zero-pair", "repeated", "repeated-zero",
         "digit-string", "float-pair", "bool-pair"],
)
def test_of_checks_each_position_before_dropping_zero_values(mapping, error):
    """b and c check each position, zero valued or not, before their zero values are dropped."""
    for field in ("b", "c"):
        with pytest.raises(error, match="position"):
            AutomorphismParams(**{field: mapping})


def test_params_validation():
    with pytest.raises(ValueError):
        AutomorphismParams(u=ZERO)
    with pytest.raises(ValueError):
        AutomorphismParams(w=ZERO)
    for parity in (2, True, 1.0):
        with pytest.raises(ValueError):
            AutomorphismParams(i=parity)


def test_params_json_roundtrip():
    p = AutomorphismParams(
        b={1: sc(1, 2), -2: sc(3)},
        c={},
        i=0,
        u=sc(2),
        w=sc(1, 3),
        alpha=ONE,
        beta=ZERO,
        gamma=sc(-2, 5),
    )
    data = params_to_json(p)
    assert data["b"] == {"-2": "3", "1": "1/2"}
    assert data["gamma"] == "-2/5"
    assert params_from_json(data) == p
    q = AutomorphismParams(u=I, w=ONE + I, beta=Scalar(2, -3))
    assert params_from_json(params_to_json(q)) == q


def to_oracle(p):
    def pair(v):
        return (v.re, v.im)

    out = {key: pair(getattr(p, key)) for key in ("u", "w", "alpha", "beta", "gamma")}
    out["i"] = p.i
    out["b"] = {j: pair(v) for j, v in p.b.items()}
    out["c"] = {k: pair(v) for k, v in p.c.items()}
    return out


def from_oracle(x):
    return Element([(BasisVector(*bv), Scalar(*cf)) for bv, cf in x.items()])


def test_group_operations_agree_with_the_independent_oracle():
    rng = SplitMix64(97)
    gens = [{bv: oracle.ONE} for bv in oracle.window(3)]
    for _ in range(30):
        p, q = random_params(rng), random_params(rng)
        op, oq = to_oracle(p), to_oracle(q)
        pq, p_inv = to_oracle(compose(p, q)), to_oracle(invert(p))
        for x in gens:
            assert oracle.apply(pq, x) == oracle.apply(op, oracle.apply(oq, x))
            assert oracle.apply(op, oracle.apply(p_inv, x)) == x
            assert oracle.apply(p_inv, oracle.apply(op, x)) == x
        images = {BasisVector(*bv): from_oracle(oracle.apply(op, x)) for x in gens for bv in x}
        assert factorize(WindowMap(Window(3), images)) == p


# The tail's outer step and compose's merge of two inner exponents each build
# one term dict; they are compared with the operator chains they replaced.


def _zero_free(e):
    return all(e._terms.values())


def test_shear_outer_step_cancels_inside_the_tail():
    # the outer step sends L[n] to L[n] + (gamma + beta*n) M[n], so an input M[n]
    # of the opposite coefficient cancels there, before the Y[0] exponential
    rng = SplitMix64(229)
    for _ in range(20):
        alpha, beta, gamma = (random_scalar(rng) for _ in range(3))
        n = rng.randint(-4, 4)
        x = Element([(L(n), 1), (M(n), -(gamma + beta * n))])
        assert apply(shear(ZERO, beta, gamma), x)._terms == {L(n): ONE}
        image = apply(shear(alpha, beta, gamma), x)
        assert image == _shear_closed_form(alpha, beta, gamma, x)
        assert _zero_free(image)
        p, y = random_params(rng), random_element(rng, 4)
        assert _zero_free(apply(p, y))


def _inner(p):
    return Element([(Y(j), cf) for j, cf in p.b.items()] + [(M(k), cf) for k, cf in p.c.items()])


def _chain_merge(p, q):
    """(b, c) of xi_p + eta + [xi_p, eta]/2 by the operator chain, eta = tail_p(xi_q)."""
    xi_p = _inner(p)
    eta = apply(p.replace(b={}, c={}), _inner(q))
    total = xi_p + eta + bracket(xi_p, eta) * sc(1, 2)
    b = {bv.index: cf for bv, cf in total.terms() if bv.kind == "Y"}
    return b, {bv.index: cf for bv, cf in total.terms() if bv.kind == "M" and bv.index}


def test_compose_merge_matches_its_operator_chain_and_stays_zero_free():
    rng = SplitMix64(233)
    for _ in range(30):
        p, q = random_params(rng), random_params(rng)
        # q_y's inner part is carried by p's tail onto minus the Y part of xi_p,
        # so that part cancels in the merge; invert(p) cancels all of it
        pre = apply(invert(p.replace(b={}, c={})), Element([(Y(j), -cf) for j, cf in p.b.items()]))
        q_y = AutomorphismParams(
            b={bv.index: cf for bv, cf in pre._terms.items() if bv.kind == "Y"},
            c={bv.index: cf for bv, cf in pre._terms.items() if bv.kind == "M" and bv.index},
        )
        for r in (q, q_y, invert(p)):
            merged = compose(p, r)
            assert (dict(merged.b), dict(merged.c)) == _chain_merge(p, r)
            assert all(merged.b.values()) and all(merged.c.values())
        assert not compose(p, q_y).b
