"""Acceptance suite: one test per criterion, all exact (tolerance zero).

Each test prints a single ``ACCEPTANCE <n> <name>: PASS/FAIL`` line (visible
with ``pytest -s tests/test_acceptance.py``).
"""

import json
from fractions import Fraction

from svlie.algebra import (
    C,
    Element,
    L,
    M,
    Window,
    Y,
    bracket,
    centralizer_window,
    format_element,
    jacobi_residual,
    single,
)
from svlie.autgroup import (
    apply,
    automorphism_window_map,
    compose,
    factorize,
    identity,
    invert,
)
from svlie.derivations import (
    ClassifiedDerivation,
    apply_classified,
    classified_window_map,
    classify_degree0,
    decompose,
    equivariant_hom_nullity,
    leibniz_check,
    outer_independence_kernel,
)
from svlie.expr import params_from_json, params_to_json, parse_element
from svlie.scalar import ONE, ZERO, format_scalar, parse_scalar
from svlie.verify import (
    SplitMix64,
    random_classified,
    random_degree0,
    random_element,
    random_params,
    random_scalar,
    run_suite,
)


def _conclude(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_acceptance_1_bracket_spot_checks():
    ok = (
        bracket(single(L(-3)), single(L(3)))
        == Element([(L(0), 6), (C, -2)])
        and bracket(single(L(2)), single(L(-2)))
        == Element([(L(0), -4), (C, Fraction(1, 2))])
        and bracket(single(L(-1)), single(Y(1))) == single(Y(0), Fraction(3, 2))
        and bracket(single(Y(-1)), single(Y(1))) == single(M(0), 2)
        and bracket(single(L(1)), single(L(-1))) == single(L(0), -2)
    )
    _conclude(1, "bracket-spot-checks", ok)


def test_acceptance_2_jacobi_exhaustive_radius_5():
    gens = [single(bv) for bv in Window(5).vectors()]
    ok = True
    count = 0
    for x in gens:
        for y in gens:
            for z in gens:
                count += 1
                if not jacobi_residual(x, y, z).is_zero():
                    ok = False
    assert count == len(gens) ** 3
    _conclude(2, f"jacobi-exhaustive ({count} triples)", ok)


def test_acceptance_3_center():
    expected = [single(M(0)), single(C)]
    ok = all(
        centralizer_window(Window(radius)) == expected for radius in (3, 4, 5, 6)
    )
    _conclude(3, "center-is-M0-and-C", ok)


def test_acceptance_4_derivation_classification_evidence():
    rules = [
        ClassifiedDerivation(c1=ONE),
        ClassifiedDerivation(c2=ONE),
        ClassifiedDerivation(c3=ONE),
    ]
    ok = all(
        leibniz_check(classified_window_map(rule, radius)) == []
        for rule in rules
        for radius in (3, 8)
    )
    kernel = outer_independence_kernel(Window(3))
    ok = ok and all(
        (c1, c2, c3) == (ZERO, ZERO, ZERO) and z.support() <= {M(0), C}
        for c1, c2, c3, z in kernel
    )
    rng = SplitMix64(2024)
    for _ in range(50):
        deriv = random_classified(rng, 4)
        wmap = classified_window_map(deriv, 4)
        back = decompose(wmap)
        ok = ok and all(
            apply_classified(back, single(bv)) == wmap.image(bv)
            for bv in wmap.window.vectors()
        )
    _conclude(4, "outer-derivations-and-decompose", ok)


def test_acceptance_5_degree0_classifier():
    rng = SplitMix64(77)
    ok = True
    for _ in range(50):
        deriv = random_degree0(rng)
        ok = ok and classify_degree0(classified_window_map(deriv, 4)) == deriv
    from svlie.derivations import DerivationError, WindowMap
    from svlie.algebra import Element as El

    for case in range(5):
        c1 = random_scalar(rng, nonzero=True)

        def image(bv, c1=c1):
            if bv.kind == "L":
                return single(Y(bv.index), c1 * bv.index)
            return El()

        try:
            classify_degree0(WindowMap.from_function(4, image))
            ok = False
        except DerivationError:
            pass
    _conclude(5, "degree0-fit-and-rejection", ok)


def test_acceptance_6_equivariant_hom_vanishing():
    ok = all(
        equivariant_hom_nullity(Window(radius)) == 0 for radius in range(2, 9)
    )
    _conclude(6, "hom-vanishing radii 2..8", ok)


def test_acceptance_7_group_law():
    rng = SplitMix64(314159)
    gens = Window(4).vectors()
    ok = True
    for _ in range(100):
        p, q = random_params(rng), random_params(rng)
        r = compose(p, q)
        ok = ok and all(
            apply(r, single(bv)) == apply(p, apply(q, single(bv))) for bv in gens
        )
    for _ in range(50):
        p, q, r = (random_params(rng) for _ in range(3))
        ok = ok and compose(compose(p, q), r) == compose(p, compose(q, r))
    for _ in range(50):
        p = random_params(rng)
        ok = ok and compose(p, invert(p)) == identity()
        ok = ok and compose(invert(p), p) == identity()
    for _ in range(50):
        p = random_params(rng)
        ok = ok and factorize(automorphism_window_map(p, 4)) == p
    _conclude(7, "composition-law-evidence", ok)


def test_acceptance_8_relation_verdict_table():
    report = run_suite("lemma36-verdict", radius=4, seed=0, cases=100)
    ok = report["passed"]
    relations = {r["name"]: r for r in report["relations"]}
    expected_rows = {"w", "i", "u", "gamma", "alpha", "beta", "b", "c", "delta-product"}
    ok = ok and set(relations) == expected_rows
    ok = ok and all(r["verdict"] in ("AGREE", "DISAGREE") for r in relations.values())
    ok = ok and all(
        r["witness"] is not None
        for r in relations.values()
        if r["verdict"] == "DISAGREE"
    )
    _conclude(8, "composition-relation-verdicts", ok)


def test_acceptance_9_central_character_and_ideals():
    rng = SplitMix64(1618)
    gens = Window(4).vectors()
    ok = True
    for _ in range(50):
        p = random_params(rng)
        expected = single(C) if p.i == 0 else single(C, -1)
        ok = ok and apply(p, single(C)) == expected
        for bv in gens:
            kinds = {t.kind for t in apply(p, single(bv)).support()}
            if bv.kind in ("Y", "M", "C"):
                ok = ok and "L" not in kinds
            if bv.kind in ("M", "C"):
                ok = ok and "Y" not in kinds
    _conclude(9, "central-character-and-ideal-preservation", ok)


def test_acceptance_10_codecs():
    rng = SplitMix64(271828)
    ok = True
    for _ in range(250):
        x = random_scalar(rng)
        ok = ok and parse_scalar(format_scalar(x)) == x
    for _ in range(250):
        e = random_element(rng, 6, max_terms=5)
        ok = ok and parse_element(format_element(e)) == e
    for _ in range(100):
        p = random_params(rng)
        payload = json.dumps(params_to_json(p), sort_keys=True)
        ok = ok and params_from_json(json.loads(payload)) == p
    _conclude(10, "codec-roundtrips", ok)
