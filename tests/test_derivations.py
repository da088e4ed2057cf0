from fractions import Fraction

import pytest

from svlie import algebra, derivations, scalar
from svlie.algebra import C, Element, L, M, Window, Y, bracket, bracket_basis, centralizer_window, single
from svlie.derivations import (
    ClassifiedDerivation,
    DerivationError,
    WindowMap,
    apply_classified,
    classified_window_map,
    classify_degree0,
    decompose,
    equivariant_hom_nullity,
    leibniz_check,
    outer_independence_kernel,
)
from svlie.expr import classified_from_json, classified_to_json, window_map_from_json, window_map_to_json
from svlie.scalar import LinearSystem, ONE, Scalar, ZERO
from svlie.verify import SplitMix64, random_classified, random_degree0, random_element

RULE1 = ClassifiedDerivation(c1=ONE)
RULE2 = ClassifiedDerivation(c2=ONE)
RULE3 = ClassifiedDerivation(c3=ONE)


def test_outer_step_of_the_tail_multiplies_no_m_term(monkeypatch):
    # the automorphism tail passes c3 = 0, so M[n] -> 2*c3 M[n] needs no product
    calls = []
    for name in ("__mul__", "__rmul__"):

        def counted(self, other, original=getattr(Scalar, name), name=name):
            calls.append(name)
            return original(self, other)

        monkeypatch.setattr(Scalar, name, counted)
    x = Element([(M(k), k + 5) for k in range(-3, 4)])
    assert derivations._apply_outer(Scalar(2), Scalar(3), ZERO, x, x) == x
    assert calls == []


def test_apply_classified_examples():
    assert apply_classified(RULE1, single(L(5))) == single(M(5))
    assert apply_classified(RULE3, single(M(2))) == single(M(2), 2)
    assert apply_classified(RULE2, single(L(0))).is_zero()
    inner = ClassifiedDerivation(inner=single(L(1)))
    assert apply_classified(inner, single(L(-1))) == single(L(0), -2)


def test_classified_kills_center():
    rng = SplitMix64(43)
    for _ in range(20):
        deriv = random_classified(rng, 4)
        assert apply_classified(deriv, single(C)).is_zero()


def test_leibniz_outer_rules():
    for radius in range(1, 9):
        for deriv in (RULE1, RULE2, RULE3):
            assert leibniz_check(classified_window_map(deriv, radius)) == []


def test_leibniz_inner_maps():
    assert leibniz_check(classified_window_map(ClassifiedDerivation(inner=single(Y(2))), 6)) == []


def test_leibniz_flags_non_derivation():
    def image(bv):
        return single(Y(1)) if bv == L(1) else Element()

    assert leibniz_check(WindowMap.from_function(3, image)) != []


def test_leibniz_compares_pairs_whose_images_leave_the_window():
    # ad(Y[2]) sends L[3] to a multiple of Y[5], outside the radius-3 window;
    # the pair (L[1], L[2]) brackets to L[3] and must still be compared
    inner = classified_window_map(ClassifiedDerivation(inner=single(Y(2))), 3)
    images = dict(inner.images)
    images[L(3)] = images[L(3)] + single(M(3), 7)
    violations = leibniz_check(WindowMap(inner.window, images))
    assert (L(1), L(2), single(M(3), 7)) in violations


def test_window_map_validation():
    with pytest.raises(ValueError):
        WindowMap(Window(2), {L(0): Element()})
    wmap = classified_window_map(RULE1, 2)
    with pytest.raises(ValueError):
        wmap.image(L(3))


def test_a_window_map_is_unequal_to_a_non_map():
    wmap = classified_window_map(RULE1, 2)
    assert (wmap == 1) is False
    assert wmap != wmap.images


def test_classify_degree0_roundtrip():
    # d = 3, d1 = -1/2, g0 = 2: L[n] -> (3n - 1/2) M[n]
    deriv = ClassifiedDerivation(c1=Fraction(-1, 2), c2=3, c3=2)
    wmap = classified_window_map(deriv, 6)
    assert wmap.image(L(2)) == single(M(2), Fraction(11, 2))
    assert classify_degree0(wmap) == deriv


def test_classify_degree0_zero_map():
    zero = ClassifiedDerivation()
    assert classify_degree0(classified_window_map(zero, 4)) == zero


def test_classify_degree0_roundtrip_randomized():
    rng = SplitMix64(47)
    for _ in range(50):
        deriv = random_degree0(rng)
        assert classify_degree0(classified_window_map(deriv, 4)) == deriv


def test_classified_window_map_without_inner_part_matches_apply_classified():
    rng = SplitMix64(53)
    for _ in range(10):
        deriv = random_degree0(rng)
        wmap = classified_window_map(deriv, 3)
        for bv in wmap.window.vectors():
            assert wmap.image(bv) == apply_classified(deriv, single(bv))


def test_classify_rejects_y_valued_family():
    # maps L[n] -> c1 * n * Y[n] keep degree 0 into S but are not of the
    # classified form once c1 != 0
    def image(bv):
        if bv.kind == "L":
            return single(Y(bv.index), 2 * bv.index)
        return Element()

    with pytest.raises(DerivationError, match="not a derivation of the stated form"):
        classify_degree0(WindowMap.from_function(4, image))


def test_classify_rejects_wrong_degree():
    def image(bv):
        if bv == L(1):
            return single(M(2))
        return Element()

    with pytest.raises(DerivationError, match="not degree-0 into S"):
        classify_degree0(WindowMap.from_function(3, image))


def test_decompose_outer_plus_inner():
    deriv = ClassifiedDerivation(c1=ONE, inner=single(L(2)))
    out = decompose(classified_window_map(deriv, 5))
    assert (out.c1, out.c2, out.c3) == (ONE, ZERO, ZERO)
    assert out.inner == single(L(2))


def test_decompose_purely_inner():
    z = single(Y(1)) + single(M(-2))
    out = decompose(classified_window_map(ClassifiedDerivation(inner=z), 4))
    assert (out.c1, out.c2, out.c3) == (ZERO, ZERO, ZERO)
    for bv in Window(4).vectors():
        assert bracket(out.inner, single(bv)) == bracket(z, single(bv))


def test_decompose_pure_outer():
    deriv = ClassifiedDerivation(c3=Scalar(2))
    out = decompose(classified_window_map(deriv, 4))
    assert (out.c1, out.c2, out.c3) == (ZERO, ZERO, Scalar(2))
    assert out.inner.is_zero()


def test_decompose_center_convention():
    # a central summand in the synthesized inner part acts trivially and is
    # dropped from the recovered representative
    z = single(L(2)) + single(M(0), 5) + single(C, -3)
    out = decompose(classified_window_map(ClassifiedDerivation(inner=z), 4))
    assert out.inner == single(L(2))


def test_decompose_roundtrip_randomized():
    rng = SplitMix64(53)
    for _ in range(50):
        deriv = random_classified(rng, 4)
        wmap = classified_window_map(deriv, 4)
        out = decompose(wmap)
        assert (out.c1, out.c2, out.c3) == (deriv.c1, deriv.c2, deriv.c3)
        for bv in wmap.window.vectors():
            assert apply_classified(out, single(bv)) == wmap.image(bv)


def test_decompose_needs_radius_3():
    with pytest.raises(ValueError, match=r"^decompose needs window radius >= 3$"):
        decompose(classified_window_map(RULE1, 2))


def test_decompose_rejects_junk():
    def image(bv):
        return single(bv)  # the identity map is not a derivation

    with pytest.raises(DerivationError, match="residual not in classified span"):
        decompose(WindowMap.from_function(3, image))


@pytest.mark.parametrize(
    "target, stray, reason",
    [
        (L(-3), single(Y(1)), "not degree-0 into S"),
        (L(2), single(M(2), 5), "not a derivation of the stated form"),
        (Y(-1), single(L(-1), Scalar(Fraction(1, 3))), "not degree-0 into S"),
        (Y(3), single(M(3)), "not a derivation of the stated form"),
        (M(0), single(M(0), -1), "not a derivation of the stated form"),
        (M(2), single(Y(2)), "not a derivation of the stated form"),
        (C, single(M(0)), "not a derivation of the stated form"),
    ],
)
def test_decompose_names_the_generator_with_a_stray_term(target, stray, reason):
    deriv = ClassifiedDerivation(
        ONE, Scalar(2), Scalar(Fraction(-1, 2)), Element([(L(2), 1), (Y(-1), 3), (M(1), -2)])
    )
    wmap = classified_window_map(deriv, 3)
    images = dict(wmap.images)
    images[target] = images[target] + stray
    with pytest.raises(DerivationError) as exc:
        decompose(WindowMap(wmap.window, images))
    assert str(exc.value) == f"residual not in classified span: {reason}: {target}"


def test_outer_independence_radius_3_and_4():
    for radius in (3, 4):
        kernel = outer_independence_kernel(Window(radius))
        assert len(kernel) == 2
        for c1, c2, c3, z in kernel:
            assert (c1, c2, c3) == (ZERO, ZERO, ZERO)
            assert z.support() <= {M(0), C}


@pytest.mark.parametrize("radius", range(1, 5))
def test_outer_independence_basis_is_exact(radius):
    """The basis follows the column order R1, R2, R3, then the window generators."""
    assert outer_independence_kernel(Window(radius)) == [
        (ZERO, ZERO, ZERO, single(M(0))),
        (ZERO, ZERO, ZERO, single(C)),
    ]


def test_hom_nullity_small_windows():
    for radius in (2, 3, 4):
        assert equivariant_hom_nullity(Window(radius)) == 0


@pytest.mark.parametrize("radius", range(9, 13))
def test_hom_nullity_wide_windows(radius):
    assert equivariant_hom_nullity(Window(radius)) == 0


@pytest.mark.parametrize("radius, read", [(8, 312), (16, 1136)])
def test_hom_reads_its_diagonal_tests_first(monkeypatch, radius, read):
    """The m = 0 tests fill every block of nonzero shift, so hom reads only
    the shift-0 block's other tests; radius 16 is the CLI's ceiling."""
    count = 0

    def counting(cols, degrees, tests):
        def counted(d, block):
            nonlocal count
            for test in tests(d, block):
                count += 1
                yield test

        return scalar.graded_system(cols, degrees, counted)

    monkeypatch.setattr(derivations, "graded_system", counting)
    assert equivariant_hom_nullity(Window(radius)) == 0
    assert count == read


def test_hom_nullity_needs_radius_2():
    with pytest.raises(ValueError, match=r"^equivariant_hom_nullity needs window radius >= 2$"):
        equivariant_hom_nullity(Window(1))


@pytest.mark.parametrize(
    "radius, centralizer, outer, hom",
    [
        (2, (14, 16, 14, 14), (17, 19, 19, 17), (30, 30, 33, 30)),
        (3, (20, 22, 20, 20), (23, 25, 25, 23), (56, 56, 61, 56)),
        (4, (26, 28, 26, 26), (29, 31, 31, 29), (90, 90, 97, 90)),
        (8, (50, 52, 50, 50), (53, 55, 55, 53), (306, 306, 321, 306)),
        (16, (98, 100, 98, 98), None, None),
    ],
)
def test_kernel_systems_keep_their_shapes(monkeypatch, radius, centralizer, outer, hom):
    """(rows, cols, stored entries, rank) of each system handed to
    ``nullspace``: its pivot rows, so rows equal the rank.  A kernel of 0 or
    a centralizer basis survives an extra row or entry, so only the shape
    shows one.  A system pinned as None is not built at that radius."""
    shapes = []

    def recording(system):
        kernel = scalar.nullspace(system)
        entries = system.rows + sum(len(tail) for tail in system.pivots.values())
        shapes.append((system.rows, system.cols, entries, system.cols - len(kernel)))
        return kernel

    monkeypatch.setattr(algebra, "nullspace", recording)
    monkeypatch.setattr(derivations, "nullspace", recording)
    expected = []
    for build, shape in [
        (centralizer_window, centralizer),
        (outer_independence_kernel, outer),
        (equivariant_hom_nullity, hom),
    ]:
        if shape is not None:
            build(Window(radius))
            expected.append(shape)
    assert shapes == expected


def _graded_systems(monkeypatch, build, radius):
    """The system ``build`` hands to ``nullspace`` at ``radius``."""
    captured = []

    def recording(system):
        captured.append(system)
        return scalar.nullspace(system)

    monkeypatch.setattr(algebra, "nullspace", recording)
    monkeypatch.setattr(derivations, "nullspace", recording)
    build(Window(radius))
    (system,) = captured
    return system


def _full_system(cols, constraints):
    """``(column count, rows)``: every ``(test, col, terms)`` adds each ``(v, cf)``
    of ``terms`` at row ``(test, v)``; entries that cancel are dropped."""
    index = {col: i for i, col in enumerate(cols)}
    rows = {}
    for test, col, terms in constraints:
        for v, cf in terms:
            row = rows.setdefault((test, v), {})
            total = row.pop(index[col], ZERO) + cf
            if total:
                row[index[col]] = total
    return len(cols), list(rows.values())


def _full_centralizer(radius):
    gens = Window(radius).vectors()
    return _full_system(gens, ((g, bv, bracket_basis(bv, g).terms()) for bv in gens for g in gens))


def _full_outer(radius):
    gens = Window(radius).vectors()
    rules = (RULE1, RULE2, RULE3)
    constraints = [
        *((g, rule, apply_classified(rule, single(g)).terms()) for g in gens for rule in rules),
        *((g, z, (-bracket_basis(z, g)).terms()) for g in gens for z in gens),
    ]
    return _full_system((*rules, *gens), constraints)


def _full_hom(radius):
    span = range(-radius, radius + 1)
    targets = (*(L(k) for k in span), C)
    constraints = []
    for m in span:
        for n in span:
            if abs(m + n) <= radius:
                action = bracket_basis(L(m), Y(n)).coeff(Y(m + n))
                constraints += [((m, n), (Y(n), t), bracket_basis(L(m), t).terms()) for t in targets]
                constraints += [((m, n), (Y(m + n), t), [(t, -action)]) for t in targets]
    return _full_system([(Y(n), t) for n in span for t in targets], constraints)


@pytest.mark.parametrize(
    "build, full, radius",
    [
        *((centralizer_window, _full_centralizer, r) for r in range(1, 9)),
        *((outer_independence_kernel, _full_outer, r) for r in range(1, 9)),
        *((equivariant_hom_nullity, _full_hom, r) for r in range(2, 7)),
    ],
    ids=lambda p: getattr(p, "__name__", p),
)
def test_graded_kernels_match_the_full_systems(monkeypatch, build, full, radius):
    """The graded assembler hands on echelon pivot rows, as many as the full
    system's rank and each in its row space, with the same kernel basis,
    vector by vector."""
    graded, (cols, rows) = _graded_systems(monkeypatch, build, radius), full(radius)
    # the full system's pivots: appending a row keeps its rank iff the row reduces to zero
    pivots = {}
    for row in rows:
        scalar._reduce_row(pivots, row)
    kernel = scalar.nullspace(LinearSystem(cols, pivots))
    rank = cols - len(kernel)
    assert graded.cols == cols and graded.rows == rank == len(pivots)
    for lead, tail in graded.pivots.items():
        assert all(c > lead for c in tail), lead
        scalar._reduce_row(pivots, {lead: ONE, **tail})
        assert len(pivots) == rank, lead
    assert scalar.nullspace(graded) == kernel


@pytest.mark.parametrize("build", [centralizer_window, outer_independence_kernel, equivariant_hom_nullity])
def test_nullspace_does_no_elimination(monkeypatch, build):
    """``nullspace`` only back-substitutes the pivot rows the assembler hands it."""
    system = _graded_systems(monkeypatch, build, 4)
    kernel = scalar.nullspace(system)

    def refuse(pivots, row):
        raise AssertionError("nullspace reduced a row")

    monkeypatch.setattr(scalar, "_reduce_row", refuse)
    assert scalar.nullspace(system) == kernel


@pytest.mark.parametrize(
    "build, pair",
    [
        # [L[-2], L[-1]] lies in degree -3; hom's blocks fill before any test reads it
        (centralizer_window, (L(-2), L(-1))),
        (outer_independence_kernel, (L(-2), L(-1))),
        # [L[0], L[-1]] lies in degree -1; every system reads it at radius 2, hom in an m = 0 test
        (centralizer_window, (L(0), L(-1))),
        (outer_independence_kernel, (L(0), L(-1))),
        (equivariant_hom_nullity, (L(0), L(-1))),
    ],
    ids=lambda p: getattr(p, "__name__", None) or ",".join(map(str, p)),
)
def test_an_ungraded_bracket_entry_is_refused(monkeypatch, build, pair):
    original = algebra.bracket_basis

    def ungraded(a, b):
        return single(M(0)) if (a, b) == pair else original(a, b)

    monkeypatch.setattr(algebra, "bracket_basis", ungraded)
    monkeypatch.setattr(derivations, "bracket_basis", ungraded)
    degree = pair[0].degree + pair[1].degree
    with pytest.raises(ValueError, match=rf"^ungraded entry M\[0\] in test .+: expected degree {degree}$"):
        build(Window(2))


def test_window_map_json_roundtrip():
    wmap = classified_window_map(ClassifiedDerivation(c1=ONE, inner=single(Y(1))), 3)
    data = window_map_to_json(wmap)
    assert data["radius"] == 3
    assert data["images"]["L[0]"] == "-Y[1] + M[0]"
    # Window.vectors() is already in basis order, so the encoder does not sort
    assert list(data["images"]) == [str(bv) for bv in sorted(wmap.images, key=lambda bv: bv.sort_key())]
    assert window_map_from_json(data) == wmap


@pytest.mark.parametrize("inner", [L(1), single(L(1)).terms(), "L[1]", None])
def test_classified_derivation_refuses_an_inner_part_that_is_not_an_element(inner):
    with pytest.raises(TypeError, match="inner must be an Element"):
        ClassifiedDerivation(inner=inner)


def test_classified_json_roundtrip():
    deriv = ClassifiedDerivation(
        Scalar(Fraction(1, 2)), Scalar(0, 1), ONE, single(L(-2), 3) + single(C)
    )
    data = classified_to_json(deriv)
    assert classified_from_json(data) == deriv
    assert data["c2"] == "1i"


def _chain_classified(deriv, x):
    """bracket(inner, x) plus each term's rule image times its coefficient, link by link."""
    rules = {
        "L": lambda n: single(M(n), deriv.c1 + deriv.c2 * n),
        "Y": lambda n: single(Y(n), deriv.c3),
        "M": lambda n: single(M(n), 2 * deriv.c3),
        "C": lambda n: Element(),
    }
    out = bracket(deriv.inner, x)
    for bv, cf in x.terms():
        out = out + rules[bv.kind](bv.index) * cf
    return out


def test_apply_classified_matches_its_operator_chain_and_stays_zero_free():
    rng = SplitMix64(239)
    for _ in range(40):
        deriv, x = random_classified(rng, 4), random_element(rng, 4)
        n = rng.randint(-4, 4)
        # the rules send L[n] and M[n] both onto M[n]; these coefficients cancel there
        cancel = Element([(L(n), 2 * deriv.c3), (M(n), -(deriv.c1 + deriv.c2 * n))])
        for y in (x, cancel, x + cancel, x - x):
            got = apply_classified(deriv, y)
            assert got == _chain_classified(deriv, y)
            assert all(got._terms.values())
    # the inner bracket cancels the outer rule: [-L[0]/3, Y[3]] = -Y[3]
    deriv = ClassifiedDerivation(c3=ONE, inner=single(L(0), Fraction(-1, 3)))
    assert apply_classified(deriv, single(Y(3)))._terms == {}
