import copy
import pickle
import re
from fractions import Fraction

import pytest

from svlie import algebra, autgroup
from svlie.algebra import (
    BasisVector,
    C,
    Element,
    L,
    M,
    Window,
    Y,
    ZERO_ELEMENT,
    bracket,
    bracket_basis,
    centralizer_window,
    exp_ad,
    jacobi_residual,
    single,
)
from svlie.derivations import apply_classified
from svlie.scalar import I, Scalar
from svlie.verify import SplitMix64, random_classified, random_element, random_params, random_scalar


def el(*pairs):
    return Element(list(pairs))


def test_bracket_spot_checks():
    assert bracket(single(L(-3)), single(L(3))) == el((L(0), 6), (C, -2))
    assert bracket(single(L(2)), single(L(-2))) == el((L(0), -4), (C, Fraction(1, 2)))
    assert bracket(single(Y(-1)), single(Y(1))) == el((M(0), 2))
    assert bracket(single(L(-1)), single(Y(1))) == el((Y(0), Fraction(3, 2)))
    assert bracket(single(L(1)), single(L(-1))) == el((L(0), -2))


def test_bracket_zero_rows_of_table():
    assert bracket(single(Y(2)), single(M(5))).is_zero()
    assert bracket(single(M(1)), single(M(-1))).is_zero()
    assert bracket(single(C), single(L(3))).is_zero()
    assert bracket(single(L(3)), single(C)).is_zero()


def test_bracket_alternating_on_random_elements():
    rng = SplitMix64(17)
    for _ in range(30):
        x = random_element(rng, 5)
        assert bracket(x, x).is_zero()


def test_antisymmetry_window_8():
    gens = Window(8).vectors()
    for a in gens:
        for b in gens:
            assert bracket_basis(a, b) == -bracket_basis(b, a)


def test_grading():
    gens = Window(6).vectors()
    for a in gens:
        for b in gens:
            out = bracket_basis(a, b)
            for bv, _ in out.terms():
                if bv.kind == "C":
                    assert a.degree + b.degree == 0
                else:
                    assert bv.degree == a.degree + b.degree


def test_centrality_window_8():
    for g in Window(8).vectors():
        assert bracket(single(M(0)), single(g)).is_zero()
        assert bracket(single(C), single(g)).is_zero()


def test_degree_examples():
    assert L(-4).degree == -4
    assert C.degree == 0
    assert M(0).degree == 0
    for make in (L, Y, M):
        for n in (*range(-300, 301), 10**6, -(10**12), 2**70):
            assert make(n).degree == n


def test_basis_vector_validation():
    with pytest.raises(ValueError):
        BasisVector("C", 2)
    with pytest.raises(ValueError):
        BasisVector("X", 1)


def test_basis_vectors_are_interned():
    bv = L(3)
    assert BasisVector("L", 3) is bv
    assert repr(bv) == "BasisVector(kind='L', index=3)"
    assert BasisVector("C") is C
    for bv in (L(3), Y(-7), M(0), C):
        for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            assert clone(bv) is bv
        assert "degree" not in repr(bv)


def test_basis_vector_is_immutable():
    bv = Y(-2)
    with pytest.raises(AttributeError):
        bv.index = 5
    with pytest.raises(AttributeError):
        del bv.kind
    with pytest.raises(AttributeError, match=r"^cannot assign to field 'degree' of immutable BasisVector$"):
        bv.degree = 5
    with pytest.raises(AttributeError, match=r"^cannot delete field 'degree' of immutable BasisVector$"):
        del bv.degree
    assert Y(-2).index == Y(-2).degree == -2 and str(Y(-2)) == "Y[-2]"


@pytest.mark.parametrize(
    "index, build_first",
    [(True, True), (1.0, True), (Fraction(1), True), (7654321.0, False), (Fraction(7654322), False)],
)
def test_basis_vector_rejects_non_int_index(index, build_first):
    # an equal non-int index must not be coerced by a hit on the int's entry,
    # nor seed that entry on a miss (7654321 and 7654322 are built nowhere else)
    n = int(index)
    if build_first:
        L(n)
    with pytest.raises(TypeError):
        BasisVector("L", index)
    assert str(L(n)) == f"L[{n}]"


def test_jacobi_examples():
    cases = [
        (L(1), L(-1), L(0)),
        (L(2), Y(-1), Y(3)),
        (L(5), L(-5), Y(0)),
    ]
    for x, y, z in cases:
        assert jacobi_residual(single(x), single(y), single(z)).is_zero()


def test_jacobi_random_elements():
    rng = SplitMix64(23)
    for _ in range(25):
        x, y, z = (random_element(rng, 4) for _ in range(3))
        assert jacobi_residual(x, y, z).is_zero()


def _series_exp_ad(x, target):
    # independent oracle: keep bracketing until the iterated term dies
    total = target
    term = target
    k = 0
    factor = Fraction(1)
    while True:
        term = bracket(x, term)
        k += 1
        factor /= k
        if term.is_zero():
            return total
        total = total + Scalar(factor) * term
        assert k < 10, "series failed to terminate"


def test_exp_ad_examples():
    # exp(ad t*M[k]) moves L[n] by -t*k*M[n+k]; series stops at first order
    t = Scalar(Fraction(2, 3))
    got = exp_ad(single(M(3), t), single(L(4)))
    assert got == el((L(4), 1), (M(7), -3 * t))
    assert got == _series_exp_ad(single(M(3), t), single(L(4)))
    assert exp_ad(single(Y(1)), single(Y(0))) == el((Y(0), 1), (M(1), -1))
    assert exp_ad(single(Y(2), 5), single(C)) == single(C)


def test_exp_ad_matches_series_oracle():
    rng = SplitMix64(29)
    for _ in range(25):
        terms = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice("YM")
            terms.append((BasisVector(kind, rng.randint(-4, 4)), random_scalar(rng)))
        x = Element(terms)
        target = random_element(rng, 4)
        assert exp_ad(x, target) == _series_exp_ad(x, target)


def test_exp_ad_rejects_non_nilpotent_argument():
    with pytest.raises(ValueError, match="ad not nilpotent"):
        exp_ad(single(L(1)), single(Y(0)))
    with pytest.raises(ValueError, match="ad not nilpotent"):
        exp_ad(single(C), single(Y(0)))


def test_ad_cubed_vanishes_on_inner_radical():
    rng = SplitMix64(31)
    gens = [single(bv) for bv in Window(4).vectors()]
    samples = [single(Y(j)) for j in range(-4, 5)]
    samples += [single(M(j)) for j in range(-4, 5)]
    for _ in range(10):
        terms = [
            (BasisVector(rng.choice("YM"), rng.randint(-4, 4)), random_scalar(rng))
            for _ in range(2)
        ]
        samples.append(Element(terms))
    for x in samples:
        for g in gens:
            assert bracket(x, bracket(x, bracket(x, g))).is_zero()


def test_exp_ad_is_a_homomorphism():
    rng = SplitMix64(37)
    gens = Window(4).vectors()
    for _ in range(3):
        terms = [
            (BasisVector(rng.choice("YM"), rng.randint(-3, 3)), random_scalar(rng))
            for _ in range(2)
        ]
        x = Element(terms)
        images = {g: exp_ad(x, single(g)) for g in gens}
        for a in gens:
            for b in gens:
                lhs = exp_ad(x, bracket(single(a), single(b)))
                assert lhs == bracket(images[a], images[b])


def test_the_bracket_table_is_graded():
    # the exact kernel systems are solved one degree at a time, which needs this
    gens = Window(8).vectors()
    for a in gens:
        for b in gens:
            for v in bracket_basis(a, b).support():
                assert v.degree == a.degree + b.degree, (a, b, v)


def test_centralizer_windows():
    expected = [single(M(0)), single(C)]
    for radius in (3, 6):
        assert centralizer_window(Window(radius)) == expected


def test_centralizer_tiny_window():
    # no superset artifact shows up even at radius 1; recorded, not asserted
    # for larger radii than the solver actually produces
    assert centralizer_window(Window(1)) == [single(M(0)), single(C)]


def test_bracket_basis_cache_stays_within_its_bound():
    # 260 * 260 distinct basis pairs, more than the 65,536 the cache keeps
    x = Element([(L(k), 1) for k in range(260)])
    y = Element([(L(k), 1) for k in range(-260, 0)])
    bracket(x, y)
    assert bracket_basis.cache_info().maxsize == 256**2
    assert bracket_basis.cache_info().currsize <= 65536


@pytest.mark.parametrize("radius", [1, 2, 5])
def test_window_vectors_are_one_ordered_tuple_per_radius(radius):
    span = range(-radius, radius + 1)
    expected = (*(L(n) for n in span), *(Y(n) for n in span), *(M(n) for n in span), C)
    got = Window(radius).vectors()
    assert got == expected
    assert Window(radius).vectors() is got
    assert algebra._window_vectors.cache_info().maxsize is not None


def test_single_shares_one_unit_element_per_basis_vector():
    for bv in (L(3), Y(-2), M(0), C):
        unit = single(bv)
        assert single(bv) is unit
        assert unit._terms == {bv: Scalar(1)}
        twice = single(bv, 2)
        assert twice is not single(bv, 2)
        assert twice._terms == {bv: Scalar(2)}
        assert single(bv, 1) == unit
        assert single(bv, 0) is ZERO_ELEMENT


def test_window_validation():
    with pytest.raises(ValueError):
        Window(0)
    w = Window(2)
    assert len(w.vectors()) == 3 * 5 + 1
    assert w.contains(el((L(2), 1), (C, 1)))
    assert not w.contains(single(Y(3)))


def test_element_equality_and_zero_dropping():
    assert el((L(1), 1), (L(1), -1)).is_zero()
    assert el((L(1), 0)) == ZERO_ELEMENT
    assert el((L(1), 2), (C, 1)) == el((C, 1), (L(1), 2))
    assert single(L(1)) != single(Y(1))


@pytest.mark.parametrize("other", [1, I, "x"], ids=["int", "scalar", "str"])
def test_element_arithmetic_with_a_non_element_raises_and_equality_is_false(other):
    x = single(L(0))
    with pytest.raises(TypeError):
        x + other
    with pytest.raises(TypeError):
        x - other
    assert (x == other) is False


def test_element_refuses_a_key_that_is_not_a_basis_vector():
    for terms in ([("L", 1)], [("L", 0)], {("L", 1): 2}, [(L(1), 1), (1, 1)]):
        with pytest.raises(TypeError, match="keyed by BasisVector"):
            Element(terms)
    with pytest.raises(TypeError, match="'L'"):
        Element([("L", 1)])


@pytest.mark.parametrize("coeff", [(), (2,), (0,)], ids=["unit", "two", "zero"])
@pytest.mark.parametrize("key", ["L[1]", 3, None], ids=["str", "int", "none"])
def test_single_refuses_a_key_that_is_not_a_basis_vector(key, coeff):
    units = dict(algebra._UNITS)
    with pytest.raises(TypeError, match=re.escape(f"keyed by BasisVector, not {key!r}")):
        single(key, *coeff)
    assert algebra._UNITS == units


# The fused composites below build one term dict; each is compared with the
# operator chain it replaced, on seeded inputs and on inputs built to cancel.


def _zero_free(e):
    return all(e._terms.values())


def _radical_element(rng, count):
    return Element(
        [(BasisVector(rng.choice("YM"), rng.randint(-4, 4)), random_scalar(rng)) for _ in range(count)]
    )


def _chain_exp_ad(x, t):
    first = bracket(x, t)
    return t + first + bracket(x, first) * Scalar(Fraction(1, 2))


def test_sub_matches_adding_the_negation_and_stays_zero_free():
    rng = SplitMix64(211)
    for _ in range(40):
        x, y = random_element(rng, 4), random_element(rng, 4)
        z = x * random_scalar(rng) + y  # shares terms with y, so y - z cancels them
        for a, b in ((x, y), (y, z), (x, x), (x + y, y)):
            diff = a - b
            assert diff == a + (-b)
            assert _zero_free(diff)
        assert (x - x).is_zero() and (x - x)._terms == {}


def test_exp_ad_matches_its_operator_chain_and_stays_zero_free():
    rng = SplitMix64(223)
    for _ in range(40):
        x, t0 = _radical_element(rng, rng.randint(1, 3)), random_element(rng, 4)
        # [x, [x, t0]] lies in the M span, which commutes with x, so t has the
        # first and second order of t0, and its added M terms cancel the second
        t = t0 - bracket(x, bracket(x, t0)) * Scalar(Fraction(1, 2))
        for target in (t0, t, t0 + x, t0 - x):
            got = exp_ad(x, target)
            assert got == _chain_exp_ad(x, target)
            assert _zero_free(got)
        assert exp_ad(x, t) == t0 + bracket(x, t0)
        assert exp_ad(x + (-x), t0) == t0
    # [Y[1], L[4]] = Y[5] and [Y[1], Y[5]] = 4 M[6]: the second order cancels
    # the target's M[6], and the first order the target's Y[5]
    y1 = single(Y(1))
    assert exp_ad(y1, el((L(4), 1), (M(6), -2)))._terms == {L(4): Scalar(1), Y(5): Scalar(1)}
    assert exp_ad(y1, el((L(4), 1), (Y(5), -1)))._terms == {L(4): Scalar(1), M(6): Scalar(-2)}


def _unfused_bracket(x, y):
    """``[x, y]`` as the operator chain ``sum (ca*cb) * bracket_basis(a, b)``."""
    out = ZERO_ELEMENT
    for a, ca in x._terms.items():
        for b, cb in y._terms.items():
            out = out + bracket_basis(a, b) * (ca * cb)
    return out


def _unfused_exp_ad(x, t):
    first = _unfused_bracket(x, t)
    return t + first + _unfused_bracket(x, first) * Scalar(Fraction(1, 2))


def test_fused_bracket_and_exp_ad_match_the_unfused_chain_and_stay_zero_free():
    rng = SplitMix64(229)
    # [L[1], L[3]] = 2 L[4] and [L[3], L[1]] = -2 L[4]: one accumulated term cancels
    cancelling = el((L(1), 1), (L(3), 1)), el((L(3), 1), (L(1), 1))
    for _ in range(40):
        x, y = random_element(rng, 4), random_element(rng, 4)
        s = random_scalar(rng, nonzero=True)
        # [x, s*x] = 0: each pair of basis brackets cancels inside one accumulation
        assert bracket(x, x * s)._terms == {}
        for args in ((x, y), (x, x * s), (x + y, y - x * s), (x * I, y * s), cancelling):
            got = bracket(*args)
            assert got == _unfused_bracket(*args)
            assert _zero_free(got)
        r = _radical_element(rng, rng.randint(1, 3))
        # the M terms added to y cancel the second order of exp(ad r) in the fused sum
        t = y - _unfused_bracket(r, _unfused_bracket(r, y)) * Scalar(Fraction(1, 2))
        for target in (y, t, y + r, r * s, y * I):
            got = exp_ad(r, target)
            assert got == _unfused_exp_ad(r, target)
            assert _zero_free(got)
        assert exp_ad(r, t) == y + _unfused_bracket(r, y)


def _chain_jacobi(x, y, z):
    return bracket(bracket(x, y), z) + bracket(bracket(y, z), x) + bracket(bracket(z, x), y)


@pytest.mark.parametrize("corrupt", [False, True])
def test_jacobi_residual_matches_its_operator_chain_and_stays_zero_free(monkeypatch, corrupt):
    if corrupt:
        # a table that is no Lie bracket, so the residual has terms to keep and to cancel
        table = bracket_basis

        def corrupted(a, b):
            return single(M(a.index + b.index), 3) if (a.kind, b.kind) == ("Y", "L") else table(a, b)

        monkeypatch.setattr(algebra, "bracket_basis", corrupted)
    rng = SplitMix64(227)
    # [x, y] = 0, while its basis brackets [L[1], L[3]] = 2 L[4] and
    # [L[3], L[1]] = -2 L[4] are not: the expansion brackets L[4] with z twice
    cancelling = el((L(1), 1), (L(3), 1)), el((L(3), 1), (L(1), 1))
    nonzero = 0
    for _ in range(40):
        x, y, z = (random_element(rng, 3) for _ in range(3))
        for args in ((x, y, z), (x, -x, z), (x, y, x + y), (*cancelling, z), (z, *cancelling)):
            got = jacobi_residual(*args)
            assert got == _chain_jacobi(*args)
            assert _zero_free(got)
            nonzero += not got.is_zero()
    assert (nonzero > 0) == corrupt


def _budget_input(n):
    x = Element([(Y(1000 * j + 1), 1) for j in range(n)])
    t = Element([(L(k), 1) for k in range(n)])
    return x, t


@pytest.mark.parametrize("n, accepted", [(16, True), (128, False)])
def test_exp_ad_refuses_a_second_bracket_over_the_work_budget(monkeypatch, n, accepted):
    x, t = _budget_input(n)
    first = bracket(x, t)  # also fills the cache, so each counted call is a hit
    second_calls = len(x._terms) * len(first._terms)
    if accepted:
        expected = _chain_exp_ad(x, t)
    calls = 0
    table = bracket_basis

    def counted(a, b):
        nonlocal calls
        calls += 1
        return table(a, b)

    monkeypatch.setattr(algebra, "bracket_basis", counted)
    if accepted:
        assert exp_ad(x, t) == expected
        assert calls == n * n + second_calls
        assert second_calls <= 256**2
    else:
        with pytest.raises(ValueError, match=f"needs {second_calls} basis brackets, over the limit of 65536"):
            exp_ad(x, t)
        assert calls == n * n


def test_exp_ad_refuses_a_first_bracket_over_the_work_budget(monkeypatch):
    # [M, M] = 0, so the first bracket would vanish, but 257 * 256 basis
    # brackets are over the budget and none of them runs
    x = Element([(M(j), 1) for j in range(257)])
    t = Element([(M(k), 1) for k in range(256)])
    calls = 0
    table = bracket_basis

    def counted(a, b):
        nonlocal calls
        calls += 1
        return table(a, b)

    monkeypatch.setattr(algebra, "bracket_basis", counted)
    with pytest.raises(ValueError, match=r"exp_ad too large: \[x, t\] needs 65792 basis brackets, over the limit of 65536"):
        exp_ad(x, t)
    assert calls == 0
    # at the budget itself the first bracket runs
    assert exp_ad(Element([(M(j), 1) for j in range(256)]), t) == t
    assert calls == 256 * 256


def _writers(rng):
    """Each public operation that takes elements, with the elements it reads."""
    gens = Window(3).vectors()
    unit = single(rng.choice(gens))
    x, y = random_element(rng, 3), random_element(rng, 3) + unit
    radical = single(rng.choice((Y(1), M(-2), Y(0)))) + _radical_element(rng, rng.randint(0, 2))
    s = random_scalar(rng, nonzero=True)
    p, q = random_params(rng), random_params(rng)
    deriv = random_classified(rng, 3)
    return [
        ("bracket", lambda: bracket(unit, x), (unit, x)),
        ("bracket", lambda: bracket(y, unit), (y, unit)),
        ("exp_ad", lambda: exp_ad(radical, unit), (radical, unit)),
        ("exp_ad", lambda: exp_ad(single(Y(1)), y), (y,)),
        ("jacobi_residual", lambda: jacobi_residual(unit, x, y), (unit, x, y)),
        ("+", lambda: unit + x, (unit, x)),
        ("+", lambda: y + unit, (y, unit)),
        ("-", lambda: unit - y, (unit, y)),
        ("unary -", lambda: -unit, (unit,)),
        ("*", lambda: unit * s, (unit,)),
        ("*", lambda: s * y, (y,)),
        ("apply", lambda: autgroup.apply(p, unit), (unit,)),
        ("action", lambda: autgroup.action(q)(y), (y,)),
        ("compose", lambda: autgroup.compose(p, q), ()),
        ("invert", lambda: autgroup.invert(p), ()),
        ("apply_classified", lambda: apply_classified(deriv, unit), (unit, deriv.inner)),
    ]


def test_no_operation_writes_into_an_element_it_reads():
    # shared unit elements from single() are safe only while no operation
    # writes into the terms of an element it was given or handed back
    rng = SplitMix64(229)
    for _ in range(30):
        for name, run, args in _writers(rng):
            watched = [*args, *algebra._UNITS.values()]
            before = [dict(e._terms) for e in watched]
            out = run()
            assert [dict(e._terms) for e in watched] == before, name
            if isinstance(out, Element):
                assert _zero_free(out), name
