"""Derivation rules, the Leibniz and automorphism checkers, and windowed classification oracles.

A classified derivation is ``c1*R1 + c2*R2 + c3*R3 + ad(z)`` where the three
outer rules act by

    R1: L[n] -> M[n]          R2: L[n] -> n M[n]
    R3: Y[n] -> Y[n], M[n] -> 2 M[n]

and everything kills C.  The oracles below build exact linear systems over
window-bounded unknowns with the one assembler ``scalar.graded_system``,
whose rows are keyed ``(test, basis vector)`` and read one degree at a time,
and solve them with the exact kernel solver.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from .algebra import (
    BasisVector,
    C,
    Element,
    L,
    M,
    Record,
    Window,
    Y,
    ZERO_ELEMENT,
    bracket,
    bracket_basis,
    single,
)
from .scalar import ONE, Scalar, ZERO, add_into, graded_system, nullspace

__all__ = [
    "MAP_RADIUS",
    "HOM_RADIUS",
    "DerivationError",
    "ClassifiedDerivation",
    "WindowMap",
    "apply_classified",
    "classified_window_map",
    "leibniz_check",
    "is_automorphism_window",
    "classify_degree0",
    "decompose",
    "outer_independence_kernel",
    "equivariant_hom_nullity",
]

# The window floors: the smallest radius on which decompose and autgroup.factorize
# read a map off its images, and the smallest equivariant_hom_nullity accepts.
MAP_RADIUS = 3
HOM_RADIUS = 2


class DerivationError(ValueError):
    """A window map fails one of the derivation classification contracts."""


class ClassifiedDerivation(Record):
    """Coefficients on the three outer rules plus an inner part ad(inner)."""

    __slots__ = ("c1", "c2", "c3", "inner")

    def __init__(
        self, c1: Scalar = ZERO, c2: Scalar = ZERO, c3: Scalar = ZERO, inner: Element = ZERO_ELEMENT
    ) -> None:
        if not isinstance(inner, Element):
            raise TypeError(f"inner must be an Element, not {type(inner).__name__}")
        self._store(Scalar.coerce(c1), Scalar.coerce(c2), Scalar.coerce(c3), inner)


def _outer_term(c1: Scalar, c2: Scalar, c3: Scalar, bv: BasisVector) -> tuple[BasisVector, Scalar]:
    """The image of ``bv`` under ``c1*R1 + c2*R2 + c3*R3`` as one term; C's coefficient is zero."""
    if bv.kind == "L":
        return M(bv.index), c1 + c2 * bv.index
    if bv.kind == "Y":
        return bv, c3
    if bv.kind == "M":
        # the automorphism tail always passes c3 = 0; skip the product then
        return bv, 2 * c3 if c3 else c3
    return bv, ZERO


def _apply_outer(c1: Scalar, c2: Scalar, c3: Scalar, x: Element, base: Element) -> Element:
    """``base`` plus the linear extension of ``c1*R1 + c2*R2 + c3*R3`` to ``x``, in one dict."""
    terms = []
    for bv, cf in x._terms.items():
        target, scale = _outer_term(c1, c2, c3, bv)
        if scale:
            terms.append((target, scale * cf))
    return Element._wrap(add_into(dict(base._terms), terms))


def apply_classified(deriv: ClassifiedDerivation, x: Element) -> Element:
    """Linear extension of the classified rules plus the inner bracket action."""
    return _apply_outer(deriv.c1, deriv.c2, deriv.c3, x, bracket(deriv.inner, x))


class WindowMap(Record):
    """Extensional linear map: one exact image per in-window basis vector."""

    __slots__ = ("window", "images")

    def __init__(self, window: Window, images: Mapping[BasisVector, Element]) -> None:
        # Count first, so a huge radius is rejected without enumerating its window.
        count = 3 * (2 * window.radius + 1) + 1
        if len(images) != count or set(images) != set(window.vectors()):
            raise ValueError("window map must define exactly the in-window basis vectors")
        self._store(window, dict(images))  # its own copy: the caller's mapping may change

    @classmethod
    def from_function(cls, radius: int, fn: Callable[[BasisVector], Element]) -> "WindowMap":
        window = Window(radius)
        out = object.__new__(cls)
        out._store(window, {bv: fn(bv) for bv in window.vectors()})  # fresh and exact: no check, no copy
        return out

    def image(self, bv: BasisVector) -> Element:
        try:
            return self.images[bv]
        except KeyError:
            raise ValueError(f"generator outside window: {bv}") from None


def classified_window_map(deriv: ClassifiedDerivation, radius: int) -> WindowMap:
    """The exact (untruncated) action of a classified derivation on a window."""
    if deriv.inner.is_zero():
        c1, c2, c3 = deriv.c1, deriv.c2, deriv.c3
        return WindowMap.from_function(radius, lambda bv: single(*_outer_term(c1, c2, c3, bv)))
    return WindowMap.from_function(radius, lambda bv: apply_classified(deriv, single(bv)))


def _bracket_violations(
    dmap: WindowMap, rhs: Callable[[BasisVector, BasisVector], tuple[Element, ...]]
) -> list[tuple[BasisVector, BasisVector, Element]]:
    """Pairs x < y where m([x,y]) differs from the sum of rhs(x, y), with the residual.

    A pair of in-window generators is compared when, and only when, [x,y]
    is supported inside the window.  Its left side then reads only the
    stored images of in-window generators, wherever those images land.
    """
    window = dmap.window
    gens = window.vectors()
    violations = []
    for i, x in enumerate(gens):
        for y in gens[i + 1 :]:
            xy = bracket_basis(x, y)
            if not window.contains(xy):
                continue
            residual: dict[BasisVector, Scalar] = {}
            for bv, cf in xy._terms.items():
                add_into(residual, dmap.image(bv)._terms.items(), cf)
            for part in rhs(x, y):
                add_into(residual, part._terms.items(), -1)
            if residual:
                violations.append((x, y, Element._wrap(residual)))
    return violations


def leibniz_check(dmap: WindowMap) -> list[tuple[BasisVector, BasisVector, Element]]:
    """Violations of D[x,y] = [Dx,y] + [x,Dy] over in-window pairs.

    Every pair x < y of window generators whose bracket [x,y] is supported
    inside the window is compared, including pairs whose images leave it;
    each violation comes with its residual D[x,y] - [Dx,y] - [x,Dy].
    """
    return _bracket_violations(
        dmap,
        lambda x, y: (bracket(dmap.image(x), single(y)), bracket(single(x), dmap.image(y))),
    )


def is_automorphism_window(dmap: WindowMap) -> list[tuple[BasisVector, BasisVector, Element]]:
    """Violations of m[x,y] = [m(x), m(y)] over in-window pairs, with residuals."""
    return _bracket_violations(dmap, lambda x, y: (bracket(dmap.image(x), dmap.image(y)),))


def classify_degree0(dmap: WindowMap) -> ClassifiedDerivation:
    """Fit the degree-zero normal form d1*R1 + d*R2 + g0*R3 and verify it everywhere.

    The normal form sends L[n] -> (d*n + d1) M[n], Y[n] -> g0 Y[n],
    M[n] -> 2 g0 M[n] and C -> 0; it is returned as
    ``ClassifiedDerivation(c1=d1, c2=d, c3=g0)`` with zero inner part.

    Raises DerivationError("not degree-0 into S: ...") when some image leaves
    the span of the same-index Y and M vectors, and ("not a derivation of the
    stated form: ...") when the fit read off L[0], L[1], Y[0] fails on any
    window generator (including C, whose image must vanish).
    """
    window = dmap.window
    for bv in window.vectors():
        if bv.kind == "C":
            continue
        for t in dmap.image(bv).support():
            if t.kind not in ("Y", "M") or t.index != bv.index:
                raise DerivationError(f"not degree-0 into S: {bv}")
    d1 = dmap.image(L(0)).coeff(M(0))
    d = dmap.image(L(1)).coeff(M(1)) - d1
    g0 = dmap.image(Y(0)).coeff(Y(0))
    for bv in window.vectors():
        if dmap.image(bv) != single(*_outer_term(d1, d, g0, bv)):
            raise DerivationError(f"not a derivation of the stated form: {bv}")
    return ClassifiedDerivation(d1, d, g0)


def decompose(dmap: WindowMap) -> ClassifiedDerivation:
    """Split a windowed derivation as outer coefficients plus ad(z).

    The nonzero-degree part of z is read off the image of L[0] (the degree-n
    component of a derivation applied to L[0] equals -n * z_n); the L[0] and
    Y[0] coefficients of z come from the residual image of L[1]; the central
    ambiguity of the inner representative is fixed by leaving the M[0] and C
    coefficients of z at zero.  ``classify_degree0`` then fits the rest D - ad(z);
    a failed fit raises DerivationError("residual not in classified span: " + its message).
    """
    window = dmap.window
    if window.radius < MAP_RADIUS:
        raise ValueError(f"decompose needs window radius >= {MAP_RADIUS}")
    img_l0 = dmap.image(L(0))
    z = Element(
        [(bv, -cf / bv.degree) for bv, cf in img_l0._terms.items() if bv.degree != 0]
    )
    residual_l1 = dmap.image(L(1)) - bracket(z, single(L(1)))
    a = residual_l1.coeff(L(1))
    b = 2 * residual_l1.coeff(Y(1))
    z = z + Element([(L(0), a), (Y(0), b)])
    rest = WindowMap.from_function(window.radius, lambda bv: dmap.image(bv) - bracket(z, single(bv)))
    try:
        outer = classify_degree0(rest)
    except DerivationError as exc:
        raise DerivationError(f"residual not in classified span: {exc}") from exc
    return outer.replace(inner=z)


def outer_independence_kernel(
    window: Window,
) -> list[tuple[Scalar, Scalar, Scalar, Element]]:
    """Exact kernel of ``c1*R1 + c2*R2 + c3*R3 = ad(z)`` with z in-window.

    Returns one (c1, c2, c3, z) tuple per kernel basis vector; the
    classification evidence is that every solution has c1 = c2 = c3 = 0
    and z central.
    """
    gens = window.vectors()
    units = ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE))

    def terms(col, g):
        if col in units:
            return (_outer_term(*col, g),)
        return ((v, -cf) for v, cf in bracket_basis(col, g)._terms.items())

    def tests(d, block):
        for g in gens:
            yield g, g.degree, ((col, terms(col, g)) for col in block)

    # the rule columns have degree 0, the column of z its degree
    kernel = nullspace(graded_system((*units, *gens), [0, 0, 0, *(g.degree for g in gens)], tests))
    return [(vec[0], vec[1], vec[2], Element(zip(gens, vec[3:]))) for vec in kernel]


def equivariant_hom_nullity(window: Window) -> int:
    """Kernel dimension of the windowed equivariance constraints for maps
    sending Y-classes into the Virasoro part; the contract is 0.

    The unknown column ``(Y[n], t)`` is the coefficient of t in f(Y[n]), for t
    in L[-r..r] and C.  Each in-window pair (m, n) with m+n in-window gives the
    constraint f([L[m], Y[n]]) = [L[m], f(Y[n])], expanded exactly: codomain
    components outside the window still constrain the in-window unknowns.

    The tests are read by |m|, m = 0 first.  ``ad L[0]`` acts by the degree, so
    those give one-entry rows (n - k) x(Y[n], L[k]) = 0 and n x(Y[n], C) = 0
    that fill every block of nonzero shift before another test is read; only
    the shift-0 block reads tests with m != 0.
    """
    radius = window.radius
    if radius < HOM_RADIUS:
        raise ValueError(f"equivariant_hom_nullity needs window radius >= {HOM_RADIUS}")
    span = range(-radius, radius + 1)
    ls, ys = [L(k) for k in span], [Y(k) for k in span]  # L[k] is ls[k + radius]
    targets = (*ls, C)

    order = sorted(span, key=abs)
    action: dict[tuple[int, int], Scalar] = {}  # (m, n) -> -(Y[m+n] coefficient of [L[m], Y[n]])

    def tests(shift, block):
        at: dict[BasisVector, list[BasisVector]] = {}  # Y[n] -> each t of a column (Y[n], t) in block
        for yn, t in block:
            at.setdefault(yn, []).append(t)
        for m in order:
            lm = ls[m + radius]
            for n in range(max(-radius, -radius - m), min(radius, radius - m) + 1):
                yn, ymn = ys[n + radius], ys[m + n + radius]
                direct, images = at.get(yn, ()), at.get(ymn, ())
                if not (direct or images):
                    continue
                constraints = [((yn, t), bracket_basis(lm, t)._terms.items()) for t in direct]
                if images:
                    neg = action.get((m, n))
                    if neg is None:
                        neg = action[m, n] = -bracket_basis(lm, yn).coeff(ymn)
                    if neg:
                        constraints += [((ymn, t), ((t, neg),)) for t in images]
                yield (m, n), m + n, constraints

    # the column (Y[n], t) shifts degrees by deg t - n
    cols = [(Y(n), t) for n in span for t in targets]
    return len(nullspace(graded_system(cols, [t.degree - yn.index for yn, t in cols], tests)))
