"""The automorphism group in canonical parameter form.

Every automorphism factors uniquely as

    inner_exp(b, c) . flip^i . degree_scale(u) . kind_scale(w) . shear(alpha, beta, gamma)

with the rightmost factor acting first, where

    shear:        L[n] -> L[n] + a n Y[n] + (a^2 n^2 + b n + g) M[n],
                  Y[n] -> Y[n] + 2 a n M[n]
    kind_scale:   Y[n] -> w Y[n],  M[n] -> w^2 M[n]
    degree_scale: X[n] -> u^n X[n]
    flip:         X[n] -> -X[-n],  C -> -C
    inner_exp:    exp(ad(sum b_j Y[j] + sum c_k M[k])), finite support

The shear is computed as exp(ad 2*alpha*Y[0]) . (1 + gamma*R1 + beta*R2), R1 and R2
being the outer derivation rules; its Y[0] factor is why b has no position 0.

``action(p)`` does the setup that depends only on ``p`` once (the inner
exponent, the shear element, the kind factors, and each ``u^n`` once per
index) and returns the function ``x -> apply(p, x)``.  ``apply`` builds the
action once per call; the window sweeps of ``factorize`` and
``compose_oracle`` build it once per automorphism and reuse it on every
generator.  No image is cached.

``compose`` and ``invert`` are exact and use no window.  Both move an inner
exponent through a tail ``T`` (everything right of inner_exp) by
``T . exp(ad x) . T^-1 = exp(ad T(x))``, and ``compose`` merges two inner
exponents by the two-term Baker-Campbell-Hausdorff formula
``exp(ad x) exp(ad y) = exp(ad(x + y + [x, y]/2))``, exact here because
``[x, y]`` lies in the M span, which commutes with Y and M.  The
generator-wise composition oracle ``compose_oracle`` (apply one map after
the other on every window generator, then refactorize) is the normative
definition they are tested against.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from types import MappingProxyType

from .algebra import (
    BasisVector,
    Element,
    L,
    M,
    Record,
    Y,
    bracket,
    exp_ad,
    single,
)
from .derivations import MAP_RADIUS, WindowMap, _apply_outer
from .scalar import ONE, Scalar, ZERO

__all__ = [
    "FactorizationError",
    "AutomorphismParams",
    "identity",
    "action",
    "apply",
    "compose",
    "compose_oracle",
    "invert",
    "factorize",
    "automorphism_window_map",
]


class FactorizationError(ValueError):
    """A window map is not an automorphism of the canonical shape."""


def _check_position(pos) -> None:
    # bool is a subclass of int and 1.0 == 1, so test the type; never coerce
    if type(pos) is not int:
        raise TypeError(f"position must be an int, not {pos!r}")
    if pos == 0:
        raise ValueError("position 0 is forbidden")


def _position_map(entries) -> Mapping[int, Scalar]:
    """A read-only position -> Scalar map in ascending position order, zero values dropped.

    ``entries`` is a mapping or an iterable of (position, value) pairs.
    """
    values = {}
    for pos, value in entries.items() if isinstance(entries, Mapping) else entries:
        # check the position before a zero value is dropped
        _check_position(pos)
        if pos in values:
            raise ValueError(f"position {pos} is given twice")
        values[pos] = Scalar.coerce(value)
    return MappingProxyType({pos: values[pos] for pos in sorted(values) if values[pos]})


class AutomorphismParams(Record):
    """The canonical tuple (b, c, i, u, w, alpha, beta, gamma); u, w nonzero."""

    __slots__ = ("b", "c", "i", "u", "w", "alpha", "beta", "gamma")

    def __init__(
        self,
        b: Mapping[int, Scalar] = (),
        c: Mapping[int, Scalar] = (),
        i: int = 0,
        u: Scalar = ONE,
        w: Scalar = ONE,
        alpha: Scalar = ZERO,
        beta: Scalar = ZERO,
        gamma: Scalar = ZERO,
    ) -> None:
        b, c = _position_map(b), _position_map(c)
        # bool is a subclass of int and 1.0 == 1, so test the type as well
        if type(i) is not int or i not in (0, 1):
            raise ValueError("parity i must be the integer 0 or 1")
        u, w = Scalar.coerce(u), Scalar.coerce(w)
        if not u or not w:
            raise ValueError("u and w must be nonzero")
        self._store(b, c, i, u, w, Scalar.coerce(alpha), Scalar.coerce(beta), Scalar.coerce(gamma))

    def __reduce__(self):  # a mappingproxy does not pickle; __init__ makes plain b and c read-only
        b, c, *rest = self._values
        return (AutomorphismParams, (dict(b), dict(c), *rest))


def identity() -> AutomorphismParams:
    return AutomorphismParams()


def _inner_argument(b: Mapping[int, Scalar], c: Mapping[int, Scalar]) -> Element:
    terms = {Y(j): cf for j, cf in b.items()}
    terms.update((M(k), cf) for k, cf in c.items())
    return Element._wrap(terms)


def _tail(p: AutomorphismParams) -> Callable[[Element], Element]:
    """The tail of ``p``, everything right of inner_exp, as a function; ignores b and c.

    After the shear, flip, degree scale and kind scale act in one pass as
    X[n] -> s * w^k * u^n * X[s*n] with s = (-1)^i and k = 0, 1, 2, 0 for
    L, Y, M, C.  Each factor equal to 1 is skipped.  The shear element and
    the kind factors are built once; each ``u^n`` is computed once per index.
    """
    outer = bool(p.beta or p.gamma)
    shear = single(Y(0), 2 * p.alpha) if p.alpha else None
    kind_factor = {} if p.w == ONE else {"Y": p.w, "M": p.w * p.w}
    scale_degree = p.u != ONE
    powers: dict[int, Scalar] = {}

    def tail(x: Element) -> Element:
        if outer:
            x = _apply_outer(p.gamma, p.beta, ZERO, x, x)
        if shear is not None:
            x = exp_ad(shear, x)
        if not (p.i or kind_factor or scale_degree):
            return x
        terms = {}
        for bv, cf in x._terms.items():
            if bv.kind in kind_factor:
                cf = cf * kind_factor[bv.kind]
            if scale_degree and bv.index:
                power = powers.get(bv.index)
                if power is None:
                    power = powers[bv.index] = p.u**bv.index
                cf = cf * power
            if p.i:
                bv, cf = BasisVector(bv.kind, -bv.index), -cf
            terms[bv] = cf
        return Element._wrap(terms)

    return tail


def _split_inner(xi: Element) -> tuple[dict[int, Scalar], dict[int, Scalar]]:
    """The Y and M coefficients (b, c) of an inner exponent; M[0] is central, so dropped."""
    b = {bv.index: cf for bv, cf in xi._terms.items() if bv.kind == "Y"}
    c = {bv.index: cf for bv, cf in xi._terms.items() if bv.kind == "M" and bv.index}
    return b, c


def action(params: AutomorphismParams) -> Callable[[Element], Element]:
    """The function ``x -> apply(params, x)``, with its per-automorphism setup done once."""
    tail = _tail(params)
    argument = _inner_argument(params.b, params.c)
    if argument.is_zero():
        return tail
    return lambda x: exp_ad(argument, tail(x))


def apply(params: AutomorphismParams, x: Element) -> Element:
    """Apply the automorphism: shear, kind scale, degree scale, flip, inner exp."""
    return action(params)(x)


def automorphism_window_map(params: AutomorphismParams, radius: int) -> WindowMap:
    # through apply, not one action: bench/micro.py's layer sweep reaches
    # apply only from here, and its self time is reported from that sweep
    return WindowMap.from_function(radius, lambda bv: apply(params, single(bv)))


def compose(p: AutomorphismParams, q: AutomorphismParams) -> AutomorphismParams:
    """Parameters of apply(p, apply(q, .)); closed form of the generator-wise oracle.

    Moving q's inner exponent left through p's tail turns it into
    eta = tail_p(xi_q); xi_p and eta then merge into
    xi_p + eta + [xi_p, eta]/2.  The remaining tail factors commute up to
    the sign/scale twists below.
    """
    sq = -1 if q.i else 1
    w_q_inv = q.w.inverse()
    i2 = (p.i + q.i) % 2
    u2 = (p.u if sq == 1 else p.u.inverse()) * q.u
    w2 = p.w * q.w
    alpha2 = sq * p.alpha * w_q_inv + q.alpha
    beta2 = sq * p.beta * w_q_inv * w_q_inv + q.beta
    gamma2 = p.gamma * w_q_inv * w_q_inv + q.gamma

    xi_p = _inner_argument(p.b, p.c)
    eta = _tail(p)(_inner_argument(q.b, q.c))
    b2, c2 = _split_inner(xi_p + eta + bracket(xi_p, eta) * (ONE / 2))
    return AutomorphismParams(b2, c2, i2, u2, w2, alpha2, beta2, gamma2)


def invert(p: AutomorphismParams) -> AutomorphismParams:
    """Closed-form inverse; compose(p, invert(p)) == identity() == the flip.

    The tail inverts factor by factor, and its inner exponent is
    -tail^-1(xi) because tail^-1 . exp(-ad xi) = exp(-ad tail^-1(xi)) . tail^-1.
    """
    s = -1 if p.i else 1
    w2 = p.w * p.w
    tail_inv = AutomorphismParams(
        i=p.i, u=p.u ** (-s), w=p.w.inverse(),
        alpha=-s * p.alpha * p.w, beta=-s * p.beta * w2, gamma=-p.gamma * w2,
    )
    b, c = _split_inner(-_tail(tail_inv)(_inner_argument(p.b, p.c)))
    return tail_inv.replace(b=b, c=c)


def factorize(dmap: WindowMap) -> AutomorphismParams:
    """Read the canonical parameters off a windowed automorphism.

    Extraction order: parity and w^2*u from the image of M[1]; w from the
    Y[0] image's Y coefficient; b from the Y components of the L[0] image;
    alpha from the M[s] coefficient of the Y[1] image, which the inner
    factor never reaches.  Peeling exp(ad of the Y part) off the L[0]
    image leaves s*L[0] + s*w^2*gamma*M[0] - s*sum_k k*c_k*M[k], which
    gives gamma and c; peeling the whole inner factor off the L[1] image
    leaves its tail image, whose M[s] coefficient gives beta.  A full
    window sweep then verifies the reconstruction and rejects anything else.
    """
    if dmap.window.radius < MAP_RADIUS:
        raise ValueError(f"factorize needs window radius >= {MAP_RADIUS}")

    def fail(bv: BasisVector) -> None:
        raise FactorizationError(f"not an automorphism of canonical shape: {bv}")

    img_m1 = dmap.image(M(1)).terms()
    if len(img_m1) != 1:
        fail(M(1))
    head, m1_coeff = img_m1[0]
    if head.kind != "M" or head.index not in (1, -1):
        fail(M(1))
    parity = 0 if head.index == 1 else 1
    s = -1 if parity else 1

    w = s * dmap.image(Y(0)).coeff(Y(0))
    if not w:
        fail(Y(0))
    u = s * m1_coeff * (w * w).inverse()

    img_l0 = dmap.image(L(0))
    if img_l0.coeff(L(0)) != Scalar.coerce(s):
        fail(L(0))
    b: dict[int, Scalar] = {}
    for bv, cf in img_l0.terms():
        if bv.kind == "Y":
            if bv.index == 0:
                fail(L(0))
            b[bv.index] = -s * cf / bv.index

    alpha = s * dmap.image(Y(1)).coeff(M(s)) / (2 * w * w * u)

    rest = exp_ad(-_inner_argument(b, {}), img_l0)
    if any(bv.kind != "M" and bv is not L(0) for bv in rest._terms):
        fail(L(0))
    gamma = s * rest.coeff(M(0)) / (w * w)
    c = {bv.index: -s * cf / bv.index for bv, cf in rest._terms.items()
         if bv.kind == "M" and bv.index}

    tail_l1 = exp_ad(-_inner_argument(b, c), dmap.image(L(1)))
    beta = s * tail_l1.coeff(M(s)) / (u * w * w) - alpha * alpha - gamma

    params = AutomorphismParams(b, c, parity, u, w, alpha, beta, gamma)
    if tail_l1 != _tail(params)(single(L(1))):
        fail(L(1))
    act = action(params)
    for bv in dmap.window.vectors():
        if act(single(bv)) != dmap.image(bv):
            fail(bv)
    return params


def compose_oracle(
    p: AutomorphismParams, q: AutomorphismParams, radius: int = MAP_RADIUS
) -> AutomorphismParams:
    """Generator-wise composition: apply q then p on a window, refactorize."""
    act_p, act_q = action(p), action(q)
    return factorize(WindowMap.from_function(radius, lambda bv: act_p(act_q(single(bv)))))
