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

``compose`` and ``invert`` ship exact closed forms; the generator-wise
composition oracle ``compose_oracle`` (apply one map after the other on
every window generator, then refactorize) is the normative definition they
are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    BasisVector,
    C,
    Element,
    L,
    M,
    Y,
    ZERO_ELEMENT,
    bracket,
    exp_ad,
    single,
)
from .derivations import WindowMap, _bracket_violations
from .scalar import ONE, Scalar, ZERO, format_scalar, parse_scalar

__all__ = [
    "FactorizationError",
    "FiniteSupportSeq",
    "AutomorphismParams",
    "identity",
    "apply",
    "compose",
    "compose_oracle",
    "invert",
    "factorize",
    "is_automorphism_window",
    "automorphism_window_map",
    "params_to_json",
    "params_from_json",
]


class FactorizationError(ValueError):
    """A window map is not an automorphism of the canonical shape."""


@dataclass(frozen=True)
class FiniteSupportSeq:
    """Finitely supported sequence over nonzero integer positions."""

    entries: tuple[tuple[int, Scalar], ...] = ()

    def __post_init__(self) -> None:
        last = None
        for pos, value in self.entries:
            if pos == 0:
                raise ValueError("position 0 is forbidden")
            if last is not None and pos <= last:
                raise ValueError("entries must be sorted by position")
            if not isinstance(value, Scalar) or not value:
                raise ValueError("stored values must be nonzero scalars")
            last = pos

    @classmethod
    def of(cls, mapping) -> "FiniteSupportSeq":
        if isinstance(mapping, FiniteSupportSeq):
            return mapping
        items = mapping.items() if isinstance(mapping, dict) else mapping
        clean = {}
        for pos, value in items:
            value = Scalar.coerce(value)
            if value:
                clean[int(pos)] = value
        return cls(tuple(sorted(clean.items())))

    def get(self, pos: int) -> Scalar:
        for p, value in self.entries:
            if p == pos:
                return value
        return ZERO

    def items(self) -> tuple[tuple[int, Scalar], ...]:
        return self.entries

    def support(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.entries)

    def is_zero(self) -> bool:
        return not self.entries


_EMPTY_SEQ = FiniteSupportSeq()


@dataclass(frozen=True)
class AutomorphismParams:
    """The canonical tuple (b, c, i, u, w, alpha, beta, gamma); u, w nonzero."""

    b: FiniteSupportSeq = _EMPTY_SEQ
    c: FiniteSupportSeq = _EMPTY_SEQ
    i: int = 0
    u: Scalar = ONE
    w: Scalar = ONE
    alpha: Scalar = ZERO
    beta: Scalar = ZERO
    gamma: Scalar = ZERO

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", FiniteSupportSeq.of(self.b))
        object.__setattr__(self, "c", FiniteSupportSeq.of(self.c))
        # bool is a subclass of int and 1.0 == 1, so test the type as well
        if type(self.i) is not int or self.i not in (0, 1):
            raise ValueError("parity i must be the integer 0 or 1")
        object.__setattr__(self, "u", Scalar.coerce(self.u))
        object.__setattr__(self, "w", Scalar.coerce(self.w))
        if not self.u or not self.w:
            raise ValueError("u and w must be nonzero")
        object.__setattr__(self, "alpha", Scalar.coerce(self.alpha))
        object.__setattr__(self, "beta", Scalar.coerce(self.beta))
        object.__setattr__(self, "gamma", Scalar.coerce(self.gamma))


def identity() -> AutomorphismParams:
    return AutomorphismParams()


def _apply_shear(alpha: Scalar, beta: Scalar, gamma: Scalar, x: Element) -> Element:
    if not alpha and not beta and not gamma:
        return x
    out = ZERO_ELEMENT
    for bv, cf in x._terms.items():
        n = bv.index
        if bv.kind == "L":
            image = Element(
                [
                    (bv, ONE),
                    (Y(n), alpha * n),
                    (M(n), alpha * alpha * n * n + beta * n + gamma),
                ]
            )
        elif bv.kind == "Y":
            image = Element([(bv, ONE), (M(n), 2 * alpha * n)])
        else:
            image = single(bv)
        out = out + image * cf
    return out


def _apply_kind_scale(w: Scalar, x: Element) -> Element:
    if w == ONE:
        return x
    w2 = w * w
    scaled = {"L": ONE, "Y": w, "M": w2, "C": ONE}
    return Element([(bv, cf * scaled[bv.kind]) for bv, cf in x._terms.items()])


def _apply_degree_scale(u: Scalar, x: Element) -> Element:
    if u == ONE:
        return x
    return Element([(bv, cf * u**bv.degree) for bv, cf in x._terms.items()])


def _apply_flip(x: Element) -> Element:
    return Element(
        [(BasisVector(bv.kind, -bv.index), -cf) for bv, cf in x._terms.items()]
    )


def _inner_argument(b: FiniteSupportSeq, c: FiniteSupportSeq) -> Element:
    terms = [(Y(j), cf) for j, cf in b.items()]
    terms += [(M(k), cf) for k, cf in c.items()]
    return Element(terms)


def apply(params: AutomorphismParams, x: Element) -> Element:
    """Apply the automorphism: shear, kind scale, degree scale, flip, inner exp."""
    out = _apply_shear(params.alpha, params.beta, params.gamma, x)
    out = _apply_kind_scale(params.w, out)
    out = _apply_degree_scale(params.u, out)
    if params.i:
        out = _apply_flip(out)
    argument = _inner_argument(params.b, params.c)
    if not argument.is_zero():
        out = exp_ad(argument, out)
    return out


def automorphism_window_map(params: AutomorphismParams, radius: int) -> WindowMap:
    return WindowMap.from_function(radius, lambda bv: apply(params, single(bv)))


def compose(p: AutomorphismParams, q: AutomorphismParams) -> AutomorphismParams:
    """Parameters of apply(p, apply(q, .)); closed form of the generator-wise oracle.

    Derivation sketch: conjugating q's inner exponent through p's tail
    rescales and reindexes it (and the shear feeds 2*alpha*k*b' into the M
    side); merging the two inner exponents picks up one exact commutator
    term because [Y, Y] lands in the central-or-M span.  The remaining tail
    factors commute up to the sign/scale twists below.
    """
    sp = -1 if p.i else 1
    sq = -1 if q.i else 1
    w_q_inv = q.w.inverse()
    i2 = (p.i + q.i) % 2
    u2 = (p.u if sq == 1 else p.u.inverse()) * q.u
    w2 = p.w * q.w
    alpha2 = sq * p.alpha * w_q_inv + q.alpha
    beta2 = sq * p.beta * w_q_inv * w_q_inv + q.beta
    gamma2 = p.gamma * w_q_inv * w_q_inv + q.gamma

    # q's inner exponent, conjugated through p's tail.
    b_conj: dict[int, Scalar] = {}
    c_conj: dict[int, Scalar] = {}
    for jq, bq in q.b.items():
        j = sp * jq
        scale = sp * p.w * p.u**jq
        b_conj[j] = scale * bq
        c_conj[j] = p.w * scale * (2 * p.alpha * jq * bq)
    for kq, cq in q.c.items():
        k = sp * kq
        prev = c_conj.get(k, ZERO)
        c_conj[k] = prev + sp * p.w * p.w * p.u**kq * cq

    b2: dict[int, Scalar] = dict(p.b.items())
    for j, cf in b_conj.items():
        b2[j] = b2.get(j, ZERO) + cf
    c2: dict[int, Scalar] = dict(p.c.items())
    for k, cf in c_conj.items():
        c2[k] = c2.get(k, ZERO) + cf
    for j, bj in p.b.items():
        for jt, bt in b_conj.items():
            k = j + jt
            if k == 0 or not bt:
                continue
            c2[k] = c2.get(k, ZERO) + Fraction(k - 2 * j, 2) * bj * bt
    return AutomorphismParams(
        FiniteSupportSeq.of(b2),
        FiniteSupportSeq.of(c2),
        i2,
        u2,
        w2,
        alpha2,
        beta2,
        gamma2,
    )


def invert(p: AutomorphismParams) -> AutomorphismParams:
    """Closed-form inverse; compose(p, invert(p)) == identity() == the flip."""
    s = -1 if p.i else 1
    w_inv = p.w.inverse()
    b_new: dict[int, Scalar] = {}
    c_new: dict[int, Scalar] = {}
    for m, bm in p.b.items():
        pos = s * m
        u_pow = p.u ** (-pos)
        b_new[pos] = -s * w_inv * u_pow * bm
        c_new[pos] = 2 * p.alpha * s * pos * w_inv * u_pow * bm
    for m, cm in p.c.items():
        pos = s * m
        prev = c_new.get(pos, ZERO)
        c_new[pos] = prev - s * w_inv * w_inv * p.u ** (-pos) * cm
    return AutomorphismParams(
        FiniteSupportSeq.of(b_new),
        FiniteSupportSeq.of(c_new),
        p.i,
        p.u ** (-s),
        w_inv,
        -s * p.alpha * p.w,
        -s * p.beta * p.w * p.w,
        -p.gamma * p.w * p.w,
    )


def is_automorphism_window(
    dmap: WindowMap,
) -> list[tuple[BasisVector, BasisVector, Element]]:
    """Violations of m[x,y] = [m(x), m(y)] over in-window pairs, with residuals."""
    return _bracket_violations(dmap, lambda x, y: bracket(dmap.image(x), dmap.image(y)))


def factorize(dmap: WindowMap) -> AutomorphismParams:
    """Read the canonical parameters off a windowed automorphism.

    Extraction order: parity and w^2*u from the image of M[1]; w from the
    Y[0] image's Y coefficient; b from the Y components of the L[0] image;
    alpha, beta, gamma from the images of Y[1], L[1], L[0]; c from the
    residual M components of the L[0] image.  A full window sweep then
    verifies the reconstruction and rejects anything else.
    """
    if dmap.window.radius < 3:
        raise ValueError("factorize needs window radius >= 3")

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

    def pair_sum(k: int) -> Scalar:
        # sum over j + j' = k of b_j b_j' (-j)(j - j')
        acc = ZERO
        for j, bj in b.items():
            other = b.get(k - j)
            if other is not None and k - j != 0:
                acc = acc + Fraction(j * (k - 2 * j)) * bj * other
        return acc

    gamma = (s * img_l0.coeff(M(0)) - pair_sum(0) / 2) / (w * w)

    c: dict[int, Scalar] = {}
    candidates = {bv.index for bv in img_l0.support() if bv.kind == "M"}
    candidates |= {j + jp for j in b for jp in b}
    for k in sorted(candidates - {0}):
        ck = (pair_sum(k) / 2 - s * img_l0.coeff(M(k))) / k
        if ck:
            c[k] = ck

    half_s = Fraction(s, 2)
    twist = ZERO
    for j, bj in b.items():
        other = b.get(-j)
        if other is not None:
            twist = twist + (half_s - j) * (s + 2 * j) * bj * other
    beta = (s * dmap.image(L(1)).coeff(M(s)) / u - twist / 2) / (w * w) - alpha * alpha - gamma

    params = AutomorphismParams(b, c, parity, u, w, alpha, beta, gamma)
    for bv in dmap.window.vectors():
        if apply(params, single(bv)) != dmap.image(bv):
            fail(bv)
    return params


def compose_oracle(
    p: AutomorphismParams, q: AutomorphismParams, radius: int = 3
) -> AutomorphismParams:
    """Generator-wise composition: apply q then p on a window, refactorize."""
    return factorize(
        WindowMap.from_function(radius, lambda bv: apply(p, apply(q, single(bv))))
    )


def params_to_json(p: AutomorphismParams) -> dict:
    """Canonical JSON form with numerically sorted b/c keys."""
    return {
        "b": {str(j): format_scalar(v) for j, v in p.b.items()},
        "c": {str(k): format_scalar(v) for k, v in p.c.items()},
        "i": p.i,
        "u": format_scalar(p.u),
        "w": format_scalar(p.w),
        "alpha": format_scalar(p.alpha),
        "beta": format_scalar(p.beta),
        "gamma": format_scalar(p.gamma),
    }


def params_from_json(data: dict) -> AutomorphismParams:
    def seq(field: str) -> FiniteSupportSeq:
        raw = data.get(field, {})
        if not isinstance(raw, dict):
            raise ValueError(f"{field} must be an object of position -> scalar")
        return FiniteSupportSeq.of(
            {int(key): parse_scalar(value) for key, value in raw.items()}
        )

    return AutomorphismParams(
        seq("b"),
        seq("c"),
        data.get("i", 0),
        parse_scalar(data["u"]),
        parse_scalar(data["w"]),
        parse_scalar(data.get("alpha", "0")),
        parse_scalar(data.get("beta", "0")),
        parse_scalar(data.get("gamma", "0")),
    )
