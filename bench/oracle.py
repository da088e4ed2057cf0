"""Known answers for the benchmark, computed without the engine under test.

Gaussian rationals are ``(re, im)`` pairs of ``Fraction``; elements are dicts
``{(kind, index): scalar}`` with no zero coefficients, where ``C`` is
``("C", 0)``.  The bracket follows the five structure-constant rules of the
algebra, the automorphism action follows the factor definitions of the
canonical form, and the printers (with ``parse_params``, their reader for
printed parameters) follow the documented canonical text and JSON forms.
Nothing here imports ``svlie``, so a defect in the engine cannot also hide
in its own known answer.
"""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
C = ("C", 0)
_KIND_ORDER = {"L": 0, "Y": 1, "M": 2, "C": 3}


def g(re, im=0):
    return (Fraction(re), Fraction(im))


def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def ginv(a):
    norm = a[0] * a[0] + a[1] * a[1]
    return (a[0] / norm, -a[1] / norm)


@functools.lru_cache(maxsize=None)
def gpow(a, n):
    if n < 0:
        a, n = ginv(a), -n
    out = ONE
    for _ in range(n):
        out = gmul(out, a)
    return out


def is_zero(a):
    return not a[0] and not a[1]


def add_into(acc, bv, cf):
    total = gadd(acc.get(bv, ZERO), cf)
    if is_zero(total):
        acc.pop(bv, None)
    else:
        acc[bv] = total


def combine(*scaled):
    """Sum of ``(coefficient, element)`` pairs."""
    acc = {}
    for cf, x in scaled:
        for bv, v in x.items():
            add_into(acc, bv, gmul(cf, v))
    return acc


@functools.lru_cache(maxsize=None)
def bracket_basis(a, b):
    (ka, n), (kb, m) = a, b
    if ka != "L" and kb == "L":
        return combine((g(-1), bracket_basis(b, a)))
    out = {}
    if ka == "L" and kb == "L":
        add_into(out, ("L", n + m), g(m - n))
        if n + m == 0:
            add_into(out, C, g(Fraction(n**3 - n, 12)))
    elif ka == "L" and kb == "Y":
        add_into(out, ("Y", n + m), g(Fraction(2 * m - n, 2)))
    elif ka == "L" and kb == "M":
        add_into(out, ("M", n + m), g(m))
    elif ka == "Y" and kb == "Y":
        add_into(out, ("M", n + m), g(m - n))
    return out


def bracket(x, y):
    acc = {}
    for a, ca in x.items():
        for b, cb in y.items():
            for bv, cf in bracket_basis(a, b).items():
                add_into(acc, bv, gmul(gmul(ca, cb), cf))
    return acc


def exp_ad(x, t):
    """exp(ad x) t for x in the Y/M span, where (ad x)^3 = 0."""
    first = bracket(x, t)
    return combine((ONE, t), (ONE, first), (g(Fraction(1, 2)), bracket(x, first)))


def apply(p, x):
    """The automorphism with parameters ``p``; the shear acts first, inner_exp last."""
    alpha, beta, gamma, w, u = p["alpha"], p["beta"], p["gamma"], p["w"], p["u"]
    out = {}
    for (kind, n), cf in x.items():
        add_into(out, (kind, n), cf)
        if kind == "L":
            add_into(out, ("Y", n), gmul(cf, gmul(alpha, g(n))))
            quad = gadd(gmul(gmul(alpha, alpha), g(n * n)), gadd(gmul(beta, g(n)), gamma))
            add_into(out, ("M", n), gmul(cf, quad))
        elif kind == "Y":
            add_into(out, ("M", n), gmul(cf, gmul(alpha, g(2 * n))))
    scale = {"L": ONE, "Y": w, "M": gmul(w, w), "C": ONE}
    out = {(k, n): gmul(cf, gmul(scale[k], gpow(u, n))) for (k, n), cf in out.items()}
    if p["i"]:
        out = {(k, -n): gmul(g(-1), cf) for (k, n), cf in out.items()}
    inner = {("Y", j): v for j, v in p["b"].items()}
    inner.update({("M", k): v for k, v in p["c"].items()})
    return exp_ad(inner, out) if inner else out


def window(radius):
    gens = [(kind, n) for kind in "LYM" for n in range(-radius, radius + 1)]
    return gens + [C]


def format_scalar(a):
    re, im = a
    if not im:
        return str(re)
    imag = f"{abs(im)}i"
    if not re:
        return imag if im > 0 else f"-{imag}"
    return f"{re}{'+' if im > 0 else '-'}{imag}"


def format_basis(bv):
    return "C" if bv[0] == "C" else f"{bv[0]}[{bv[1]}]"


def format_element(x):
    pieces = []
    for bv in sorted(x, key=lambda b: (_KIND_ORDER[b[0]], b[1])):
        cf = x[bv]
        negative = cf[0] < 0 if cf[0] else cf[1] < 0
        magnitude = (-cf[0], -cf[1]) if negative else cf
        if magnitude == ONE:
            body = format_basis(bv)
        else:
            text = format_scalar(magnitude)
            if "+" in text or "-" in text:
                text = f"({text})"
            body = f"{text}*{format_basis(bv)}"
        if pieces:
            pieces.append(f" - {body}" if negative else f" + {body}")
        else:
            pieces.append(f"-{body}" if negative else body)
    return "".join(pieces) or "0"


def params_json(p):
    """The canonical parameter JSON object, keys in the engine's output order."""
    return {
        "b": {str(j): format_scalar(p["b"][j]) for j in sorted(p["b"])},
        "c": {str(k): format_scalar(p["c"][k]) for k in sorted(p["c"])},
        "i": p["i"],
        **{key: format_scalar(p[key]) for key in ("u", "w", "alpha", "beta", "gamma")},
    }


def parse_scalar(text: str):
    """Read a canonical scalar string back into an oracle pair."""
    if not text.endswith("i"):
        return g(Fraction(text))
    body = text[:-1]
    split = max(body.rfind("+"), body.rfind("-"))
    if split <= 0:
        return g(0, Fraction(body))
    return g(Fraction(body[:split]), Fraction(body[split:]))


def parse_params(text: str):
    data = json.loads(text)
    p = {key: parse_scalar(data[key]) for key in ("u", "w", "alpha", "beta", "gamma")}
    p["i"] = data["i"]
    for key in ("b", "c"):
        p[key] = {int(pos): parse_scalar(v) for pos, v in data[key].items()}
    return p


IDENTITY = {"b": {}, "c": {}, "i": 0, "u": ONE, "w": ONE, "alpha": ZERO, "beta": ZERO, "gamma": ZERO}


def window_map_json(images, radius):
    return {"radius": radius, "images": {format_basis(bv): format_element(x) for bv, x in images.items()}}


def emit_element(x, fmt):
    """What ``svlie <element command> --format fmt`` prints for the element ``x``."""
    text = format_element(x)
    return (json.dumps({"result": text}, sort_keys=True) if fmt == "json" else text) + "\n"


def emit_params(p, fmt):
    """What ``svlie <parameter command> --format fmt`` prints for parameters ``p``."""
    payload = params_json(p)
    return (json.dumps(payload) if fmt == "json" else json.dumps(payload, indent=2)) + "\n"


class Generator:
    """Seeded inputs drawn with the standard library's Mersenne Twister."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def scalar(self, nonzero=False):
        while True:
            re = Fraction(self.rng.randint(-4, 4), self.rng.randint(1, 3))
            im = Fraction(self.rng.randint(-4, 4), self.rng.randint(1, 3)) if self.rng.random() < 1 / 3 else 0
            value = g(re, im)
            if not nonzero or not is_zero(value):
                return value

    def element(self, radius, kinds="LYMC", max_terms=3):
        out = {}
        for _ in range(self.rng.randint(1, max_terms)):
            kind = self.rng.choice(kinds)
            bv = C if kind == "C" else (kind, self.rng.randint(-radius, radius))
            add_into(out, bv, self.scalar(nonzero=True))
        return out

    def seq(self, reach=3):
        positions = [p for p in range(-reach, reach + 1) if p]
        return {self.rng.choice(positions): self.scalar(nonzero=True) for _ in range(self.rng.randint(0, 2))}

    def params(self):
        return {
            "b": self.seq(),
            "c": self.seq(),
            "i": self.rng.randint(0, 1),
            "u": self.scalar(nonzero=True),
            "w": self.scalar(nonzero=True),
            "alpha": self.scalar(),
            "beta": self.scalar(),
            "gamma": self.scalar(),
        }
