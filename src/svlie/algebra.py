"""The twisted Schrodinger-Virasoro Lie algebra as exact data.

Basis ``{L[n], Y[n], M[n], C : n in Z}`` over Gaussian rationals, with

    [L(n), L(m)] = (m - n) L(n+m) + delta(n+m, 0) * (n^3 - n)/12 * C
    [L(n), Y(m)] = (m - n/2) Y(n+m)
    [L(n), M(m)] = m M(n+m)
    [Y(n), Y(m)] = (m - n) M(n+m)
    [Y, M] = [M, M] = [., C] = 0

Elements, brackets and the nilpotent exponentials below are always exact;
windows only bound which test cases get enumerated, never the arithmetic.
Elements stay zero-free: a composite such as ``exp_ad`` is built in one
term dict, and a term is dropped the moment it cancels.
"""

from __future__ import annotations

import functools

from .scalar import ONE, Scalar, ZERO, add_into, add_product, format_scalar, graded_system, nullspace

__all__ = [
    "Record",
    "BasisVector",
    "Element",
    "Window",
    "L",
    "Y",
    "M",
    "C",
    "ZERO_ELEMENT",
    "single",
    "bracket",
    "bracket_basis",
    "exp_ad",
    "jacobi_residual",
    "centralizer_window",
    "format_element",
]

_KIND_ORDER = {"L": 0, "Y": 1, "M": 2, "C": 3}
_INTERNED: dict[tuple[str, int], "BasisVector"] = {}


class Record:
    """An immutable value whose fields are its ``__slots__``, in order.

    A subclass checks its arguments once in ``__init__`` and hands the field
    values to ``_store``, which also keeps them as one tuple.  Equality and
    hash compare that tuple between instances of one class, the repr is the
    dataclass one, and ``__reduce__`` (for copies and pickles) and
    ``replace(**changes)`` rebuild through ``__init__``, so every check runs
    again.
    """

    __slots__ = ("_values",)

    def _store(self, *values) -> None:
        object.__setattr__(self, "_values", values)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of immutable {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return (type(self), self._values)

    def replace(self, **changes):
        """A copy with ``changes`` applied, built and checked by ``__init__``."""
        return type(self)(**dict(zip(self.__slots__, self._values), **changes))


class BasisVector:
    """One of L[n], Y[n], M[n] or the central C (which carries no index).

    Interned: construction returns the one instance for each ``(kind, index)``,
    so equality is identity.  Dict lookups and the ``bracket_basis`` cache then
    use the built-in identity hash, where a generated ``__hash__`` and
    ``__eq__`` would run in Python on every probe of the bracket loops.
    ``degree``, the gradation degree (the index for L/Y/M, zero for C), is a
    read-only slot set once at interning, so reading it runs no Python code.
    """

    __slots__ = ("kind", "index", "degree")

    def __new__(cls, kind: str, index: int = 0) -> "BasisVector":
        # bool is a subclass of int and 1.0 == 1: either would hit or seed the
        # entry for the int index, so only an exact int may look it up
        if index.__class__ is not int:
            raise TypeError(f"basis index must be an int, not {index!r}")
        interned = _INTERNED.get((kind, index))
        if interned is not None:
            return interned
        if kind not in _KIND_ORDER:
            raise ValueError(f"unknown basis kind {kind!r}")
        if kind == "C" and index != 0:
            raise ValueError("C carries no index")
        self = object.__new__(cls)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "degree", 0 if kind == "C" else index)
        return _INTERNED.setdefault((kind, index), self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of immutable BasisVector")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of immutable BasisVector")

    def __reduce__(self):
        return (BasisVector, (self.kind, self.index))

    def __repr__(self) -> str:
        return f"BasisVector(kind={self.kind!r}, index={self.index!r})"

    def sort_key(self) -> tuple[int, int]:
        return (_KIND_ORDER[self.kind], self.index)

    def __str__(self) -> str:
        return "C" if self.kind == "C" else f"{self.kind}[{self.index}]"


def L(n: int) -> BasisVector:
    return BasisVector("L", n)


def Y(n: int) -> BasisVector:
    return BasisVector("Y", n)


def M(n: int) -> BasisVector:
    return BasisVector("M", n)


C = BasisVector("C")


def _checked_term(term) -> tuple[BasisVector, Scalar]:
    bv, coeff = term
    # check the key before a zero coefficient would drop it unseen
    if bv.__class__ is not BasisVector:
        raise TypeError(f"element terms must be keyed by BasisVector, not {bv!r}")
    return bv, Scalar.coerce(coeff)


class Element:
    """Finitely supported linear combination of basis vectors over Scalar.

    Kept zero-free, so structural equality is semantic equality.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        self._terms = add_into({}, map(_checked_term, items))

    @classmethod
    def _wrap(cls, clean: dict[BasisVector, Scalar]) -> "Element":
        out = object.__new__(cls)
        out._terms = clean
        return out

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, bv: BasisVector) -> Scalar:
        return self._terms.get(bv, ZERO)

    def terms(self) -> list[tuple[BasisVector, Scalar]]:
        return sorted(self._terms.items(), key=lambda t: t[0].sort_key())

    def support(self) -> set[BasisVector]:
        return set(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return Element._wrap(add_into(dict(self._terms), other._terms.items()))

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return Element._wrap(add_into(dict(self._terms), other._terms.items(), -1))

    def __neg__(self) -> "Element":
        return Element._wrap({bv: -cf for bv, cf in self._terms.items()})

    def __mul__(self, factor) -> "Element":
        factor = Scalar.coerce(factor)
        if not factor:
            return ZERO_ELEMENT
        return Element._wrap({bv: cf * factor for bv, cf in self._terms.items()})

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"<Element {format_element(self)}>"


ZERO_ELEMENT = Element()


# One unit element per basis vector that ``single`` was asked for; it grows
# only as the interned basis vectors do.
_UNITS: dict[BasisVector, Element] = {}


def single(bv: BasisVector, coeff=ONE) -> Element:
    """The element ``coeff * bv``.

    With the default coefficient ``ONE`` this is the one shared unit element
    of ``bv``, built on first use; that is safe because no code writes into an
    element's terms once it is built.  Any other coefficient builds a new element.
    A key that is not a ``BasisVector`` is refused as ``Element`` refuses it,
    checked when a unit is first built, so a cached unit costs no check.
    """
    if coeff is ONE:
        unit = _UNITS.get(bv)
        if unit is None:
            unit = _UNITS[bv] = Element([(bv, ONE)])
        return unit
    bv, coeff = _checked_term((bv, coeff))
    return Element._wrap({bv: coeff}) if coeff else ZERO_ELEMENT


_FLIP_SIGNS = str.maketrans("+-", "-+")


def format_element(x: Element) -> str:
    """Canonical text form: terms in basis order, unit coefficients elided."""
    if x.is_zero():
        return "0"
    pieces: list[str] = []
    for bv, cf in x.terms():
        # format_scalar's text leads with "-" exactly when re < 0, or re == 0 and im < 0
        text = format_scalar(cf)
        negative = text[0] == "-"
        if negative:
            # -cf's text: the same digits with the leading sign dropped and the inner one flipped
            text = text[1:].translate(_FLIP_SIGNS)
        if "+" in text or "-" in text:
            text = f"({text})"
        body = str(bv) if text == "1" else f"{text}*{bv}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f" - {body}" if negative else f" + {body}")
    return "".join(pieces)


# Terms of a parsed element, and entries of an automorphism's b or c.  The
# bracket of two sums is quadratic in their terms, so one command then runs
# at most _MAX_BRACKETS basis brackets, and the cache keeps that many.
_MAX_TERMS = 256
_MAX_BRACKETS = _MAX_TERMS**2


@functools.lru_cache(maxsize=_MAX_BRACKETS)
def bracket_basis(a: BasisVector, b: BasisVector) -> Element:
    """Bracket of two basis vectors, straight from the structure constants."""
    ka, kb = a.kind, b.kind
    if ka == "C" or kb == "C":
        return ZERO_ELEMENT
    if ka != "L" and kb == "L":
        return -bracket_basis(b, a)
    n, m = a.index, b.index
    if ka == "L" and kb == "L":
        terms: list[tuple[BasisVector, Scalar]] = []
        if m != n:
            terms.append((L(n + m), Scalar(m - n)))
        if n + m == 0:
            central = Scalar(n**3 - n) / 12
            if central:
                terms.append((C, central))
        return Element(terms)
    if ka == "L" and kb == "Y":
        cf = Scalar(2 * m - n) / 2
        return Element([(Y(n + m), cf)]) if cf else ZERO_ELEMENT
    if ka == "L" and kb == "M":
        return Element([(M(n + m), m)]) if m else ZERO_ELEMENT
    if ka == "Y" and kb == "Y":
        return Element([(M(n + m), m - n)]) if m != n else ZERO_ELEMENT
    return ZERO_ELEMENT


def _bracket_into(acc: dict, x: Element, y: Element, factor=None) -> dict:
    """Add ``[x, y]``, times ``factor`` if given, into ``acc`` as ``add_into`` does.

    Each term ``k*v`` of a basis bracket ``[a, b]`` adds ``k*ca*cb`` to ``v``
    through ``add_product``, which builds one scalar per term.  ``ca`` is
    scaled by ``factor`` once, when its first nonzero basis bracket needs it."""
    for a, ca in x._terms.items():
        scaled = ca if factor is None else None
        for b, cb in y._terms.items():
            base = bracket_basis(a, b)._terms
            if base:
                if scaled is None:
                    scaled = ca * factor
                for v, k in base.items():
                    total = add_product(acc.get(v), k, scaled, cb)
                    if total is None:
                        acc.pop(v, None)
                    else:
                        acc[v] = total
    return acc


def bracket(x: Element, y: Element) -> Element:
    """Bilinear extension of the basis bracket table."""
    return Element._wrap(_bracket_into({}, x, y))


_HALF = ONE / 2


def _check_bracket_work(text: str, x: Element, y: Element) -> None:
    if (work := len(x._terms) * len(y._terms)) > _MAX_BRACKETS:
        raise ValueError(
            f"exp_ad too large: {text} needs {work} basis brackets, over the limit of {_MAX_BRACKETS}"
        )


def exp_ad(x: Element, target: Element) -> Element:
    """Apply exp(ad x) to ``target`` for x supported on Y and M terms.

    On that span ``(ad x)^3 = 0`` on the whole algebra, so the series is the
    exact polynomial ``target + [x, t] + [x, [x, t]]/2``.  The first bracket
    runs ``|x| * |t|`` basis brackets and the second ``|x| * |[x, t]|``; a
    bracket over ``_MAX_BRACKETS`` is refused with a ValueError before any of
    its basis brackets runs.
    """
    for bv in x._terms:
        if bv.kind not in ("Y", "M"):
            raise ValueError(f"ad not nilpotent / not in inner radical: {bv}")
    _check_bracket_work("[x, t]", x, target)
    first = bracket(x, target)
    if first.is_zero():
        return target
    _check_bracket_work("[x, [x, t]]", x, first)
    acc = add_into(dict(target._terms), first._terms.items())
    return Element._wrap(_bracket_into(acc, x, first, _HALF))


def jacobi_residual(x: Element, y: Element, z: Element) -> Element:
    """[[x,y],z] + [[y,z],x] + [[z,x],y]; zero whenever the table is a Lie bracket.

    Each double bracket is expanded by bilinearity into one term dict: every
    basis bracket ``[a, b]`` of the inner pair is bracketed with the outer
    operand at once, so no inner bracket is built as an element.
    """
    acc: dict[BasisVector, Scalar] = {}
    for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
        for a, ca in p._terms.items():
            for b, cb in q._terms.items():
                inner = bracket_basis(a, b)
                if inner._terms:
                    _bracket_into(acc, inner, r, ca * cb)
    return Element._wrap(acc)


class Window(Record):
    """Enumeration bound |index| <= radius for tests; never truncates arithmetic."""

    __slots__ = ("radius",)

    def __init__(self, radius: int) -> None:
        # True == 1 and 2.0 == 2 would pass the bound and share an int's hash
        if radius.__class__ is not int:
            raise TypeError(f"window radius must be an int, not {radius!r}")
        if radius < 1:
            raise ValueError("window radius must be at least 1")
        self._store(radius)

    def vectors(self) -> tuple[BasisVector, ...]:
        """L[-r..r], then Y[-r..r], M[-r..r] and C: one shared tuple per radius."""
        return _window_vectors(self.radius)

    def contains(self, x: Element) -> bool:
        return all(abs(bv.index) <= self.radius for bv in x._terms)


@functools.lru_cache(maxsize=16)
def _window_vectors(radius: int) -> tuple[BasisVector, ...]:
    span = range(-radius, radius + 1)
    return (*(BasisVector(kind, n) for kind in ("L", "Y", "M") for n in span), C)


def _normalized(e: Element) -> Element:
    lead = e.terms()[0][1]
    return e if lead == ONE else e * lead.inverse()


def centralizer_window(window: Window) -> list[Element]:
    """Exact basis of the in-window vectors commuting with every in-window generator."""
    gens = window.vectors()

    def tests(d, block):
        for g in gens:
            yield g, g.degree, ((bv, bracket_basis(bv, g)._terms.items()) for bv in block)

    system = graded_system(gens, [bv.degree for bv in gens], tests)
    basis = [_normalized(Element(zip(gens, vec))) for vec in nullspace(system)]
    return sorted(basis, key=lambda e: e.terms()[0][0].sort_key())
