"""The one reader of outside input: element expressions and the JSON codecs.

Element and basis-vector text follow the recursive-descent grammar

    element := ['-'] term (('+'|'-') term)*
    term    := [scalar '*'] basis | scalar
    basis   := ('L'|'Y'|'M') '[' signed-integer ']' | 'C'

A signed-integer is ASCII digits, at most as many as MAX_INDEX has.
Whitespace is ignored between tokens, and a scalar coefficient must be
parenthesized whenever its text contains '+' or '-'.  A bare scalar term is
only meaningful when the scalar part of the whole expression cancels to
zero ("0" denotes the zero element); any other bare scalar is rejected.
The canonical printer lives in :mod:`svlie.algebra`; ``parse_element`` is
its exact inverse.  Each reader first takes the printers' own spelling with
one compiled match per element term, or per whole basis-vector or scalar
text, and builds the value from the matched digit runs.  Any text that step
does not take in full goes to the token scanner from the start, so values,
errors and offsets are the scanner's either way.

The JSON codecs write and read automorphism parameters, window maps and
classified derivations.  Each decoder opens with ``_fields``, which refuses a
missing or unknown field.  No engine module imports this one.
"""

from __future__ import annotations

import re

from .algebra import BasisVector, C, Element, Window, _MAX_TERMS, format_element
from .autgroup import AutomorphismParams
from .derivations import ClassifiedDerivation, WindowMap
from .scalar import ONE, ParseError, Scalar, ZERO, _digit_run, _skip_ws, format_scalar, parse_scalar
from .scalar import SCALAR_SPELLING, scan_scalar, scan_simple_scalar, spelled_scalar

__all__ = ["parse_element", "parse_basis_vector", "MAX_INDEX", "params_to_json", "params_from_json",
           "window_map_to_json", "window_map_from_json", "classified_to_json", "classified_from_json"]

# Basis indices are capped to a machine range even though Python integers
# are unbounded; wildly large indices are always a typo.
MAX_INDEX = 2**63 - 1

# The coefficient of a basis term written without one after '-' (ONE otherwise).
_MINUS_ONE = Scalar(-1)


# The text from a basis kind to its ']'.  Every piece may match empty, so
# the start of the first piece that is missing or malformed is the offset of
# the error, as a scan of one token at a time would report it.
_basis = re.compile(r"\s*(\[?)\s*([+-]?)\s*([0-9]*)\s*(\]?)").match


# The printers' spelling of a basis vector, and of one element term: an
# optional coefficient, '*', the basis vector, then ' + ', ' - ' or the end of
# the text.  The only whitespace is the separator's two fixed spaces, and every
# digit run is followed only by a non-digit, so a failed match is linear.  A
# coefficient with an inner sign must be parenthesized; parse_element checks that.
_BASIS = rf"(?:([LYM])\[(-?[0-9]{{1,{len(str(MAX_INDEX))}}})\]|C)"
_spelled_basis = re.compile(_BASIS).fullmatch
_spelled_term = re.compile(rf"(?:(\()?{SCALAR_SPELLING}(?(1)\))\*)?{_BASIS}(?: ([+-]) |\Z)").match


def _basis_vector(kind: str | None, run: str) -> BasisVector | None:
    """The basis vector ``_BASIS`` matched, or ``None`` past MAX_INDEX."""
    if kind is None:
        return C
    value = int(run)
    return BasisVector(kind, value) if -MAX_INDEX <= value <= MAX_INDEX else None


def _index(run: str, start: int) -> int:
    """The value of the index digits ``run`` scanned at ``start``: 1 to 19 ASCII digits within MAX_INDEX."""
    value = _digit_run(run, start, len(str(MAX_INDEX)))
    if value > MAX_INDEX:
        raise ParseError(start, f"index within +/-{MAX_INDEX}")
    return value


def _scan_basis(text: str, pos: int) -> tuple[BasisVector, int]:
    kind = text[pos]
    if kind == "C":
        return C, pos + 1
    m = _basis(text, pos + 1)
    bracket, sign, run, close = m.groups()
    if not bracket:
        raise ParseError(m.start(1), "'['")
    value = _index(run, m.start(3))
    if not close:
        raise ParseError(m.start(4), "']'")
    return BasisVector(kind, -value if sign == "-" else value), m.end()


def parse_basis_vector(text: str) -> BasisVector:
    """Parse a complete basis-vector string such as "L[-3]" or "C"."""
    m = _spelled_basis(text)
    bv = _basis_vector(*m.groups()) if m else None
    return _scanned_basis_vector(text) if bv is None else bv


def _scanned_basis_vector(text: str) -> BasisVector:
    """``parse_basis_vector`` by the scanner alone, the source of every error."""
    pos = _skip_ws(text, 0)
    if pos >= len(text) or text[pos] not in "LYMC":
        raise ParseError(pos, "basis vector (L, Y, M or C)")
    bv, pos = _scan_basis(text, pos)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ParseError(pos, "end of basis vector")
    return bv


def parse_element(text: str) -> Element:
    """Parse an element expression; exact inverse of the canonical printer.

    One match per term of the printer's spelling; a text that leaves it or
    passes a limit (257 terms, MAX_INDEX, 4,300 digits, a zero denominator)
    goes to the scanner from the start."""
    if text == "0":
        return Element()
    terms: list[tuple[BasisVector, Scalar]] = []
    negative = text.startswith("-")
    pos = 1 if negative else 0
    while len(terms) < _MAX_TERMS:
        m = _spelled_term(text, pos)
        if m is None:
            break
        paren, p, q, imag, op, r, s, kind, run, sep = m.groups()
        bv = _basis_vector(kind, run)
        if bv is None:
            break
        if p is None:
            coeff = _MINUS_ONE if negative else ONE
        else:
            if op is not None:
                if paren is None:
                    break
                if negative:
                    op = "+" if op == "-" else "-"
            coeff = spelled_scalar(negative, p, q, imag, op, r, s)
            if coeff is None:
                break
        terms.append((bv, coeff))
        if sep is None:
            return Element(terms)
        negative = sep == "-"
        pos = m.end()
    return _scanned_element(text)


def _scanned_element(text: str) -> Element:
    """``parse_element`` by the scanner alone, the source of every error."""
    terms: list[tuple[BasisVector, Scalar]] = []
    parsed = 0
    loose = ZERO
    loose_offset = -1
    pos = _skip_ws(text, 0)
    negative = text.startswith("-", pos)
    if negative:
        pos = _skip_ws(text, pos + 1)
    while True:
        term_start = pos
        if pos >= len(text):
            raise ParseError(pos, "term (scalar or basis vector)")
        ch = text[pos]
        coeff = None
        if ch == "(":
            coeff, pos = scan_scalar(text, pos + 1)
            pos = _skip_ws(text, pos)
            if pos >= len(text) or text[pos] != ")":
                raise ParseError(pos, "')'")
            pos = _skip_ws(text, pos + 1)
        elif ch in "0123456789":
            coeff, pos = scan_simple_scalar(text, pos)
            pos = _skip_ws(text, pos)
        if coeff is not None:
            if pos < len(text) and text[pos] == "*":
                pos = _skip_ws(text, pos + 1)
                if pos >= len(text) or text[pos] not in "LYMC":
                    raise ParseError(pos, "basis vector (L, Y, M or C)")
                bv, pos = _scan_basis(text, pos)
                terms.append((bv, -coeff if negative else coeff))
            else:
                loose = loose - coeff if negative else loose + coeff
                if loose_offset < 0:
                    loose_offset = term_start
        elif ch in "LYMC":
            bv, pos = _scan_basis(text, pos)
            terms.append((bv, _MINUS_ONE if negative else ONE))
        else:
            raise ParseError(pos, "term (scalar or basis vector)")
        pos = _skip_ws(text, pos)
        if pos >= len(text):
            break
        if text[pos] not in "+-":
            raise ParseError(pos, "'+', '-' or end of element")
        parsed += 1
        if parsed == _MAX_TERMS:
            raise ParseError(pos, f"end of element (at most {_MAX_TERMS} terms)")
        negative = text[pos] == "-"
        pos = _skip_ws(text, pos + 1)
    if loose:
        raise ParseError(
            loose_offset, "'*' and a basis vector (bare scalar terms must cancel to zero)"
        )
    return Element(terms)


def _field_text(field: str, value, what: str) -> str:
    """The string a JSON field holds; a number or any other value names ``field``."""
    if type(value) is not str:
        raise TypeError(f"{field}: expected {what} string, not {type(value).__name__}")
    return value


def _fields(data: dict, required: tuple[str, ...], defaults: dict) -> dict:
    """``data`` with ``defaults`` filled in; refuses a missing required field and a key in neither."""
    for name in required:
        if name not in data:
            raise ValueError(f"missing field {name!r}")
    for key in data:
        if key not in required and key not in defaults:
            raise ValueError(f"unknown field {key!r}")
    return {**defaults, **data}


def _parse_position(key: str) -> int:
    """A b/c position key: an optional '-' and an index, nothing else."""
    start = 1 if key.startswith("-") else 0
    rest = key[start:].lstrip("0123456789")
    end = len(key) - len(rest)
    value = _index(key[start:end], start)
    if rest:
        raise ParseError(end, "end of position")
    return -value if start else value


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
    fields = _fields(data, ("u", "w"), {"b": {}, "c": {}, "i": 0, "alpha": "0", "beta": "0", "gamma": "0"})

    def scalar(field: str, value) -> Scalar:
        return parse_scalar(_field_text(field, value, "a scalar"))

    def seq(field: str) -> dict[int, Scalar]:
        raw = fields[field]
        if not isinstance(raw, dict):
            raise ValueError(f"{field} must be an object of position -> scalar")
        if len(raw) > _MAX_TERMS:
            raise ValueError(f"{field} has {len(raw)} entries, over the limit of {_MAX_TERMS}")
        values = {}
        for key, value in raw.items():
            pos = _parse_position(key)
            if pos in values:
                raise ValueError(f"{field}[{key}] repeats position {pos}")
            values[pos] = scalar(f"{field}[{key}]", value)
        return values

    scalars = (scalar(f, fields[f]) for f in ("u", "w", "alpha", "beta", "gamma"))
    return AutomorphismParams(seq("b"), seq("c"), fields["i"], *scalars)


def window_map_to_json(dmap: WindowMap) -> dict:
    """JSON form: {"radius": N, "images": {"L[1]": "<element expr>", ...}}, in basis order."""
    images = {str(bv): format_element(dmap.image(bv)) for bv in dmap.window.vectors()}
    return {"radius": dmap.window.radius, "images": images}


def window_map_from_json(data: dict) -> WindowMap:
    fields = _fields(data, ("radius", "images"), {})
    radius, raw = fields["radius"], fields["images"]
    if type(radius) is not int:
        raise ValueError("radius must be an integer")
    if not isinstance(raw, dict):
        raise ValueError("images must be an object of basis vector -> element")
    images = {}
    for key, value in raw.items():
        bv = parse_basis_vector(key)
        if bv in images:
            raise ValueError(f"images[{key}] repeats {bv}")
        images[bv] = parse_element(_field_text(f"images[{key}]", value, "an element"))
    return WindowMap(Window(radius), images)


def classified_to_json(deriv: ClassifiedDerivation) -> dict:
    return {
        "c1": format_scalar(deriv.c1),
        "c2": format_scalar(deriv.c2),
        "c3": format_scalar(deriv.c3),
        "inner": format_element(deriv.inner),
    }


def classified_from_json(data: dict) -> ClassifiedDerivation:
    fields = _fields(data, ("c1", "c2", "c3", "inner"), {})
    return ClassifiedDerivation(
        *(parse_scalar(_field_text(f, fields[f], "a scalar")) for f in ("c1", "c2", "c3")),
        parse_element(_field_text("inner", fields["inner"], "an element")),
    )
