"""Recursive-descent parser for the element expression grammar.

    element := ['-'] term (('+'|'-') term)*
    term    := [scalar '*'] basis | scalar
    basis   := ('L'|'Y'|'M') '[' signed-integer ']' | 'C'

A signed-integer is ASCII digits, at most as many as MAX_INDEX has.
Whitespace is ignored between tokens, and a scalar coefficient must be
parenthesized whenever its text contains '+' or '-'.  A bare scalar term is
only meaningful when the scalar part of the whole expression cancels to
zero ("0" denotes the zero element); any other bare scalar is rejected.
The canonical printer lives in :mod:`svlie.algebra`; ``parse_element`` is
its exact inverse.
"""

from __future__ import annotations

from .algebra import BasisVector, C, Element, _MAX_TERMS
from .scalar import ParseError, Scalar, ZERO, _scan_digits, _skip_ws, scan_scalar, scan_simple_scalar

__all__ = ["parse_element", "parse_basis_vector", "MAX_INDEX"]

# Basis indices are capped to a machine range even though Python integers
# are unbounded; wildly large indices are always a typo.
MAX_INDEX = 2**63 - 1


def _scan_basis(text: str, pos: int) -> tuple[BasisVector, int]:
    kind = text[pos]
    if kind == "C":
        return C, pos + 1
    pos = _skip_ws(text, pos + 1)
    if pos >= len(text) or text[pos] != "[":
        raise ParseError(pos, "'['")
    pos = _skip_ws(text, pos + 1)
    sign = 1
    if pos < len(text) and text[pos] in "+-":
        if text[pos] == "-":
            sign = -1
        pos = _skip_ws(text, pos + 1)
    end = _scan_digits(text, pos, len(str(MAX_INDEX)))
    value = int(text[pos:end])
    if value > MAX_INDEX:
        raise ParseError(pos, f"index within +/-{MAX_INDEX}")
    pos = _skip_ws(text, end)
    if pos >= len(text) or text[pos] != "]":
        raise ParseError(pos, "']'")
    return BasisVector(kind, sign * value), pos + 1


def parse_basis_vector(text: str) -> BasisVector:
    """Parse a complete basis-vector string such as "L[-3]" or "C"."""
    pos = _skip_ws(text, 0)
    if pos >= len(text) or text[pos] not in "LYMC":
        raise ParseError(pos, "basis vector (L, Y, M or C)")
    bv, pos = _scan_basis(text, pos)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ParseError(pos, "end of basis vector")
    return bv


def parse_element(text: str) -> Element:
    """Parse an element expression; exact inverse of the canonical printer."""
    terms: list[tuple[BasisVector, Scalar]] = []
    parsed = 0
    loose = ZERO
    loose_offset = -1
    pos = _skip_ws(text, 0)
    sign = 1
    if pos < len(text) and text[pos] == "-":
        sign = -1
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
                terms.append((bv, sign * coeff))
            else:
                loose = loose + sign * coeff
                if loose_offset < 0:
                    loose_offset = term_start
        elif ch in "LYMC":
            bv, pos = _scan_basis(text, pos)
            terms.append((bv, Scalar.coerce(sign)))
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
        sign = -1 if text[pos] == "-" else 1
        pos = _skip_ws(text, pos + 1)
    if loose:
        raise ParseError(
            loose_offset, "'*' and a basis vector (bare scalar terms must cancel to zero)"
        )
    return Element(terms)
