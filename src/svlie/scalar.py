"""Exact Gaussian-rational scalars, their text codec and a sparse exact solver.

Every coefficient in this package is a Gaussian rational ``(a + b*i)/d``
held as one tuple of three integers in canonical form: ``d > 0`` and
``gcd(a, b, d) == 1``, with zero stored as ``(0, 0, 1)``.  Arithmetic divides
out one ``math.gcd`` per result, so equal values have equal triples; its two
accumulation steps are ``add_product`` (a bracket's ``prev + k*x*y`` in one
reduction) and ``add_into`` (scaled entries into a zero-free dict).  The text
codec prints and reads the canonical spelling exactly.  The solver keeps its
rows sparse and eliminates each by its lowest nonzero column with ``add_into``;
a row left with one entry becomes its pivot row as ``{}`` with no arithmetic,
and the ungraded-entry check reads each entry's ``BasisVector.degree``, a
slot set once at interning.  Nothing here rounds: ``==`` is the only notion
of equality.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

__all__ = [
    "Scalar",
    "LinearSystem",
    "ParseError",
    "ZERO",
    "ONE",
    "I",
    "format_scalar",
    "parse_scalar",
    "SCALAR_SPELLING",
    "spelled_scalar",
    "scan_scalar",
    "scan_simple_scalar",
    "graded_system",
    "nullspace",
    "add_product",
    "add_into",
]


class ParseError(ValueError):
    """Syntax error in the scalar or element text codecs."""

    def __init__(self, offset: int, expected: str):
        super().__init__(f"syntax error at offset {offset}: expected {expected}")
        self.offset = offset
        self.expected = expected


class Scalar:
    """A Gaussian rational ``re + im*i``; immutable and always canonical.

    Stored in one slot as the integer triple ``_t = (a, b, d)`` meaning
    ``(a + b*i)/d``, with ``d > 0`` and ``gcd(a, b, d) == 1`` (zero is
    ``(0, 0, 1)``), so a new value is one object with one tuple, and ``==``
    and ``hash`` compare that tuple.  ``re`` and ``im`` are read back as
    :class:`fractions.Fraction`.  Arithmetic accepts ``int`` and
    ``Fraction`` operands on either side.
    """

    __slots__ = ("_t",)

    def __init__(self, re=0, im=0):
        if re.__class__ is int and im.__class__ is int:
            _set(self, (re, im, 1))
            return
        # Fraction() would also read a float or a string in silence; coerce refuses them too
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"Scalar parts must be int or Fraction, not {type(part).__name__}")
        dr, di = re.denominator, im.denominator
        a, b, d = re.numerator * di, im.numerator * dr, dr * di
        g = gcd(a, b, d)
        _set(self, (a // g, b // g, d // g))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of immutable Scalar")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of immutable Scalar")

    def __reduce__(self):
        return (_make, self._t)

    @property
    def re(self) -> Fraction:
        a, _, d = self._t
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._t
        return Fraction(b, d)

    @classmethod
    def coerce(cls, value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot interpret {value!r} as a scalar")

    def __bool__(self) -> bool:
        return self._t != _ZERO_T

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        return self._t == other._t

    def __hash__(self) -> int:
        return hash(self._t)

    def __repr__(self) -> str:
        return f"Scalar(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        return format_scalar(self)

    def __add__(self, other):
        if other.__class__ is Scalar:
            c, e, f = other._t
        else:
            parts = _parts(other)
            if parts is None:
                return NotImplemented
            c, e, f = parts
        a, b, d = self._t
        if d == f:
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        # refuse here, so an unsupported operand is reported for -, not for +
        if other.__class__ is not Scalar and _parts(other) is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        if _parts(other) is None:
            return NotImplemented
        return -self + other

    def __neg__(self):
        a, b, d = self._t
        return _make(-a, -b, d)

    def __mul__(self, other):
        t = self._t
        if other.__class__ is Scalar:
            u = other._t
            # a unit factor returns the other operand itself; scalars are immutable
            if u == _ONE_T:
                return self
            if t == _ONE_T:
                return other
            c, e, f = u
        elif other.__class__ is int:
            a, b, d = t
            # gcd(a*k, b*k, d) == gcd(k, d) because gcd(a, b, d) == 1
            g = gcd(other, d)
            k = other // g
            return _make(a * k, b * k, d // g)
        else:
            parts = _parts(other)
            if parts is None:
                return NotImplemented
            c, e, f = parts
        a, b, d = t
        if not e:
            return _reduced(a * c, b * c, d * f)
        if not b:
            return _reduced(a * c, a * e, d * f)
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        a, b, d = self._t
        norm = a * a + b * b
        if not norm:
            raise ZeroDivisionError("scalar division by zero")
        return _reduced(a * d, -b * d, norm)

    def __truediv__(self, other):
        if other.__class__ is int:
            if not other:
                raise ZeroDivisionError("scalar division by zero")
            a, b, d = self._t
            if other < 0:
                return _reduced(-a, -b, -d * other)
            return _reduced(a, b, d * other)
        return self * Scalar.coerce(other).inverse()

    def __rtruediv__(self, other):
        return Scalar.coerce(other) * self.inverse()

    def __pow__(self, exponent: int) -> "Scalar":
        if not isinstance(exponent, int):
            raise TypeError("scalar exponents must be integers")
        n = abs(exponent)
        a, b, d = self._t
        # |a| | |b| | d has the bit length of the largest component
        if n > 1 and n * (abs(a) | abs(b) | d).bit_length() > _MAX_POWER_BITS:
            # 0, +-1 and +-i do not grow under powers; anything else does
            if d != 1 or abs(a) + abs(b) > 1:
                raise ValueError(
                    f"scalar power too large: exponent {exponent} would take it past "
                    f"{_MAX_POWER_BITS} bits"
                )
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        result = ONE
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result


# The largest power ``Scalar.__pow__`` builds, in bits of its largest
# component, estimated as |exponent| times the base's largest bit length.
_MAX_POWER_BITS = 1 << 14

# The canonical triples of zero and one.
_ZERO_T = (0, 0, 1)
_ONE_T = (1, 0, 1)

# The slot setter that bypasses Scalar.__setattr__, for building new values.
_set = Scalar._t.__set__
_new = object.__new__


def _make(a: int, b: int, d: int) -> Scalar:
    """Wrap a triple that is already canonical."""
    out = _new(Scalar)
    _set(out, (a, b, d))
    return out


def _reduced(a: int, b: int, d: int) -> Scalar:
    """Canonical form of ``(a + b*i)/d`` for ``d > 0``: one gcd."""
    g = gcd(a, b, d)
    out = _new(Scalar)
    _set(out, (a, b, d) if g == 1 else (a // g, b // g, d // g))
    return out


def add_product(prev: Scalar | None, k: Scalar, x: Scalar, y: Scalar) -> Scalar | None:
    """``prev + k*x*y`` with one reduction, or ``None`` when that sum is zero.

    ``prev`` may be ``None``, read as zero.  This is the one step of a
    bracket's accumulation: it multiplies and adds the integer triples
    directly and builds only the final scalar.
    """
    a, b, d = x._t
    c, e, f = y._t
    if b or e:
        a, b = a * c - b * e, a * e + b * c
    else:
        a *= c
    p, q, r = k._t
    if q:
        a, b = p * a - q * b, p * b + q * a
    else:
        a *= p
        b *= p
    d *= f * r
    if prev is not None:
        g, h, s = prev._t
        if s == d:
            a += g
            b += h
        else:
            a, b, d = a * s + g * d, b * s + h * d, d * s
    if not a and not b:
        return None
    return _reduced(a, b, d)


def add_into(acc: dict, items, factor=None) -> dict:
    """Add each ``(key, cf)`` of ``items``, times ``factor`` if given, into ``acc``;
    an entry is dropped the moment it cancels, so a zero-free ``acc`` stays zero-free."""
    for key, cf in items:
        if factor is not None:
            cf = cf * factor
        prev = acc.get(key)
        total = cf if prev is None else prev + cf
        if total:
            acc[key] = total
        elif prev is not None:
            del acc[key]
    return acc


def _parts(value) -> tuple[int, int, int] | None:
    """The triple of an ``int`` or ``Fraction`` operand (bools included)."""
    if isinstance(value, int):
        return int(value), 0, 1
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    return None


ZERO = Scalar()
ONE = Scalar(1)
I = Scalar(0, 1)


def format_scalar(x: Scalar) -> str:
    """Canonical text form: ``parse_scalar(format_scalar(x)) == x`` exactly."""
    a, b, d = x._t
    if not b:
        return _ratio_text(a, d)
    imag = _ratio_text(abs(b), d) + "i"
    if not a:
        return imag if b > 0 else "-" + imag
    return _ratio_text(a, d) + ("+" if b > 0 else "-") + imag


def _ratio_text(n: int, d: int) -> str:
    """``n/d`` in lowest terms, spelled as ``str(Fraction(n, d))`` spells it."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


# An unsigned fraction: a numerator run and, after an optional '/', a
# denominator run.  Either run may be empty here; _digit_run checks it.
# Digits are ASCII [0-9] only (\d would take every Unicode decimal digit),
# and on str \s accepts exactly the characters str.isspace() accepts.
_fraction = re.compile(r"([0-9]*)(?:\s*/\s*([0-9]*))?").match


# The longest numerator or denominator accepted, in decimal digits: int()
# refuses longer strings under the interpreter's default conversion limit.
_MAX_DIGITS = 4300


def _digit_run(run: str, start: int, limit: int = _MAX_DIGITS) -> int:
    """The value of ``run``, the ASCII digits scanned at ``start``; it must hold 1 to ``limit``."""
    if not run:
        raise ParseError(start, "digit")
    if len(run) > limit:
        raise ParseError(start, f"at most {limit} digits")
    return int(run)


def _scan_ratio(text: str, pos: int) -> tuple[int, int, int]:
    """Numerator, denominator and end of the unsigned fraction ``p[/q]`` at ``pos``."""
    m = _fraction(text, pos)
    p = _digit_run(m[1], pos)
    if m[2] is None:
        return p, 1, m.end()
    start = m.start(2)
    q = _digit_run(m[2], start)
    if not q:
        raise ParseError(start, "nonzero denominator")
    return p, q, m.end()


def scan_scalar(text: str, pos: int = 0) -> tuple[Scalar, int]:
    """Scan one scalar starting at ``pos``; returns (value, end position).

    Accepted forms: ``p``, ``p/q``, ``p/q i``, ``p/q+r/s i``, ``p/q-r/s i``,
    each with an optional leading sign; denominator 1 may be omitted and
    whitespace between atoms is ignored.
    """
    pos = _skip_ws(text, pos)
    sign = text[pos : pos + 1]
    if sign == "-" or sign == "+":
        pos = _skip_ws(text, pos + 1)
    p, q, pos = _scan_ratio(text, pos)
    if sign == "-":
        p = -p
    after = _skip_ws(text, pos)
    op = text[after : after + 1]
    if op == "i":
        return _reduced(0, p, q), after + 1
    if op == "+" or op == "-":
        r, s, pos = _scan_ratio(text, _skip_ws(text, after + 1))
        pos = _skip_ws(text, pos)
        if not text.startswith("i", pos):
            raise ParseError(pos, "'i'")
        return _reduced(p * s, (r if op == "+" else -r) * q, q * s), pos + 1
    return _reduced(p, 0, q), pos


def scan_simple_scalar(text: str, pos: int) -> tuple[Scalar, int]:
    """Scan an unsigned one-piece scalar ``p[/q][i]`` (no inner signs)."""
    p, q, pos = _scan_ratio(text, pos)
    after = _skip_ws(text, pos)
    if text.startswith("i", after):
        return _reduced(0, p, q), after + 1
    return _reduced(p, 0, q), pos


# The printer's spelling of a scalar after its sign, as format_scalar writes
# it: a ratio p[/q], then 'i' or a sign, a second ratio r[/s] and 'i'.  It
# holds no whitespace, and each run of 1 to _MAX_DIGITS ASCII digits is
# followed only by a non-digit, so a failed match gives each run back once and
# takes linear time.  The element reader embeds it for a term's coefficient.
_RATIO = f"([0-9]{{1,{_MAX_DIGITS}}})(?:/([0-9]{{1,{_MAX_DIGITS}}}))?"
SCALAR_SPELLING = f"{_RATIO}(?:(i)|([+-]){_RATIO}i)?"
_spelled = re.compile(f"(-?){SCALAR_SPELLING}").fullmatch


def spelled_scalar(negative, p: str, q: str | None, imag: str | None, op: str | None,
                   r: str | None, s: str | None) -> Scalar | None:
    """The value of the digit runs ``SCALAR_SPELLING`` matched, with ``p`` negated
    if ``negative``; ``None`` for a zero denominator, which the scanner reports."""
    a = -int(p) if negative else int(p)
    d = int(q) if q else 1
    if op is None:
        if not d:
            return None
        return _reduced(0, a, d) if imag else _reduced(a, 0, d)
    b = int(r)
    e = int(s) if s else 1
    if not (d and e):
        return None
    return _reduced(a * e, (b if op == "+" else -b) * d, d * e)


def parse_scalar(text: str) -> Scalar:
    """Parse a complete scalar string; rejects trailing input.

    One match reads the printer's spelling; any other text goes to the scanner."""
    m = _spelled(text)
    if m is not None:
        value = spelled_scalar(*m.groups())
        if value is not None:
            return value
    return _scanned_scalar(text)


def _scanned_scalar(text: str) -> Scalar:
    """``parse_scalar`` by the scanner alone, the source of every error."""
    value, pos = scan_scalar(text, 0)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ParseError(pos, "end of scalar")
    return value


class LinearSystem:
    """Exact linear equations over columns ``0 .. cols - 1`` in echelon form, as
    ``graded_system`` returns them.

    ``pivots`` maps each lead column to its row right of the lead 1, a dict of the
    nonzero Gaussian-rational entries; ``rows`` counts them, the rank.
    """

    __slots__ = ("cols", "pivots")

    def __init__(self, cols: int, pivots: dict[int, dict[int, Scalar]]):
        self.cols = cols
        self.pivots = pivots

    @property
    def rows(self) -> int:
        return len(self.pivots)


def _reduce_row(pivots: dict[int, dict[int, Scalar]], row: dict[int, Scalar]) -> None:
    """Reduce ``row`` (consumed) against ``pivots``, each pivot column's row right of its pivot 1;
    unless it vanishes, it becomes the pivot row of its lead (lowest) column, scaled to lead with 1."""
    while row:
        lead = min(row)
        factor = row.pop(lead)
        tail = pivots.get(lead)
        if tail is None:
            # a one-entry row's tail is empty whatever its lead, so it needs no scaling
            if row and factor != ONE:
                inv = factor.inverse()
                row = {c: cf * inv for c, cf in row.items()}
            pivots[lead] = row
            return
        # a one-entry pivot row has an empty tail: skip building -factor
        if tail:
            add_into(row, tail.items(), -factor)


def graded_system(cols, degrees, tests) -> LinearSystem:
    """The pivot rows of ``tests`` over ``cols``, of degrees ``degrees``, read one degree at a time.

    ``degrees`` gives one degree per column (else ValueError).  ``tests(d, block)``
    yields ``(test, shift, constraints)`` for the columns ``block`` of degree ``d``:
    each ``(col, terms)`` adds every ``(v, cf)`` of ``terms`` at row ``(test, v)``,
    column ``col``; ``v`` must lie in degree ``d + shift`` (else ValueError).  Each
    test's rows are reduced into the pivots once complete, and ``d`` reads no more
    tests once its rank is full, so a caller should yield its most decisive tests
    first; an entry in a test never read cannot raise the ungraded-entry error.
    This is the only elimination: the pivot rows span the row space of every test,
    and ``nullspace`` only back-substitutes them, so row order, duplicate rows and
    scaled rows do not change the kernel basis."""
    index = {col: i for i, col in enumerate(cols)}
    blocks: dict[int, list] = {}
    for col, d in zip(cols, degrees, strict=True):
        blocks.setdefault(d, []).append(col)
    pivots: dict[int, dict[int, Scalar]] = {}  # columns of different degrees never share a lead
    for d in sorted(blocks):
        block = blocks[d]
        full = len(pivots) + len(block)
        for test, shift, constraints in tests(d, block):
            target, rows = d + shift, {}
            for col, terms in constraints:
                i = index[col]
                for v, cf in terms:
                    if v.degree != target:
                        raise ValueError(f"ungraded entry {v} in test {test}: expected degree {target}")
                    # add_into inlined: entries arrive one at a time, and a call each made hom ~5% slower
                    row = rows.setdefault(v, {})
                    prev = row.get(i)
                    total = cf if prev is None else prev + cf
                    if total:
                        row[i] = total
                    elif prev is not None:
                        del row[i]
            for row in rows.values():
                _reduce_row(pivots, row)
            if len(pivots) == full:
                break
    return LinearSystem(len(index), pivots)


def nullspace(system: LinearSystem) -> list[list[Scalar]]:
    """Exact basis of the kernel of ``system``; empty list iff the kernel is trivial.

    Back-substitution of the pivot rows gives one vector per free column, with 1 on
    that column and 0 on the other free columns.  ``system`` is left unchanged.
    """
    cols, pivots = system.cols, system.pivots
    descending = sorted(pivots, reverse=True)
    basis: list[list[Scalar]] = []
    for free in range(cols):
        if free in pivots:
            continue
        vec = [ZERO] * cols
        vec[free] = ONE
        for pc in descending:
            if pc > free:
                continue
            acc = ZERO
            for c, cf in pivots[pc].items():
                v = vec[c]
                if v:
                    acc = acc + cf * v
            if acc:
                vec[pc] = -acc
        basis.append(vec)
    return basis
