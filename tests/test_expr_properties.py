"""Property tests: the element parser against the canonical printer, and each
reader against its scanner.

Kept apart from test_expr.py so that a missing hypothesis skips only these.
"""

import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

from svlie.algebra import BasisVector, C, Element, Window, format_element  # noqa: E402
from svlie.autgroup import AutomorphismParams  # noqa: E402
from svlie.derivations import WindowMap  # noqa: E402
from svlie.expr import MAX_INDEX, _scanned_basis_vector, _scanned_element, parse_basis_vector  # noqa: E402
from svlie.expr import parse_element, params_to_json, window_map_to_json  # noqa: E402
from svlie.scalar import ParseError, Scalar, _scanned_scalar, format_scalar, parse_scalar  # noqa: E402

rationals = st.builds(
    Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**20)
)
scalars = st.builds(Scalar, rationals, rationals | st.just(Fraction(0)))
basis_vectors = st.one_of(
    st.builds(BasisVector, st.sampled_from("LYM"), st.integers(-MAX_INDEX, MAX_INDEX)),
    st.just(C),
)
elements = st.lists(st.tuples(basis_vectors, scalars), max_size=6).map(Element)
# each is a decimal digit to str.isdigit, and none is ASCII
foreign_digits = st.sampled_from("²٣߄০１")


@given(elements)
def test_parse_inverts_format(x):
    assert parse_element(format_element(x)) == x


def _fraction_rule(x: Element) -> str:
    """The reference spelling, reading each sign off the ``Fraction`` parts
    ``.re`` and ``.im``: a term is negative when re < 0, or re == 0 and im < 0,
    and a magnitude equal to 1 is elided."""
    pieces = []
    for bv, cf in x.terms():
        negative = (cf.re < 0) if cf.re else (cf.im < 0)
        magnitude = -cf if negative else cf
        if magnitude == Scalar(1):
            body = str(bv)
        else:
            text = format_scalar(magnitude)
            body = f"({text})*{bv}" if "+" in text or "-" in text else f"{text}*{bv}"
        sign = ("-" if negative else "") if not pieces else (" - " if negative else " + ")
        pieces.append(sign + body)
    return "".join(pieces) or "0"


# parts in {-2, ..., 2} over {1, 2}: units, pure imaginaries and every sign pair are common
unit_scale_scalars = st.builds(
    Scalar, st.fractions(-2, 2, max_denominator=2), st.fractions(-2, 2, max_denominator=2)
)
mixed_elements = st.lists(
    st.tuples(basis_vectors, scalars | unit_scale_scalars), max_size=6
).map(Element)


@given(mixed_elements)
@hypothesis.example(Element([(BasisVector("Y", 1), Scalar(-1, 2))]))  # -(1-2i)*Y[1]
@hypothesis.example(Element([(BasisVector("L", 0), Scalar(0, -1)), (C, Scalar(0, -3))]))
@hypothesis.example(Element([(BasisVector("M", 2), -1), (C, 1)]))
def test_format_spells_each_term_as_the_fraction_rule(x):
    assert format_element(x) == _fraction_rule(x)


@given(elements, foreign_digits, st.data())
def test_a_non_ascii_digit_is_a_parse_error_at_its_offset(x, digit, data):
    text = format_element(x)
    offsets = [i for i, ch in enumerate(text) if ch in "0123456789"]
    hypothesis.assume(offsets)
    offset = data.draw(st.sampled_from(offsets))
    spliced = text[:offset] + digit + text[offset + 1 :]
    with pytest.raises(ParseError) as exc:
        parse_element(spliced)
    assert exc.value.offset == offset


READERS = (
    (parse_element, _scanned_element),
    (parse_scalar, _scanned_scalar),
    (parse_basis_vector, _scanned_basis_vector),
)
# every character the printers write, whitespace they do not, a non-ASCII digit
# and one character no reader takes
EDIT_CHARACTERS = "0123456789/+-*()[]iLYMC \t\xa0٣#"
small_scalars = st.builds(Scalar, st.fractions(max_denominator=9), st.fractions(max_denominator=9))
params = st.builds(
    AutomorphismParams,
    b=st.dictionaries(st.integers(-3, 3).filter(bool), small_scalars, max_size=2),
    c=st.dictionaries(st.integers(-3, 3).filter(bool), small_scalars, max_size=2),
    i=st.sampled_from((0, 1)),
    u=small_scalars.filter(bool),
    w=small_scalars.filter(bool),
    alpha=small_scalars,
    beta=small_scalars,
    gamma=small_scalars,
)


def _json_strings(data) -> list[str]:
    """Every key and string value of a JSON object, as the decoders read them."""
    out = []
    for key, value in json.loads(json.dumps(data)).items():
        out.append(key)
        if isinstance(value, dict):
            out.extend(_json_strings(value))
        elif isinstance(value, str):
            out.append(value)
    return out


@st.composite
def window_map_strings(draw) -> list[str]:
    window = Window(draw(st.integers(1, 2)))
    images = {bv: draw(elements) for bv in window.vectors()}
    return _json_strings(window_map_to_json(WindowMap(window, images)))


printed = st.one_of(
    elements.map(format_element),
    scalars.map(format_scalar),
    basis_vectors.map(str),
    params.map(params_to_json).map(_json_strings).flatmap(st.sampled_from),
    window_map_strings().flatmap(st.sampled_from),
)
edits = st.lists(
    st.tuples(st.sampled_from(("insert", "delete", "replace")), st.integers(0, 10**6), st.sampled_from(EDIT_CHARACTERS)),
    min_size=1,
    max_size=3,
)


def _edited(text: str, changes) -> str:
    for kind, where, ch in changes:
        at = where % (len(text) + 1)
        if kind == "insert":
            text = text[:at] + ch + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + ch + text[at + 1 :]
    return text


def _outcome(read, text):
    """The value ``read`` returns for ``text``, or its ParseError's offset and message."""
    try:
        return "value", read(text)
    except ParseError as err:
        return "error", err.offset, str(err)


@given(printed, edits)
def test_each_reader_ends_as_its_scanner_does(text, changes):
    for candidate in (text, _edited(text, changes)):
        for read, scan in READERS:
            assert _outcome(read, candidate) == _outcome(scan, candidate), (read.__name__, candidate)
