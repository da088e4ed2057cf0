"""Property tests: the element parser against the canonical printer.

Kept apart from test_expr.py so that a missing hypothesis skips only these.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

from svlie.algebra import BasisVector, C, Element, format_element  # noqa: E402
from svlie.expr import MAX_INDEX, parse_element  # noqa: E402
from svlie.scalar import ParseError, Scalar  # noqa: E402

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
