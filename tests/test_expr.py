from fractions import Fraction

import pytest

from svlie.algebra import C, Element, L, M, Y, format_element, single
from svlie.expr import MAX_INDEX, _parse_position, parse_basis_vector, parse_element
from svlie.scalar import ParseError, Scalar, parse_scalar
from svlie.verify import SplitMix64, random_element


def test_parse_spec_examples():
    assert parse_element("3/2*L[-1] + C") == Element(
        [(L(-1), Fraction(3, 2)), (C, 1)]
    )
    assert parse_element("(1+2i)*Y[0] - M[3]") == Element(
        [(Y(0), Scalar(1, 2)), (M(3), -1)]
    )


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse_element("L[1")
    assert err.value.offset == 3


# One row per place the element, scalar, basis-vector and position-key readers raise:
# (reader, text, offset, the text the message says was expected).
PARSE_ERRORS = [
    (parse_element, "L 1]", 2, "'['"),
    (parse_element, "L[1", 3, "']'"),
    (parse_element, "L \t 1]", 4, "'['"),
    (parse_element, "L[ 1 x]", 5, "']'"),
    (parse_element, "L[]", 2, "digit"),
    (parse_element, "L[- ]", 4, "digit"),
    (parse_element, "Y[" + "1" * 20 + "]", 2, "at most 19 digits"),
    (parse_element, "M[9223372036854775808]", 2, f"index within +/-{MAX_INDEX}"),
    (parse_element, "3/0*L[1]", 2, "nonzero denominator"),
    (parse_element, "3/ *L[1]", 3, "digit"),
    (parse_element, "(1+2)*L[1]", 4, "'i'"),
    (parse_element, "(1+2i*L[1]", 5, "')'"),
    (parse_element, "2*", 2, "basis vector (L, Y, M or C)"),
    (parse_element, "L[1] + 3", 7, "'*' and a basis vector (bare scalar terms must cancel to zero)"),
    (parse_element, "L[1] 3", 5, "'+', '-' or end of element"),
    (parse_element, "L[1]+", 5, "term (scalar or basis vector)"),
    (parse_element, "Q[1]", 0, "term (scalar or basis vector)"),
    (parse_element, " + ".join(["L[1]"] * 257), 1790, "end of element (at most 256 terms)"),
    (parse_scalar, "1/2 + 3", 7, "'i'"),
    (parse_scalar, "1" * 4301, 0, "at most 4300 digits"),
    (parse_scalar, "1/2x", 3, "end of scalar"),
    (parse_basis_vector, "L[1] x", 5, "end of basis vector"),
    (parse_basis_vector, "Q[1]", 0, "basis vector (L, Y, M or C)"),
    (_parse_position, "-", 1, "digit"),
    (_parse_position, "1a", 1, "end of position"),
]


@pytest.mark.parametrize(
    "reader, text, offset, expected", PARSE_ERRORS, ids=[f"{r.__name__}:{t[:24]}" for r, t, _, _ in PARSE_ERRORS]
)
def test_each_parse_error_names_its_offset(reader, text, offset, expected):
    with pytest.raises(ParseError) as err:
        reader(text)
    assert (err.value.offset, err.value.expected) == (offset, expected)
    assert str(err.value) == f"syntax error at offset {offset}: expected {expected}"


def test_parse_zero_and_bare_scalars():
    assert parse_element("0").is_zero()
    assert parse_element("1 - 1").is_zero()
    assert parse_element("0*L[5]").is_zero()
    with pytest.raises(ParseError):
        parse_element("3")
    with pytest.raises(ParseError):
        parse_element("L[1] + 2")


def test_parse_whitespace_insensitive():
    dense = parse_element("3/2*L[-1]+(1+2i)*Y[0]-M[3]+C")
    spaced = parse_element("  3/2 * L[ -1 ] + ( 1 + 2 i ) * Y[0] - M[3] + C ")
    assert dense == spaced
    # whitespace is what str.isspace() accepts, Unicode spaces included
    assert parse_element("\u2003L[\xa01\t]\n+\u20032*C") == parse_element("L[1] + 2*C")
    unicode_spaced = parse_element("\u2003(\xa01\t/\n2\u2003+\xa02\ti\n)\t*\xa0Y\u2003\t[\u2003-\n4\xa0] -\u20033 /\t4 i*M[2]\n")
    assert unicode_spaced == parse_element("(1/2+2i)*Y[-4] - 3/4i*M[2]")
    # U+200B ZERO WIDTH SPACE is not whitespace
    with pytest.raises(ParseError) as err:
        parse_element("L[1]\u200b")
    assert err.value.offset == 4


def test_parse_detects_garbage():
    for text in ["", "L[2]]", "L[2] * 3", "Q[1]", "1*", "(1+2i Y[0]", "--L[1]"]:
        with pytest.raises(ParseError):
            parse_element(text)


def test_index_overflow_rejected():
    huge = MAX_INDEX + 1
    with pytest.raises(ParseError, match="index"):
        parse_element(f"L[{huge}]")
    assert parse_element(f"L[{MAX_INDEX}]") == single(L(MAX_INDEX))


def test_canonical_printing():
    x = Element([(L(-1), Fraction(3, 2)), (Y(0), Scalar(1, 2)), (M(3), -1), (C, 1)])
    assert format_element(x) == "3/2*L[-1] + (1+2i)*Y[0] - M[3] + C"
    assert format_element(Element()) == "0"
    assert format_element(single(L(2), -1)) == "-L[2]"
    assert format_element(single(Y(1), Scalar(0, 2))) == "2i*Y[1]"
    assert format_element(single(Y(1), Scalar(1, -2))) == "(1-2i)*Y[1]"


def test_roundtrip_randomized():
    rng = SplitMix64(41)
    for _ in range(400):
        x = random_element(rng, 6, max_terms=5)
        assert parse_element(format_element(x)) == x


def test_parse_basis_vector():
    assert parse_basis_vector("L[-3]") == L(-3)
    assert parse_basis_vector(" C ") == C
    with pytest.raises(ParseError):
        parse_basis_vector("C[1]")
    with pytest.raises(ParseError):
        parse_basis_vector("L")
