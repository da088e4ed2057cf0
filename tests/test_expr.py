import json
from fractions import Fraction

import pytest

from svlie import expr, scalar
from svlie.algebra import C, Element, L, M, Y, format_element, single
from svlie.autgroup import automorphism_window_map
from svlie.expr import MAX_INDEX, _parse_position, parse_basis_vector, parse_element
from svlie.expr import params_from_json, params_to_json, window_map_from_json, window_map_to_json
from svlie.scalar import ParseError, Scalar, parse_scalar
from svlie.verify import SplitMix64, random_element, random_params

# Each reader's scanner: it alone reads any text off the printers' spelling,
# and every reader must end as it does.
SCANNERS = {
    parse_element: expr._scanned_element,
    parse_scalar: scalar._scanned_scalar,
    parse_basis_vector: expr._scanned_basis_vector,
}


def _outcome(read, text):
    """The value ``read`` returns for ``text``, or its ParseError's offset and message."""
    try:
        return "value", read(text)
    except ParseError as err:
        return "error", err.offset, str(err)


def _terms(count: int) -> str:
    return " + ".join(f"L[{j}]" for j in range(count))


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
    # a two-part coefficient needs parentheses; without them its real part is a bare scalar
    (parse_element, "1+2i*L[0]", 0, "'*' and a basis vector (bare scalar terms must cancel to zero)"),
    (parse_element, "-1-2i*L[0]", 1, "'*' and a basis vector (bare scalar terms must cancel to zero)"),
    (parse_element, "L[0] + 1/2-3i*Y[1]", 7, "'*' and a basis vector (bare scalar terms must cancel to zero)"),
    (parse_element, "L[1] 3", 5, "'+', '-' or end of element"),
    (parse_element, "L[1]+", 5, "term (scalar or basis vector)"),
    (parse_element, "Q[1]", 0, "term (scalar or basis vector)"),
    (parse_element, " + ".join(["L[1]"] * 257), 1790, "end of element (at most 256 terms)"),
    (parse_element, _terms(257), len(_terms(256)) + 1, "end of element (at most 256 terms)"),
    (parse_element, "L[9223372036854775808]", 2, f"index within +/-{MAX_INDEX}"),
    (parse_element, "L[-9223372036854775808]", 3, f"index within +/-{MAX_INDEX}"),
    (parse_element, "1" * 4301 + "*L[1]", 0, "at most 4300 digits"),
    (parse_element, "1/0*L[1]", 2, "nonzero denominator"),
    (parse_element, "(1+1/0i)*L[1]", 5, "nonzero denominator"),
    (parse_element, "+L[1]", 0, "term (scalar or basis vector)"),
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


@pytest.mark.parametrize("reader, text", [(r, t) for r, t, _, _ in PARSE_ERRORS if r in SCANNERS],
                         ids=[f"{r.__name__}:{t[:24]}" for r, t, _, _ in PARSE_ERRORS if r in SCANNERS])
def test_each_parse_error_is_the_scanners(reader, text):
    assert _outcome(reader, text) == _outcome(SCANNERS[reader], text)


# Texts the readers take, each with its value; the scanner must read the same.
PARSE_VALUES = [
    (parse_element, _terms(256), Element([(L(j), 1) for j in range(256)])),
    (parse_element, f"L[{MAX_INDEX}]", single(L(MAX_INDEX))),
    (parse_element, f"-M[-{MAX_INDEX}]", single(M(-MAX_INDEX), -1)),
    (parse_element, "1" * 4300 + "/3*L[1]", single(L(1), Fraction(int("1" * 4300), 3))),
    (parse_element, "0*L[1]", Element()),
    (parse_element, "L[1] - L[1]", Element()),
    (parse_element, "L[-0]", single(L(0))),
    (parse_element, "1*L[1]", single(L(1))),
    (parse_element, "2/4*L[1]", single(L(1), Fraction(1, 2))),
    (parse_element, "-(1/2-3/4i)*Y[2] - 2i*C", Element([(Y(2), Scalar(Fraction(-1, 2), Fraction(3, 4))), (C, Scalar(0, -2))])),
    (parse_scalar, "1" * 4300, Scalar(int("1" * 4300))),
    (parse_scalar, "-2/4+6/4i", Scalar(Fraction(-1, 2), Fraction(3, 2))),
    (parse_basis_vector, f"Y[-{MAX_INDEX}]", Y(-MAX_INDEX)),
    (parse_basis_vector, "L[-0]", L(0)),
]


@pytest.mark.parametrize(
    "reader, text, value", PARSE_VALUES, ids=[f"{r.__name__}:{t[:24]}" for r, t, _ in PARSE_VALUES]
)
def test_each_reading_is_the_scanners(reader, text, value):
    assert _outcome(reader, text) == _outcome(SCANNERS[reader], text) == ("value", value)


# 100,000 characters each: a whitespace run inside parentheses, and inside
# brackets; one digit run; 300 terms.  Every reader must end as its scanner
# does, in linear time: a pattern that backtracks over whitespace or digits
# would not end here.
_LONG = 100_000
_HALF = " " * (_LONG // 2 - 1)
_DIGITS = "7" * 323
_MANY = " + ".join(f"{_DIGITS}*L[{j}]" for j in range(300))
LONG_TEXTS = {
    "spaces in parentheses": f"({_HALF[1:]}1{_HALF}#",
    "spaces in brackets": f"L[{_HALF[2:]}1{_HALF}]",
    "digit run": "1" * _LONG,
    "300 terms": "1" * (_LONG - len(_MANY)) + _MANY,
}


@pytest.mark.parametrize("reader", SCANNERS, ids=lambda r: r.__name__)
@pytest.mark.parametrize("name", LONG_TEXTS)
def test_long_texts_end_as_the_scanner_does(reader, name):
    text = LONG_TEXTS[name]
    assert len(text) == _LONG
    assert _outcome(reader, text) == _outcome(SCANNERS[reader], text)


def test_printed_text_never_reaches_the_scanner(monkeypatch):
    """The printers' spelling is read by the compiled match alone; a printer
    change that leaves it would otherwise slow every command unnoticed."""

    def refuse(text):
        raise AssertionError(f"scanner reached on {text!r}")

    for module, name in ((expr, "_scanned_element"), (expr, "_scanned_basis_vector"), (scalar, "_scanned_scalar")):
        monkeypatch.setattr(module, name, refuse)
    rng = SplitMix64(25)
    assert parse_element(format_element(Element())) == Element()
    for _ in range(200):
        x = random_element(rng, 6, max_terms=5)
        assert parse_element(format_element(x)) == x
    for _ in range(20):
        p = random_params(rng)
        assert params_from_json(json.loads(json.dumps(params_to_json(p)))) == p
        wmap = automorphism_window_map(p, 2)
        assert window_map_from_json(json.loads(json.dumps(window_map_to_json(wmap)))) == wmap


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


def test_printing_negative_coefficients_negates_no_scalar(monkeypatch):
    # every sign pattern of a Gaussian coefficient, first in the sum and after it
    parts = [Fraction(-3, 4), 0, 2]
    coeffs = [Scalar(a, b) for a in parts for b in (Fraction(-1, 2), 0, 5) if a or b]
    corpus = [Element([(L(1), cf), (M(-2), other)]) for cf in coeffs for other in coeffs]
    calls = []
    neg = Scalar.__neg__
    monkeypatch.setattr(Scalar, "__neg__", lambda self: calls.append(self) or neg(self))
    texts = [format_element(x) for x in corpus]
    assert calls == []
    monkeypatch.undo()
    for x, text in zip(corpus, texts):
        assert parse_element(text) == x
    assert format_element(Element([(L(0), Scalar(-1, 2)), (C, Scalar(-1, -2))])) == "-(1-2i)*L[0] - (1+2i)*C"
    assert format_element(Element([(Y(3), Scalar(0, -3)), (M(0), Scalar(Fraction(-3, 4), 5))])) == (
        "-3i*Y[3] - (3/4-5i)*M[0]"
    )


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
