"""Property tests: Scalar against a plain (Fraction, Fraction) reference model.

Kept apart from test_scalar.py so that a missing hypothesis skips only these.
"""

import copy
import pickle
from dataclasses import make_dataclass
from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

from svlie.scalar import I, ONE, Scalar, ZERO, add_product, format_scalar, parse_scalar  # noqa: E402

# The repr the frozen-dataclass Scalar printed; failure witnesses embed it.
_DataclassScalar = make_dataclass(
    "Scalar", [("re", Fraction), ("im", Fraction)], frozen=True
)

small_ints = st.integers(-60, 60)
big_ints = st.integers(-(10**30), 10**30)
rationals = st.builds(
    Fraction, st.one_of(small_ints, big_ints), st.integers(1, 40) | st.integers(1, 10**20)
)
pairs = st.tuples(rationals, rationals | st.just(Fraction(0)))
scalars = pairs.map(lambda p: Scalar(*p))
# 1 as a shared, a fresh and a reduced Scalar; drawn pairs rarely hit 1 exactly
unit_scalars = st.sampled_from([ONE, Scalar(1), Scalar(Fraction(2, 2))])
# operands as they reach Scalar arithmetic: Scalar, int (bools included) or Fraction
operands = st.one_of(scalars, small_ints, big_ints, rationals, unit_scalars, st.just(1), st.booleans())


def model(x):
    """(re, im) of a Scalar, int or Fraction as Fractions."""
    if isinstance(x, Scalar):
        return (x.re, x.im)
    return (Fraction(x), Fraction(0))


def m_add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def m_sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def m_mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def m_inv(p):
    norm = p[0] * p[0] + p[1] * p[1]
    return (p[0] / norm, -p[1] / norm)


def m_pow(p, n):
    out = (Fraction(1), Fraction(0))
    base = p if n >= 0 else m_inv(p)
    for _ in range(abs(n)):
        out = m_mul(out, base)
    return out


def assert_canonical(x, expected):
    assert type(x) is Scalar
    assert type(x._t) is tuple
    a, b, d = x._t
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0
    assert gcd(a, b, d) == 1
    if not a and not b:
        assert (a, b, d) == (0, 0, 1)
    assert (x.re, x.im) == expected
    assert x == Scalar(*expected)


def is_zero(x):
    return model(x) == (0, 0)


@given(scalars | unit_scalars, operands)
def test_ring_operations_match_the_model(x, y):
    p, q = model(x), model(y)
    assert_canonical(x + y, m_add(p, q))
    assert_canonical(y + x, m_add(q, p))
    assert_canonical(x - y, m_sub(p, q))
    assert_canonical(y - x, m_sub(q, p))
    assert_canonical(x * y, m_mul(p, q))
    assert_canonical(y * x, m_mul(q, p))
    assert_canonical(-x, (-p[0], -p[1]))


# factors as they reach add_product: Gaussian, integer-valued, unit and zero scalars
int_scalars = st.one_of(small_ints, big_ints).map(Scalar)
factors = st.one_of(
    scalars, int_scalars, unit_scalars, st.sampled_from([ZERO, -ONE, I, -I, Scalar(1, -1)])
)


def m_product(k, x, y):
    return m_mul(m_mul(model(k), model(x)), model(y))


@given(st.none() | factors, factors, factors, factors)
def test_add_product_matches_the_model(prev, k, x, y):
    expected = m_product(k, x, y)
    if prev is not None:
        expected = m_add(model(prev), expected)
    out = add_product(prev, k, x, y)
    if expected == (0, 0):
        assert out is None
    else:
        assert_canonical(out, expected)


@given(factors, factors, factors)
def test_add_product_returns_none_exactly_when_the_sum_cancels(k, x, y):
    product = k * x * y
    assert add_product(-product, k, x, y) is None
    if product:
        assert_canonical(add_product(None, k, x, y), model(product))
        assert_canonical(add_product(product, k, x, y), model(product * 2))
    else:
        assert add_product(None, k, x, y) is None


def test_add_product_examples():
    x = Scalar(Fraction(-3, 4), 5)
    assert add_product(None, ONE, x, ONE) == x
    assert add_product(None, Scalar(2), x, Scalar(Fraction(1, 2))) == x
    assert add_product(Scalar(3), Scalar(-1), Scalar(3), ONE) is None
    assert add_product(I, I, I, I) is None  # i + i**3
    assert add_product(ONE, I, I, ONE) is None  # 1 + i**2
    assert add_product(None, ZERO, x, x) is None
    assert add_product(Scalar(Fraction(1, 6)), Scalar(Fraction(1, 2)), Scalar(Fraction(1, 3)), ONE)._t == (1, 0, 3)


@given(scalars, operands, st.one_of(small_ints, big_ints, st.booleans(), st.just(0)))
def test_division_and_inverse_match_the_model(x, y, k):
    p, q = model(x), model(y)
    # an int divisor, either sign, takes the one-reduction branch; a bool the general one
    if k:
        assert_canonical(x / k, m_mul(p, m_inv(model(k))))
    else:
        with pytest.raises(ZeroDivisionError, match="^scalar division by zero$"):
            x / k
    if is_zero(y):
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert_canonical(x / y, m_mul(p, m_inv(q)))
    if is_zero(x):
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        with pytest.raises(ZeroDivisionError):
            y / x
    else:
        assert_canonical(x.inverse(), m_inv(p))
        assert_canonical(y / x, m_mul(q, m_inv(p)))


@given(scalars, st.integers(-5, 5))
def test_powers_match_the_model(x, n):
    if n < 0 and is_zero(x):
        with pytest.raises(ZeroDivisionError):
            x**n
    else:
        assert_canonical(x**n, m_pow(model(x), n))


@given(pairs, pairs)
def test_equality_and_hash_follow_the_value(p, q):
    x, y = Scalar(*p), Scalar(*q)
    assert (x == y) == (p == q)
    assert (x != y) == (p != q)
    # the same value reached by different arithmetic paths
    rebuilt = (x * 6 + y) / 3 - y / 3 - x
    assert rebuilt == x
    assert hash(rebuilt) == hash(x)
    if x == y:
        assert hash(x) == hash(y)


@given(scalars)
def test_text_codec_roundtrip(x):
    assert parse_scalar(format_scalar(x)) == x


def fraction_spelling(x):
    """The canonical text of a Scalar, spelled from its parts as Fractions."""
    re, im = x.re, x.im
    if not im:
        return str(re)
    imag = f"{abs(im)}i"
    if not re:
        return imag if im > 0 else f"-{imag}"
    return f"{re}{'+' if im > 0 else '-'}{imag}"


huge_ints = st.integers(-(10**300), 10**300)
huge_scalars = st.builds(
    Scalar,
    st.builds(Fraction, huge_ints, st.integers(1, 10**300)),
    st.builds(Fraction, huge_ints, st.integers(1, 10**300)) | st.just(Fraction(0)),
)


@given(scalars | huge_scalars | unit_scalars | st.sampled_from([ZERO, -ONE, Scalar(0, 1), Scalar(0, -1)]))
def test_printer_spells_the_fraction_reference(x):
    assert format_scalar(x) == fraction_spelling(x)


@given(pairs)
def test_repr_is_the_dataclass_repr(p):
    x = Scalar(*p)
    assert repr(x) == repr(_DataclassScalar(x.re, x.im))


@given(st.one_of(small_ints, big_ints, rationals))
def test_never_equal_to_a_plain_number(n):
    x = Scalar(n)
    assert x != n
    assert not (x == n)
    assert n != x


def test_plain_number_comparison_examples():
    assert Scalar(1) != 1
    assert Scalar(0) != 0
    assert ONE != Fraction(1)
    assert ZERO == Scalar(Fraction(0), 0)


def test_immutable():
    x = Scalar(Fraction(1, 2), 3)
    for name in ("re", "im", "_t", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    with pytest.raises(AttributeError):
        del x._t
    assert x == Scalar(Fraction(1, 2), 3)


def test_copy_and_pickle_keep_the_value():
    x = Scalar(Fraction(-7, 4), Fraction(5, 6))
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert y == x
        assert hash(y) == hash(x)
        assert type(y._t) is tuple
        assert y._t == x._t == (-21, 10, 12)
