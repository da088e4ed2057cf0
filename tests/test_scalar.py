import operator
import re
import sys
from fractions import Fraction

import pytest

from svlie.algebra import C, L, M, Window, Y, centralizer_window
from svlie.derivations import equivariant_hom_nullity, outer_independence_kernel
from svlie.scalar import (
    I,
    ONE,
    ParseError,
    Scalar,
    ZERO,
    format_scalar,
    graded_system,
    nullspace,
    parse_scalar,
)
from svlie.verify import SplitMix64, random_scalar


def q(num, den=1):
    return Scalar(Fraction(num, den))


def test_rational_addition():
    assert q(1, 2) + q(1, 3) == q(5, 6)


def test_i_squared():
    assert I * I == q(-1)


def test_negative_int_pow():
    assert q(2) ** -3 == q(1, 8)
    assert (ONE + I) ** 0 == ONE
    assert ZERO**0 == ONE


@pytest.mark.parametrize(
    "base, exponent",
    [(q(2), 2**63 - 1), (q(-1, 2), -(2**63)), (Scalar(1, 1), 16385), (q(2), 8193),
     (q(2**20), 781)],
)
def test_oversized_power_is_refused_before_it_is_built(base, exponent):
    # |exponent| times the base's largest bit length is over 2**14 bits;
    # 2**(2**63 - 1) could never be built
    with pytest.raises(ValueError, match="scalar power too large"):
        base**exponent


def test_power_bound_admits_units_zero_and_its_limit():
    huge = 2**63 - 1
    assert I**huge == -I and (-I) ** huge == I
    assert (-ONE) ** huge == -ONE and ONE**-huge == ONE
    assert ZERO**huge == ZERO
    assert q(2) ** 8192 == Scalar(2**8192)
    assert q(1, 2**20) ** -780 == Scalar(2**15600)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO**-1


@pytest.mark.parametrize(
    "part", [0.1, "1/3", 1 + 0j, None, ONE], ids=["float", "str", "complex", "none", "scalar"]
)
def test_constructor_takes_only_ints_and_fractions(part):
    # Fraction(0.1) and Fraction("1/3") would read these in silence
    with pytest.raises(TypeError, match="Scalar parts must be int or Fraction"):
        Scalar(part)
    with pytest.raises(TypeError, match="Scalar parts must be int or Fraction"):
        Scalar(1, part)


def test_a_non_integer_exponent_is_refused():
    with pytest.raises(TypeError, match="scalar exponents must be integers"):
        q(2) ** 1.5


@pytest.mark.parametrize("other", ["x", 0.5, None], ids=["str", "float", "none"])
def test_arithmetic_with_a_non_number_raises_and_equality_is_false(other):
    # each operator returns NotImplemented, so Python raises instead of coercing
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(ONE, other)
        with pytest.raises(TypeError):
            op(other, ONE)
    # - adds the negation, yet must refuse as -: not as +, nor through float.__radd__
    for left, right in ((ONE, other), (other, ONE)):
        with pytest.raises(TypeError, match="for -:"):
            left - right
    assert (ONE == other) is False
    assert ONE != other


def test_constructor_takes_bools_as_ints():
    assert Scalar(True, False) == ONE
    assert Scalar(Fraction(1, 2), True) == Scalar(Fraction(1, 2), 1)


def test_mixed_arithmetic_with_ints_and_fractions():
    assert 2 * I == Scalar(0, 2)
    assert I + Fraction(1, 2) == Scalar(Fraction(1, 2), 1)
    assert 1 - I == Scalar(1, -1)
    assert (3 * ONE) / 2 == q(3, 2)


def test_a_unit_factor_returns_the_other_operand():
    x = Scalar(Fraction(-3, 4), 5)
    for unit in (ONE, Scalar(1), Scalar(Fraction(2, 2))):
        assert x * unit is x
        assert unit * x is x
    # a non-unit product is a new value in canonical form
    y = x * Scalar(Fraction(2, 3), -1)
    assert y is not x
    assert y == Scalar(Fraction(9, 2), Fraction(49, 12))
    assert y._t == (54, 49, 12)


def test_field_axioms_randomized():
    rng = SplitMix64(11)
    for _ in range(200):
        x, y, z = (random_scalar(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == ZERO
        if x:
            assert x * (ONE / x) == ONE


def test_format_examples():
    assert format_scalar(ZERO) == "0"
    assert format_scalar(q(5, 6)) == "5/6"
    assert format_scalar(q(-3)) == "-3"
    assert format_scalar(I) == "1i"
    assert format_scalar(Scalar(Fraction(3, 2), Fraction(-1))) == "3/2-1i"
    assert format_scalar(Scalar(0, Fraction(-2, 5))) == "-2/5i"
    assert format_scalar(Scalar(1, 2)) == "1+2i"


@pytest.mark.parametrize("x", [ZERO, q(-3), I, Scalar(Fraction(3, 2), -1)], ids=str)
def test_str_is_the_canonical_spelling(x):
    assert str(x) == format_scalar(x)


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", ZERO),
        ("5/6", q(5, 6)),
        ("-3/2", q(-3, 2)),
        ("2i", Scalar(0, 2)),
        ("-2/5 i", Scalar(0, Fraction(-2, 5))),
        ("1/2+3/4i", Scalar(Fraction(1, 2), Fraction(3, 4))),
        ("2-1i", Scalar(2, -1)),
        (" 1 / 2 + 3 i ", Scalar(Fraction(1, 2), 3)),
    ],
)
def test_parse_examples(text, value):
    assert parse_scalar(text) == value


@pytest.mark.parametrize("text", ["", "i", "1/0", "1+2", "1/2x", "2i3"])
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_scalar(text)


def test_scanner_whitespace_is_what_str_isspace_accepts():
    # the scanners skip with str.isspace() and match \s in compiled patterns;
    # on str the two accept the same code points
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = "".join(c for c in every if c.isspace())
    assert "".join(re.findall(r"\s", every)) == spaces
    text = f"{spaces}-3{spaces}/{spaces}4{spaces}+{spaces}1{spaces}/{spaces}2{spaces}i{spaces}"
    assert parse_scalar(text) == Scalar(Fraction(-3, 4), Fraction(1, 2))


def test_codec_roundtrip_randomized():
    rng = SplitMix64(3)
    for _ in range(300):
        x = random_scalar(rng)
        assert parse_scalar(format_scalar(x)) == x


def system_of(rows, cols):
    """The system ``graded_system`` builds from dense rows: one test per row,
    each entry at the degree-0 vector C."""

    def tests(d, block):
        for key, row in enumerate(rows):
            yield key, 0, [(col, [(C, Scalar.coerce(cf))]) for col, cf in enumerate(row)]

    return graded_system(range(cols), [0] * cols, tests)


def random_rows(rng, nrows, cols):
    """Sparse random rows, some of them combinations of earlier ones."""
    rows = []
    for _ in range(nrows):
        if len(rows) >= 2 and rng.randint(0, 2) == 0:
            a, b = rng.choice(rows), rng.choice(rows)
            x, y = random_scalar(rng), random_scalar(rng)
            rows.append([x * u + y * v for u, v in zip(a, b)])
        else:
            rows.append(
                [random_scalar(rng) if rng.randint(0, 1) else ZERO for _ in range(cols)]
            )
    return rows


def rank(rows):
    """Row rank: the number of rows minus the nullity of the transpose."""
    transpose = [list(column) for column in zip(*rows)]
    return len(rows) - len(nullspace(system_of(transpose, len(rows))))


def test_nullspace_invertible():
    assert nullspace(system_of([[1, 0], [0, 1]], 2)) == []


def test_nullspace_one_relation():
    assert nullspace(system_of([[1, -1]], 2)) == [[ONE, ONE]]


def test_nullspace_of_an_empty_system_is_the_unit_basis():
    assert nullspace(system_of([], 2)) == [[ONE, ZERO], [ZERO, ONE]]


def test_nullspace_kernel_vectors_annihilate():
    rng = SplitMix64(5)
    for _ in range(40):
        cols = rng.randint(1, 6)
        rows = random_rows(rng, rng.randint(0, 6), cols)
        kernel = nullspace(system_of(rows, cols))
        for vec in kernel:
            assert len(vec) == cols
            for row in rows:
                acc = ZERO
                for cf, v in zip(row, vec):
                    acc = acc + cf * v
                assert acc == ZERO
        # rank-nullity: no kernel vector is missing and none is extra
        assert rank(rows) + len(kernel) == cols
        # the kernel vectors themselves are independent
        assert rank(kernel) == len(kernel)


def test_nullspace_is_repeatable_and_leaves_the_system_unchanged():
    rng = SplitMix64(9)
    for _ in range(20):
        cols = rng.randint(1, 6)
        system = system_of(random_rows(rng, rng.randint(1, 6), cols), cols)
        before = {lead: dict(tail) for lead, tail in system.pivots.items()}
        first = nullspace(system)
        assert system.pivots == before
        assert nullspace(system) == first
        assert system.pivots == before


def test_graded_system_drops_an_entry_whose_constraints_cancel():
    # row ("t", L[0]) gets 1 and then -1 at column "a", and 2 at column "b"
    def tests(d, block):
        yield "t", 0, [("a", [(L(0), ONE)]), ("b", [(L(0), q(2))]), ("a", [(L(0), -ONE)])]

    system = graded_system(["a", "b"], [0, 0], tests)
    assert (system.rows, system.cols) == (1, 2)
    assert system.pivots == {1: {}}
    assert nullspace(system) == [[ONE, ZERO]]


@pytest.mark.parametrize(
    "constraints",
    [
        [("a", [(L(0), ZERO)])],
        [("a", [(L(0), ONE)]), ("a", [(L(0), -ONE)])],
        [("b", [(L(0), I), (L(0), -I)])],
    ],
)
def test_graded_system_makes_no_pivot_row_of_zero_entries(constraints):
    system = graded_system(["a", "b"], [0, 0], lambda d, block: iter([("t", 0, constraints)]))
    assert (system.rows, system.cols, system.pivots) == (0, 2, {})
    assert nullspace(system) == [[ONE, ZERO], [ZERO, ONE]]


def test_rows_counts_the_pivot_rows_the_rank():
    # a repeated multiple, a zero row and a row independent of the first
    system = system_of([[1, 2, 0], [2, 4, 0], [0, 0, 0], [0, I, 1]], 3)
    assert (system.rows, system.cols) == (2, 3)
    assert nullspace(system) == [[-2 * I, I, ONE]]


def test_graded_system_reads_no_test_of_a_degree_after_its_rank_is_full():
    entry = {"a": L(0), "b": M(0), "c": Y(1)}

    def tests(d, block):
        # the first test gives degree d full rank
        yield ("t", d), 0, [(col, [(entry[col], ONE)]) for col in block]
        pytest.fail(f"a test of degree {d} was read after its rank was full")

    system = graded_system(["a", "b", "c"], [0, 0, 1], tests)
    assert system.pivots == {0: {}, 1: {}, 2: {}}
    assert nullspace(system) == []


def test_graded_system_refuses_an_ungraded_entry():
    def tests(d, block):
        yield "t", 1, [("a", [(L(2), ONE)])]

    with pytest.raises(ValueError, match=r"^ungraded entry L\[2\] in test t: expected degree 1$"):
        graded_system(["a"], [0], tests)


@pytest.mark.parametrize("degrees", [[0], [0, 0, 0]])
def test_graded_system_refuses_a_degree_list_of_another_length(degrees):
    # a column left in no block would come back as a spurious kernel vector
    def tests(d, block):
        yield "t", 0, [(col, [(L(d), ONE)]) for col in block]

    with pytest.raises(ValueError):
        graded_system(["a", "b"], degrees, tests)


def dense_nullspace(rows, cols):
    """Gauss-Jordan on dense rows of scalars: one kernel vector per free column,
    with 1 there and 0 on the other free columns."""
    work = [[Scalar.coerce(v) for v in row] for row in rows]
    pivot_cols = []
    for c in range(cols):
        r = len(pivot_cols)
        found = next((k for k in range(r, len(work)) if work[k][c]), None)
        if found is None:
            continue
        work[r], work[found] = work[found], work[r]
        inv = work[r][c].inverse()
        work[r] = [v * inv for v in work[r]]
        for k in range(len(work)):
            if k != r and work[k][c]:
                f = work[k][c]
                work[k] = [v - f * p for v, p in zip(work[k], work[r])]
        pivot_cols.append(c)
    basis = []
    for free in range(cols):
        if free in pivot_cols:
            continue
        vec = [ZERO] * cols
        vec[free] = ONE
        for r, pc in enumerate(pivot_cols):
            vec[pc] = -work[r][free]
        basis.append(vec)
    return basis


def test_a_pivot_row_with_an_empty_tail_costs_no_arithmetic(monkeypatch):
    # every reduction step of the centralizer at radius 16 meets a one-entry pivot
    # row; _reduce_row skips its empty tail instead of negating the factor for it
    centralizer_window(Window(16))  # fills the bracket_basis cache
    calls = []
    neg = Scalar.__neg__
    monkeypatch.setattr(Scalar, "__neg__", lambda self: calls.append(self) or neg(self))
    centralizer_window(Window(16))
    assert calls == []


@pytest.mark.parametrize(
    "build, inverses",
    [
        (lambda: centralizer_window(Window(16)), 0),
        (lambda: outer_independence_kernel(Window(4)), 0),
        (lambda: equivariant_hom_nullity(Window(8)), 15),
    ],
    ids=["center-16", "outer-4", "hom-8"],
)
def test_a_one_entry_row_becomes_its_pivot_without_an_inverse(monkeypatch, build, inverses):
    # every new pivot row of the center and outer systems has one entry, so none
    # is rescaled; hom's 15 inverses are its multi-entry pivot rows with lead != 1
    build()  # fills the bracket_basis cache
    calls = []
    inverse = Scalar.inverse
    monkeypatch.setattr(Scalar, "inverse", lambda self: calls.append(self) or inverse(self))
    build()
    assert len(calls) == inverses


@pytest.mark.parametrize("lead", [q(3), q(1, 2) * I], ids=["3", "i/2"])
def test_graded_system_stores_a_one_entry_row_as_an_empty_pivot_row(lead):
    rows = [[0, lead, 0], [1, 2, 1]]
    system = system_of(rows, 3)
    assert system.pivots == {1: {}, 0: {1: q(2), 2: ONE}}
    assert nullspace(system) == dense_nullspace(rows, 3) == [[-ONE, ZERO, ONE]]


def test_single_entry_rows_give_the_same_kernel_in_any_order():
    # single-entry rows on columns 0, 2 and 4, scaled and repeated, so that in
    # most orders some arrive before their column has a pivot row and some
    # after it; column 2 also leads a multi-entry row, and column 4 also sits
    # right of a pivot in one
    singles = [
        [0, 0, 3, 0, 0, 0],
        [0, 0, q(1, 2) * I, 0, 0, 0],
        [0, 0, -1, 0, 0, 0],
        [q(-2, 3), 0, 0, 0, 0, 0],
        [5, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, I, 0],
        [0, 0, 0, 0, 7, 0],
    ]
    multis = [
        [0, 1, 0, 2, 1, 0],
        [0, 0, 1, -1, 0, 1],
        [0, 2, 1, 3, 2, 1],
        [0, 0, 2, 0, 1, 0],
    ]
    rows = singles + multis
    expected = dense_nullspace(rows, 6)
    assert len(expected) == 1
    orders = [rows, rows[::-1], multis + singles, singles[::2] + multis + singles[1::2]]
    rng = SplitMix64(22)
    for _ in range(30):
        order = list(rows)
        for i in range(len(order) - 1, 0, -1):
            j = rng.randint(0, i)
            order[i], order[j] = order[j], order[i]
        orders.append(order)
    for order in orders:
        assert nullspace(system_of(order, 6)) == expected
