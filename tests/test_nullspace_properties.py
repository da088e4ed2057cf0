"""Property tests: ``graded_system`` then ``nullspace`` against a dense
(Fraction, Fraction) reference.

Kept apart from test_scalar.py so that a missing hypothesis skips only these.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

from svlie.algebra import C, L  # noqa: E402
from svlie.scalar import Scalar, graded_system, nullspace  # noqa: E402

ZERO_PAIR = (Fraction(0), Fraction(0))
ONE_PAIR = (Fraction(1), Fraction(0))

small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
gaussian = st.tuples(small, small | st.just(Fraction(0)))
# mostly zeros, so that kernels of every size come up
entries = st.one_of(st.just(ZERO_PAIR), st.just(ZERO_PAIR), gaussian)


@st.composite
def systems(draw):
    """(cols, rows): dense rows of (re, im) pairs, some repeating earlier ones combined."""
    cols = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        if len(rows) >= 2 and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(gaussian), draw(gaussian)
            rows.append([_add(_mul(x, u), _mul(y, v)) for u, v in zip(a, b)])
        else:
            rows.append(draw(st.lists(entries, min_size=cols, max_size=cols)))
    return cols, rows


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _inverse(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def reference_nullspace(cols, rows):
    """Dense Gauss-Jordan over (re, im) pairs: reduced row echelon form, then
    one kernel vector per free column with 1 there and 0 on the other free columns."""
    work = [list(row) for row in rows]
    pivot_cols = []
    for c in range(cols):
        r = len(pivot_cols)
        found = next((k for k in range(r, len(work)) if work[k][c] != ZERO_PAIR), None)
        if found is None:
            continue
        work[r], work[found] = work[found], work[r]
        inv = _inverse(work[r][c])
        work[r] = [_mul(v, inv) for v in work[r]]
        for k in range(len(work)):
            if k != r and work[k][c] != ZERO_PAIR:
                f = work[k][c]
                work[k] = [_add(v, _mul((-f[0], -f[1]), p)) for v, p in zip(work[k], work[r])]
        pivot_cols.append(c)
    basis = []
    for free in range(cols):
        if free in pivot_cols:
            continue
        vec = [ZERO_PAIR] * cols
        vec[free] = ONE_PAIR
        for r, pc in enumerate(pivot_cols):
            v = work[r][free]
            vec[pc] = (-v[0], -v[1])
        basis.append(vec)
    return basis


def solve(cols, keyed_rows):
    """nullspace of the rows ``(key, row)``, as (re, im) pairs: one test per key,
    each entry at the degree-0 vector C, so rows sent to one key add up."""
    tests = {}
    for key, row in keyed_rows:
        tests.setdefault(key, []).extend(
            (col, [(C, Scalar(re, im))]) for col, (re, im) in enumerate(row)
        )
    system = graded_system(
        range(cols), [0] * cols, lambda d, block: ((k, 0, c) for k, c in tests.items())
    )
    return [[(v.re, v.im) for v in vec] for vec in nullspace(system)]


@given(systems())
def test_kernel_matches_the_dense_reference(system):
    cols, rows = system
    assert solve(cols, enumerate(rows)) == reference_nullspace(cols, rows)


@given(systems(), st.randoms(use_true_random=False), st.lists(gaussian, min_size=7, max_size=7))
def test_kernel_ignores_row_order_scaling_and_duplicates(system, rnd, scales):
    cols, rows = system
    expected = solve(cols, enumerate(rows))
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert solve(cols, enumerate(shuffled)) == expected
    scaled = [
        [_mul(s if s != ZERO_PAIR else ONE_PAIR, v) for v in row] for row, s in zip(rows, scales)
    ]
    assert solve(cols, enumerate(scaled)) == expected
    doubled = rows + rows[::-1]
    assert solve(cols, enumerate(doubled)) == expected
    # rows sent to the same key add up; splitting each row in two halves keeps it
    halves = [(i, [(v[0] / 2, v[1] / 2) for v in row]) for i, row in enumerate(rows)]
    assert solve(cols, halves + halves) == expected


@given(systems(), st.data())
def test_graded_kernel_matches_the_dense_reference_over_several_degrees(system, data):
    """Each row is one test of shift ``shift``: its entries in the columns of
    degree ``d`` lie at L[d + shift], a row of their own in the full system."""
    cols, rows = system
    degrees = data.draw(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols))
    shifts = data.draw(st.lists(st.integers(-1, 1), min_size=len(rows), max_size=len(rows)))

    def tests(d, block):
        for i, (row, shift) in enumerate(zip(rows, shifts)):
            v = L(d + shift)
            yield i, shift, [(col, [(v, Scalar(*row[col]))]) for col in block]

    kernel = nullspace(graded_system(range(cols), degrees, tests))
    full = [
        [v if degrees[col] == d else ZERO_PAIR for col, v in enumerate(row)]
        for row in rows
        for d in set(degrees)
    ]
    assert [[(v.re, v.im) for v in vec] for vec in kernel] == reference_nullspace(cols, full)
