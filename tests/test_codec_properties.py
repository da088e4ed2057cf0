"""Property tests: each JSON codec decodes what its encoder writes.

The encoded form goes through ``json.dumps``/``json.loads`` as it does in the
CLI.  Kept apart from the example tests so that a missing hypothesis skips
only these.
"""

import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

from svlie.algebra import BasisVector, C, Element, Window, ZERO_ELEMENT  # noqa: E402
from svlie.autgroup import AutomorphismParams  # noqa: E402
from svlie.derivations import ClassifiedDerivation, WindowMap  # noqa: E402
from svlie.expr import (  # noqa: E402
    MAX_INDEX,
    classified_from_json,
    classified_to_json,
    params_from_json,
    params_to_json,
    window_map_from_json,
    window_map_to_json,
)
from svlie.scalar import Scalar  # noqa: E402

rationals = st.builds(
    Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**12)
)
scalars = st.builds(Scalar, rationals, rationals | st.just(Fraction(0)))
nonzero_scalars = scalars.filter(bool)
indices = st.integers(-MAX_INDEX, MAX_INDEX)
basis_vectors = st.one_of(st.builds(BasisVector, st.sampled_from("LYM"), indices), st.just(C))
elements = st.lists(st.tuples(basis_vectors, scalars), max_size=4).map(Element)
# zero scalars included: AutomorphismParams drops them
sequences = st.dictionaries(indices.filter(bool), scalars, max_size=4)
params = st.builds(
    AutomorphismParams,
    b=sequences,
    c=sequences,
    i=st.sampled_from((0, 1)),
    u=nonzero_scalars,
    w=nonzero_scalars,
    alpha=scalars,
    beta=scalars,
    gamma=scalars,
)
# a zero inner part is the degree-zero normal form that classify_degree0 returns
classified = st.builds(
    ClassifiedDerivation, scalars, scalars, scalars, st.just(ZERO_ELEMENT) | elements
)


@st.composite
def window_maps(draw):
    window = Window(draw(st.integers(1, 3)))
    return WindowMap(window, {bv: draw(elements) for bv in window.vectors()})


def _through_json(data: dict) -> dict:
    return json.loads(json.dumps(data))


@given(params)
def test_params_codec_roundtrip(p):
    assert params_from_json(_through_json(params_to_json(p))) == p


@given(window_maps())
def test_window_map_codec_roundtrip(wmap):
    assert window_map_from_json(_through_json(window_map_to_json(wmap))) == wmap


@given(classified)
def test_classified_codec_roundtrip(deriv):
    assert classified_from_json(_through_json(classified_to_json(deriv))) == deriv
