"""The value-class contract of the four records built on ``algebra.Record``.

``Window``, ``ClassifiedDerivation``, ``AutomorphismParams`` and ``WindowMap``
were frozen dataclasses; as slotted records they keep the dataclass repr
(failure witnesses embed it), equality, the same hashability and
immutability, and all four can be copied, deep-copied and pickled.
``replace`` goes back through ``__init__``, so every check runs again.
"""

import copy
import pickle
from dataclasses import make_dataclass
from types import MappingProxyType

import pytest

from svlie.algebra import C, Element, L, M, Window, Y, single
from svlie.autgroup import AutomorphismParams
from svlie.derivations import ClassifiedDerivation, WindowMap
from svlie.scalar import ONE, Scalar, ZERO


def sc(a, d=1):
    return Scalar(a) / d


def _params():
    return AutomorphismParams({1: ONE, -2: 3}, {2: sc(1, 2)}, 1, 2, sc(-3), 1, ZERO, sc(5, 7))


def _deriv():
    return ClassifiedDerivation(1, sc(1, 2), 0, Element([(L(1), ONE), (Y(-1), sc(2))]))


def _window_map():
    return WindowMap.from_function(1, lambda bv: single(bv) * 2)


# (make an instance, its fields in order, hashable)
CASES = {
    "Window": (lambda: Window(3), ("radius",), True),
    "ClassifiedDerivation": (_deriv, ("c1", "c2", "c3", "inner"), True),
    "AutomorphismParams": (_params, ("b", "c", "i", "u", "w", "alpha", "beta", "gamma"), False),
    "WindowMap": (_window_map, ("window", "images"), False),
}


def _values(x, fields):
    return tuple(getattr(x, name) for name in fields)


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_repr_is_the_dataclass_repr(case):
    make, fields, _ = case
    x = make()
    reference = make_dataclass(type(x).__name__, fields, frozen=True)
    assert repr(x) == repr(reference(*_values(x, fields)))


def test_default_reprs_are_the_dataclass_reprs():
    for x, fields in (
        (ClassifiedDerivation(), ("c1", "c2", "c3", "inner")),
        (AutomorphismParams(), ("b", "c", "i", "u", "w", "alpha", "beta", "gamma")),
    ):
        reference = make_dataclass(type(x).__name__, fields, frozen=True)
        assert repr(x) == repr(reference(*_values(x, fields)))
    assert repr(AutomorphismParams()).startswith("AutomorphismParams(b=mappingproxy({}), c=mappingproxy({}), i=0, ")


def test_positional_and_keyword_arguments_agree(case):
    make, fields, _ = case
    x = make()
    values = _values(x, fields)
    assert type(x)(*values) == x
    assert type(x)(**dict(zip(fields, values))) == x


def test_defaults_are_the_dataclass_defaults():
    assert ClassifiedDerivation() == ClassifiedDerivation(ZERO, ZERO, ZERO, Element())
    assert AutomorphismParams() == AutomorphismParams({}, {}, 0, ONE, ONE, ZERO, ZERO, ZERO)
    with pytest.raises(TypeError):
        Window()
    with pytest.raises(TypeError):
        WindowMap(Window(1))


def test_fields_cannot_be_assigned_or_deleted(case):
    make, fields, _ = case
    x = make()
    before = repr(x)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert not hasattr(x, "__dict__")
    assert repr(x) == before


def test_equality_and_hash(case):
    make, fields, hashable = case
    x, y = make(), make()
    assert x == y and not (x != y)
    assert x != 5 and not (x == 5)
    # an object of another class with the same fields is not equal
    reference = make_dataclass(type(x).__name__, fields, frozen=True)
    assert x != reference(*_values(x, fields))
    if hashable:
        assert hash(x) == hash(y) == hash(_values(x, fields))
    else:
        with pytest.raises(TypeError):
            hash(x)


def test_unequal_when_one_field_differs():
    assert Window(3) != Window(4)
    assert _deriv() != _deriv().replace(c3=ONE)
    assert _params() != _params().replace(gamma=ZERO)
    changed = dict(_window_map().images)
    changed[M(0)] = single(M(0))
    assert _window_map() != WindowMap(Window(1), changed)


def test_copy_deepcopy_and_pickle(case):
    make, _, _ = case
    x = make()
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        y = clone(x)
        assert type(y) is type(x) and y == x


def test_copied_params_keep_read_only_position_maps():
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        y = clone(_params())
        assert isinstance(y.b, MappingProxyType) and isinstance(y.c, MappingProxyType)
        assert dict(y.b) == {-2: Scalar(3), 1: ONE} and list(y.b) == [-2, 1]


def test_a_window_map_keeps_its_own_images():
    images = dict(_window_map().images)
    m = WindowMap(Window(1), images)
    images.pop(L(0))
    images[M(0)] = single(C)
    assert m == _window_map() and len(m.images) == 10
    assert m.image(L(0)) == single(L(0)) * 2 and m.image(M(0)) == single(M(0)) * 2


def test_replace_changes_only_the_named_fields(case):
    make, fields, _ = case
    x = make()
    assert x.replace() == x
    with pytest.raises(TypeError):
        x.replace(unknown=1)
    assert _deriv().replace(c2=3) == ClassifiedDerivation(1, 3, 0, _deriv().inner)
    assert _params().replace(i=0).i == 0
    assert Window(3).replace(radius=5) == Window(5)


@pytest.mark.parametrize("radius", [True, 2.0, "2", None])
def test_a_window_radius_must_be_an_int(radius):
    # True == 1 and 2.0 == 2: either would equal and hash like an int window
    with pytest.raises(TypeError, match=r"^window radius must be an int, not "):
        Window(radius)
    with pytest.raises(TypeError, match=r"^window radius must be an int, not "):
        Window(3).replace(radius=radius)


def test_replace_runs_every_check_again():
    with pytest.raises(ValueError, match="radius must be at least 1"):
        Window(3).replace(radius=0)
    with pytest.raises(TypeError, match="inner must be an Element"):
        _deriv().replace(inner=5)
    p = _params()
    with pytest.raises(ValueError, match="u and w must be nonzero"):
        p.replace(u=0)
    with pytest.raises(ValueError, match="parity i"):
        p.replace(i=True)
    with pytest.raises(ValueError, match="position 0 is forbidden"):
        p.replace(b={0: ONE})
    with pytest.raises(ValueError, match="exactly the in-window basis vectors"):
        _window_map().replace(window=Window(2))
    # coerced again: a plain int field comes back a Scalar, a zero position is dropped
    assert _deriv().replace(c1=2).c1 == Scalar(2)
    assert dict(p.replace(b={1: 0, 3: 1}).b) == {3: ONE}


@pytest.mark.parametrize("value", [0.5, "1", 1j, None], ids=["float", "str", "complex", "none"])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: Element([(L(0), v)]),
        lambda v: single(L(0), v),
        lambda v: single(L(0)) * v,
        lambda v: AutomorphismParams(u=v),
        lambda v: AutomorphismParams(b={1: v}),
        lambda v: ClassifiedDerivation(c1=v),
        lambda v: ONE / v,
    ],
    ids=["element", "single", "element-times", "params-u", "params-b", "derivation-c1", "divide"],
)
def test_every_coefficient_entry_refuses_a_non_number(build, value):
    # Scalar.coerce is the one gate; it reads ints and Fractions and nothing else
    with pytest.raises(TypeError, match="cannot interpret .* as a scalar"):
        build(value)
