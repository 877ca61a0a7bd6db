"""The wire-value representation contract of messages and effects.

Every protocol message, :class:`BatchFrame` and every effect is declared
with :func:`repro.protocols.messages.wire_value`: a frozen dataclass held
as the tuple of its fields.  These tests pin what that representation
must keep from the plain frozen dataclass it replaced — fields, repr,
class-checked equality, hash, frozenness, copy/pickle — and what a bare
tuple subclass would get wrong (falsy zero-field values, lexicographic
ordering).  Classes are found by walking the subclass trees, so one added
later is covered without touching this file.
"""

import copy
import dataclasses
import operator
import pickle
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.protocols.batch import BatchFrame
from repro.protocols.effects import (DRAIN, POLL, RECV, SEND_HALT1, Effect,
                                     Send)
from repro.protocols.messages import (ElementCMsg, ElementMsg, ElementSMsg,
                                      Halt, Message, WireValue, wire_value)


def _subclasses(base):
    found, stack = [], [base]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            # wire_value rebuilds each class (as dataclass(slots=True)
            # does); the discarded original may linger in
            # __subclasses__() until collected.  Keep the module's own.
            module = sys.modules[cls.__module__]
            if getattr(module, cls.__qualname__, None) is cls:
                found.append(cls)
    return found


CLASSES = sorted(set(_subclasses(Message) + _subclasses(Effect)),
                 key=lambda cls: cls.__qualname__)

#: Field values by name; a field named nowhere here gets a string.
SAMPLES = {
    "site": "S001", "value": 5, "conflict": False, "segment": True,
    "cost_bits": 1, "segs": 3, "pairs": (("S001", 2), ("S002", 1)),
    "dominated": True, "node": 4, "left_parent": 1, "right_parent": None,
    "nodes": ((1, None, None), (2, 1, None)), "size_bytes": 7,
    "message": ElementSMsg("S001", 5, False, True),
    "entries": ((0, (ElementSMsg("S001", 5, False, True), Halt(1))),),
}


def _names(cls):
    return [field.name for field in dataclasses.fields(cls)]


def _values(cls):
    return tuple(SAMPLES.get(name, f"{cls.__name__}.{name}")
                 for name in _names(cls))


def _instance(cls):
    return cls(*_values(cls))


def _twin(cls):
    """The plain frozen dataclass the class used to be."""
    return dataclasses.make_dataclass(cls.__name__, _names(cls), frozen=True)


by_class = pytest.mark.parametrize("cls", CLASSES,
                                   ids=lambda cls: cls.__qualname__)


def test_every_message_and_effect_is_found():
    names = {cls.__qualname__ for cls in CLASSES}
    assert {"ElementMsg", "ElementCMsg", "ElementSMsg", "Halt", "Skip",
            "FullVectorMsg", "KnowledgeMsg", "CompareLeast", "VerdictBit",
            "GraphNodeMsg", "SkipToMsg", "AbortMsg", "FullGraphMsg",
            "PayloadMsg", "BatchFrame", "Send", "Recv", "Poll",
            "Drain", "SendAll"} <= names


@by_class
def test_is_a_tuple_of_its_fields(cls):
    instance = _instance(cls)
    assert isinstance(instance, WireValue)
    assert tuple(instance) == _values(cls)
    assert len(instance) == len(_names(cls))
    for name, value in zip(_names(cls), _values(cls)):
        assert getattr(instance, name) == value
    assert tuple.__new__(cls, _values(cls)) == instance


@by_class
def test_fields_repr_eq_hash_match_the_dataclass(cls):
    instance, twin = _instance(cls), _twin(cls)(*_values(cls))
    assert dataclasses.is_dataclass(instance)
    assert _names(cls) == [f.name for f in dataclasses.fields(twin)]
    if "__repr__" not in vars(cls):
        assert repr(instance) == repr(twin)
    assert hash(instance) == hash(twin) == hash(_values(cls))
    assert instance == cls(*_values(cls))
    assert not instance != cls(*_values(cls))
    assert dataclasses.asdict(instance) == dataclasses.asdict(twin)


@by_class
def test_replace_rebuilds_through_the_constructor(cls):
    instance = _instance(cls)
    assert dataclasses.replace(instance) == instance
    names = _names(cls)
    if names:
        changed = dataclasses.replace(instance, **{names[0]: 0})
        assert type(changed) is cls
        assert tuple(changed) == (0,) + _values(cls)[1:]


@by_class
def test_equality_is_class_checked(cls):
    instance = _instance(cls)
    assert instance != _values(cls) and not instance == _values(cls)
    assert _values(cls) != instance
    for other in CLASSES:
        if other is not cls and len(_names(other)) == len(_names(cls)):
            lookalike = other(*_values(cls))
            assert instance != lookalike and not instance == lookalike


@by_class
def test_every_instance_is_truthy(cls):
    assert _instance(cls)


@by_class
def test_ordering_stays_unsupported(cls):
    instance = _instance(cls)
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        for left, right in ((instance, instance), (instance, _values(cls)),
                            (_values(cls), instance)):
            with pytest.raises(TypeError):
                compare(left, right)


@by_class
def test_copy_deepcopy_and_pickle_round_trip(cls):
    instance = _instance(cls)
    for clone in (copy.copy(instance), copy.deepcopy(instance),
                  pickle.loads(pickle.dumps(instance))):
        assert type(clone) is cls and clone == instance


@by_class
def test_every_field_is_frozen(cls):
    instance = _instance(cls)
    for name in _names(cls) + ["not_a_field"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(instance, name)
    assert tuple(instance) == _values(cls)


@by_class
def test_no_instance_dict(cls):
    instance = _instance(cls)
    assert not hasattr(instance, "__dict__")
    with pytest.raises(TypeError):
        vars(instance)


def test_shared_effect_instances():
    assert len({RECV, POLL, DRAIN}) == 3
    assert SEND_HALT1 == Send(Halt(1)) != Send(Halt(2))


def test_constructor_keeps_dataclass_defaults_and_keywords():
    assert Halt() == Halt(2) == Halt(cost_bits=2)
    assert ElementSMsg(site="a", value=1, conflict=True,
                       segment=False) == ElementSMsg("a", 1, True, False)
    with pytest.raises(TypeError):
        ElementSMsg("a", 1)
    assert repr(BatchFrame(((0, (Halt(1),)),))) == "BatchFrame(0:1msg)"


def test_wire_value_requires_the_tuple_base():
    with pytest.raises(TypeError):
        @wire_value
        class Plain:
            x: int


rows = st.tuples(st.text(max_size=6), st.integers(0, 2**40), st.booleans(),
                 st.booleans())


@given(row=rows)
def test_tuple_new_builds_what_the_constructor_builds(row):
    site, value, conflict, segment = row
    built = tuple.__new__(ElementSMsg, row)
    assert built == ElementSMsg(*row)
    assert (built.site, built.value, built.conflict,
            built.segment) == row
    assert tuple.__new__(ElementCMsg, row[:3]) == ElementCMsg(site, value,
                                                               conflict)
    assert tuple.__new__(ElementMsg, row[:2]) == ElementMsg(site, value)
    assert tuple.__new__(Send, (built,)) == Send(ElementSMsg(*row))
