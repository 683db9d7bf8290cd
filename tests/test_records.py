"""The value records: equality, hashing, printing and immutability as the
frozen dataclasses they replaced had them, and their constructor checks."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from hallwin import (
    BijectionReport,
    EnumResult,
    Node,
    Quiver,
    StandardForm,
    Truncation,
    Weight,
    decompose,
    slope_to_tree,
    tau,
    tripled_jordan,
)
from hallwin.shuffle import KernelParams
from hallwin.standard_form import SlopeTree


def fields(record) -> dict:
    return {name: getattr(record, name) for name in type(record).__slots__}


def samples() -> list:
    """One record of each class, built by its constructor from keywords."""
    q = tripled_jordan()
    form = decompose(q, (2,), Weight.make([5, -5], (2,)), tau((2,)).scale(0))
    tree = slope_to_tree(q, (2,), ((1, 5), (1, -5)))
    return [
        Quiver(vertices=(0,), edges=((0, 0),), cut=frozenset()),
        Weight(coords=(F(1), F(-1, 2)), blocks=(2,)),
        Truncation(slope_bound=F(5), max_parts=3),
        EnumResult(items=(((1, 0),),), truncated=False),
        BijectionReport(d=2, w=0, bound=8, domain_size=4, image_size=4, target_size=4,
                        violations=()),
        Node(**fields(form.nodes[0])),
        StandardForm(**fields(form)),
        SlopeTree(**fields(tree)),
        KernelParams(mode="formal"),
    ]


SAMPLES = samples()
IDS = [type(r).__name__ for r in SAMPLES]


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_equal_fields_equal_records(record):
    twin = type(record)(**fields(record))
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(tuple(fields(record).values()))


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_other_classes_are_not_equal(record):
    for other in SAMPLES:
        if type(other) is not type(record):
            assert record.__eq__(other) is NotImplemented
            assert record != other
    assert record.__eq__(tuple(fields(record).values())) is NotImplemented


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_copy_and_pickle(record):
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record


def test_different_fields_differ():
    assert Weight((F(1),), (1,)) != Weight((F(2),), (1,))
    assert Truncation(max_parts=2) != Truncation(max_parts=3)
    assert KernelParams("a2") != KernelParams("formal")


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_fields_are_read_only(record):
    for name in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert fields(record) == fields(type(record)(**fields(record)))


# printed as the dataclasses printed them
@pytest.mark.parametrize("record, text", [
    (tripled_jordan(),
     "Quiver(vertices=(0,), edges=((0, 0), (0, 0), (0, 0)), cut=frozenset({2}))"),
    (Weight.make([5, -5], (2,)),
     "Weight(coords=(Fraction(5, 1), Fraction(-5, 1)), blocks=(2,))"),
    (Truncation(), "Truncation(slope_bound=None, max_parts=None)"),
    (EnumResult((((2, 0),),), True), "EnumResult(items=(((2, 0),),), truncated=True)"),
    (SAMPLES[4], "BijectionReport(d=2, w=0, bound=8, domain_size=4, image_size=4, "
                 "target_size=4, violations=())"),
    (SAMPLES[5], "Node(lam=Weight(coords=(Fraction(-1, 1), Fraction(1, 1)), blocks=(2,)), "
                 "r=Fraction(11, 6), N=Weight(coords=(Fraction(-3, 1), Fraction(3, 1)), "
                 "blocks=(2,)), block=(0, 1), depth=0)"),
    (KernelParams(), "KernelParams(mode='a2')"),
], ids=["Quiver", "Weight", "Truncation", "EnumResult", "BijectionReport", "Node",
        "KernelParams"])
def test_repr(record, text):
    assert repr(record) == text


def test_repr_of_nested_records():
    form, tree = SAMPLES[6], SAMPLES[7]
    assert repr(form).startswith(f"StandardForm(quiver={form.quiver!r}, dims=(2,), chi=")
    assert repr(form).endswith(", partition=((1, 5), (1, -5)), leaf_blocks=((0,), (1,)))")
    assert repr(tree) == (f"SlopeTree(nodes={tree.nodes!r}, s_values={tree.s_values!r}, "
                          "c=Fraction(0, 1), partition=((1, 5), (1, -5)))")


def test_constructor_checks():
    with pytest.raises(ValueError, match="coordinate count does not match block sizes"):
        Weight((F(1), F(2)), (1, 2))
    with pytest.raises(ValueError, match=r"edge \(0,1\) out of range for 1 vertices"):
        Quiver((0,), ((0, 1),), frozenset())
    with pytest.raises(ValueError, match="cut index 1 out of range"):
        Quiver((0,), ((0, 0),), frozenset({1}))
    with pytest.raises(ValueError, match="unknown kernel mode 'bogus'"):
        KernelParams("bogus")


def test_defaults():
    assert Truncation() == Truncation(None, None)
    assert (Truncation().slope_bound, Truncation().max_parts) == (None, None)
    assert KernelParams() == KernelParams("a2")
    assert KernelParams().mode == "a2"
