"""The immutable value classes of mcmrep against the frozen dataclasses they
were written as (oracles.DATACLASS_ORACLES): repr, equality, hashing,
construction and immutability agree."""

import dataclasses
from dataclasses import FrozenInstanceError

import pytest

from mcmrep.families import NamedModulePoint, example_algebra_x2, module_point_In, module_point_R
from mcmrep.fields import GF, QQ
from mcmrep.graded import GradedAlgebra, HilbertSeries, ShiftType
from mcmrep.orbits import GroupElement, HomComponentBasis, OrbitCensus, OrbitRecord, hom_component
from mcmrep.repvariety import RepIdeal, Unknown, build_defining_ideal, parameterize

from oracles import DATACLASS_ORACLES

V01 = ShiftType((0, 1))


def _graded_algebra():
    R = example_algebra_x2()
    return (R.ring, list(R.relations), ["y"]), (R.ring, R.relations, ("x",))


def _hilbert_series():
    return (((0, 1), (1, 1)), (1,)), (((0, 1),), (1,))


def _named_module_point():
    R, I1 = module_point_R(), module_point_In(1)
    return ("R", R.point, R.type), ("I_1", I1.point, I1.type)


def _rep_ideal():
    R = example_algebra_x2()
    rep, other = build_defining_ideal(R, V01), parameterize(R, ShiftType((0, 0)))
    return (rep.parameter_space, rep.ideal), (other, rep.ideal)


def _hom_component_basis():
    mu = module_point_R().point
    E = hom_component(mu, mu, 0)
    return (0, mu, mu, E.slots, E.vectors), (1, mu, mu, E.slots, E.vectors)


def _group_element():
    s_ring = example_algebra_x2().s_ring()
    g = {(0, 0, (0,)): 1, (1, 1, (0,)): 1}
    return (V01, s_ring, g, dict(g)), (V01, s_ring, g, {(0, 0, (0,)): 1})


# class name -> the class, and a function giving two different tuples of
# positional arguments
CASES = {
    "GradedAlgebra": (GradedAlgebra, _graded_algebra),
    "ShiftType": (ShiftType, lambda: (([3, 1, 1],), ((1, 3),))),
    "HilbertSeries": (HilbertSeries, _hilbert_series),
    "NamedModulePoint": (NamedModulePoint, _named_module_point),
    "Unknown": (Unknown, lambda: (("u1", "x", 0, 1, (2,)), ("u1", "x", 1, 0, (2,)))),
    "RepIdeal": (RepIdeal, _rep_ideal),
    "HomComponentBasis": (HomComponentBasis, _hom_component_basis),
    "GroupElement": (GroupElement, _group_element),
    "OrbitRecord": (OrbitRecord, lambda: (((0, 1), 2, 3, "R"), ((0, 1), 2, 3, "I_1"))),
    "OrbitCensus": (OrbitCensus, lambda: ((13, 12, 13, ()), (13, 12, 14, ()))),
}


def test_every_value_class_has_its_oracle():
    assert set(CASES) == set(DATACLASS_ORACLES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_class_behaves_as_its_dataclass(name):
    cls, make = CASES[name]
    oracle = DATACLASS_ORACLES[name]
    args, other_args = make()
    names = [f.name for f in dataclasses.fields(oracle) if f.init]
    kwargs = dict(zip(names, args))
    a, b, c = cls(*args), cls(**kwargs), cls(*other_args)
    oa, ob, oc = oracle(*args), oracle(**kwargs), oracle(*other_args)

    assert repr(a) == repr(b) == repr(oa) == repr(ob)
    assert repr(c) == repr(oc) != repr(a)
    for field in names:
        assert getattr(a, field) == getattr(b, field) == getattr(oa, field)
    # equal values, different values, and another class, as the dataclass has them
    assert (a == b, a != b) == (oa == ob, oa != ob) == (True, False)
    assert (a == c, a != c) == (oa == oc, oa != oc) == (False, True)
    assert a != oa and oa != a and not a == oa
    assert a.__eq__(oa) is NotImplemented and a.__eq__(None) is NotImplemented

    if name == "GroupElement":  # its maps are dicts
        for x in (a, oa):
            with pytest.raises(TypeError, match="unhashable"):
                hash(x)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2 and b in {a}

    # a name that is no field is refused too; the oracle is not asked, as a
    # slots=True dataclass on Python 3.11 raises TypeError there
    for x, attrs in ((a, names + ["other"]), (oa, names)):
        for attr in attrs:
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{attr}'"):
                setattr(x, attr, None)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{attr}'"):
                delattr(x, attr)
    assert repr(a) == repr(oa)


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_class_binds_arguments_as_its_dataclass(name):
    cls, make = CASES[name]
    oracle = DATACLASS_ORACLES[name]
    args, _ = make()
    names = [f.name for f in dataclasses.fields(oracle) if f.init]
    first, last = names[0], names[-1]
    # a missing, surplus, repeated or unknown argument, and the field named
    bad = (
        ((args[:-1], {}), last),
        (((), dict(zip(names[1:], args[1:]))), first),
        ((args + (None,), {}), ""),
        ((args, {first: args[0]}), first),
        ((args, {last: args[-1]}), last),
        ((args, {"other": None}), "other"),
    )
    for make_value in (cls, oracle):
        for (positional, keywords), field in bad:
            with pytest.raises(TypeError, match=f"'{field}'" if field else "given"):
                make_value(*positional, **keywords)
    # positional and keyword arguments mixed build the all-positional value
    for split in range(len(args) + 1):
        mixed = cls(*args[:split], **dict(zip(names[split:], args[split:])))
        assert mixed == cls(*args) and repr(mixed) == repr(oracle(*args))
        if name != "GroupElement":  # its maps are dicts
            assert hash(mixed) == hash(cls(*args))


def test_algebra_caches_stay_out_of_equality_hashing_and_repr():
    R, fresh = example_algebra_x2(), example_algebra_x2()
    oracle = DATACLASS_ORACLES["GradedAlgebra"](R.ring, R.relations, R.normalization)
    R.s_ring(GF(7))
    R.relation_ideal().groebner_basis()
    R.normalization_ideal()
    parameterize(R, V01)
    assert R._s_rings and R._spaces and R._relation_ideal and R._normalization_ideal
    assert R == fresh and hash(R) == hash(fresh) and repr(R) == repr(fresh) == repr(oracle)
    assert not fresh._s_rings and not fresh._spaces
    assert fresh._relation_ideal is None and fresh._normalization_ideal is None
    with pytest.raises(FrozenInstanceError):
        R._spaces = {}
    assert R.s_ring() is R.s_ring(QQ)


def test_value_classes_keep_no_instance_dict():
    for cls, make in CASES.values():
        assert not hasattr(cls(*make()[0]), "__dict__")
