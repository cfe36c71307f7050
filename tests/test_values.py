"""The value types: construction, equality and hashing by type, immutability
and the dataclass-format repr that the internal.error records quote."""

import copy
import pickle

import pytest

from qhowe import FlagSpec, HoweSpace, LineBundleClass, Module, SlotModule
from qhowe.cli import SuiteConfig
from qhowe.geomcheck import make_spec
from qhowe.qmodule import Conventions
from qhowe.report import CheckResult, Report


def test_equality_and_hash_are_type_aware():
    howe, slot, plain = HoweSpace(2, 2), SlotModule(2, 2), (2, 2, "standard")
    assert howe == HoweSpace(2, 2, "standard") and hash(howe) == hash(HoweSpace(2, 2))
    assert howe != slot and slot != howe and howe != plain and slot != plain
    assert Module(2, (2,)) != Module(2, (2,), "flipped")
    assert Module(2, (2,)) != (2, (2,), "standard")
    keys = {howe: "howe", slot: "slot", plain: "tuple", Module(2, (2,)): "module"}
    assert len(keys) == 4
    assert keys[HoweSpace(2, 2)] == "howe" and keys[SlotModule(2, 2)] == "slot"
    assert {("basis", Module(2, (1,))): 1}.get(("basis", SlotModule(2, 1))) is None


def test_reprs_are_the_dataclass_format():
    assert repr(Conventions("standard", ("fef", -1), -1)) == (
        "Conventions(coproduct='standard', variant=('fef', -1), eps=-1)"
    )
    assert repr(Module(3, (1, None))) == "Module(rank=3, degrees=(1, None), coproduct='standard')"
    assert repr(SlotModule(2)) == "SlotModule(m=2, degree=None, coproduct='standard')"
    assert repr(HoweSpace(2, 3, "flipped")) == "HoweSpace(m=2, N=3, coproduct='flipped')"
    assert repr(make_spec(3, (1, 2), {(1, 0)})) == (
        "FlagSpec(m=3, steps=(1, 2), conds=frozenset({(1, 0)}))"
    )
    assert repr(LineBundleClass((1, -2))) == "LineBundleClass(exps=(1, -2), twist=0)"
    result = CheckResult("howe.sq_sum", {"n": 2}, "fail", "sum evaluated to 0", 1.5)
    assert repr(result) == (
        "CheckResult(id='howe.sq_sum', params={'n': 2}, status='fail', "
        "witness='sum evaluated to 0', ms=1.5)"
    )
    assert repr(Report("0.1.0", {})) == "Report(version='0.1.0', conventions={}, checks=[])"
    assert repr(SuiteConfig("geom", (1, 2), (1, 1))) == (
        "SuiteConfig(suite='geom', m_range=(1, 2), n_range=(1, 1), coproduct='standard', "
        "weyl_variant=None, grading_sign=None, beyond_desk=False)"
    )


FROZEN = [
    (Conventions("standard", ("fef", -1), -1), "eps"),
    (Module(2, (1,)), "degrees"),
    (SlotModule(2, 1), "coproduct"),
    (HoweSpace(2, 2), "N"),
    (make_spec(2, (1, 1), {(1, 0)}), "steps"),
    (LineBundleClass((0,), 1), "twist"),
]


@pytest.mark.parametrize("value, field", FROZEN)
def test_frozen_types_reject_assignment(value, field):
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, 5)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before


@pytest.mark.parametrize("value, field", FROZEN)
def test_frozen_types_copy_and_pickle(value, field):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)


def test_records_are_mutable_and_unhashable():
    result = CheckResult("a", {}, "pass")
    result.ms = 2.0
    assert result == CheckResult("a", {}, "pass", None, 2.0) != CheckResult("a", {}, "pass")
    report = Report("0.1.0", {})
    report.extend([result])
    assert report.checks == [result] and Report("0.1.0", {}).checks == []
    with pytest.raises(TypeError):
        hash(result)
    with pytest.raises(TypeError):
        hash(report)


@pytest.mark.parametrize("args, message", [
    ((3, (1, -1), frozenset()), r"negative jump size in steps=\(1, -1\)"),
    ((3, (1, 1), frozenset({(1, 1)})), r"bad condition \(1, 1\): need 0 <= j < i <= p=2"),
    ((3, (1, 1), frozenset({(3, 0)})), r"bad condition \(3, 0\): need 0 <= j < i <= p=2"),
])
def test_flagspec_validates_a_direct_call(args, message):
    with pytest.raises(ValueError, match=message):
        FlagSpec(*args)
    spec = FlagSpec(3, (1, 2), frozenset({(2, 1)}))
    assert (spec.m, spec.steps, spec.conds, spec.p, spec.b(2)) == (3, (1, 2), {(2, 1)}, 2, 3)
    assert spec == make_spec(3, [1, 2], [(2, 1)])


def test_module_validation():
    for args, message in [((0, ()), "rank must be >= 1"),
                          ((2, (1,), "twisted"), "unknown coproduct 'twisted'"),
                          ((2, (3,)), "degree 3 out of range for rank 2")]:
        with pytest.raises(ValueError, match=message):
            Module(*args)


@pytest.mark.parametrize("cls, args, message", [
    (SlotModule, (-1,), r"need m >= 1 .*: m=-1, 'standard'$"),
    (SlotModule, (2, 9), r"degree 9 out of range 0\.\.2m at m=2$"),
    (SlotModule, (2, -1), r"degree -1 out of range 0\.\.2m at m=2$"),
    (SlotModule, (2, 2, "bogus"), r"and a coproduct in .*: m=2, 'bogus'$"),
    (HoweSpace, (0, 0), r"need m >= 1 .*: m=0, 'standard'$"),
    (HoweSpace, (2, 2, "bogus"), r"and a coproduct in .*: m=2, 'bogus'$"),
])
def test_slot_module_and_howe_space_validation(cls, args, message):
    # checked in __init__, as Module checks its own, not first in a later call
    with pytest.raises(ValueError, match=message):
        cls(*args)
