"""The semantics of the five immutable records: construction by position and
by keyword with their defaults, equality, hash, repr, and no assignment."""

import importlib

import pytest

from qortho import DomainError, ParamSet4, PhiSpec, ReducedParams, VerificationReport
from qortho.qcore import Record
from qortho.verify import REGISTRY, Identity, IdentityId


def _draw(rng, box, q, degree_max):
    return {}


# Per record: (positional construction, keyword construction, the field values
# in order, the repr text).  Each pair of constructions builds equal records.
CASES = {
    "ParamSet4": (
        lambda: ParamSet4(0.2, 0.1, 0.8, 0.9),
        lambda: ParamSet4(delta=0.9, gamma=0.8, beta=0.1, alpha=0.2),
        (0.2 + 0j, 0.1 + 0j, 0.8 + 0j, 0.9 + 0j),
        "ParamSet4(alpha=(0.2+0j), beta=(0.1+0j), gamma=(0.8+0j), delta=(0.9+0j))"),
    "ReducedParams": (
        lambda: ReducedParams(0.3, 0.2j), lambda: ReducedParams(b=0.2j, a=0.3),
        (0.3 + 0j, 0.2j), "ReducedParams(a=(0.3+0j), b=0.2j)"),
    "PhiSpec": (
        lambda: PhiSpec((0.3,), [0.5], 0.5, 0.4),
        lambda: PhiSpec(z=0.4, q=0.5 + 0j, denominators=(0.5,), numerators=[0.3]),
        ((0.3 + 0j,), (0.5 + 0j,), 0.5 + 0j, 0.4 + 0j, None),
        "PhiSpec(numerators=((0.3+0j),), denominators=((0.5+0j),), q=(0.5+0j), "
        "z=(0.4+0j), terminates_at=None)"),
    "VerificationReport": (
        lambda: VerificationReport("QBINOMIAL", {"a": 0.5}, 1 + 0j, 1 + 0j, 0.0, ()),
        lambda: VerificationReport(flags=[], scale=0.0, rhs=1, lhs=1 + 0j, inputs={"a": 0.5},
                                   identity_id=IdentityId.QBINOMIAL),
        ("QBINOMIAL", {"a": 0.5}, 1 + 0j, 1 + 0j, 0.0, 0.0, 1e-11, True, ()),
        "VerificationReport(identity_id='QBINOMIAL', inputs={'a': 0.5}, lhs=(1+0j), "
        "rhs=(1+0j), abs_residual=0.0, rel_residual=0.0, tolerance=1e-11, passed=True, "
        "flags=())"),
    "Identity": (
        lambda: Identity(IdentityId.QBINOMIAL, 1e-11, {}, _draw),
        lambda: Identity(draw=_draw, box={}, tolerance=1e-11, id=IdentityId.QBINOMIAL),
        (IdentityId.QBINOMIAL, 1e-11, {}, _draw),
        "Identity(id=<IdentityId.QBINOMIAL: 'QBINOMIAL'>, tolerance=1e-11, box={}, "
        f"draw={_draw!r})"),
}
FIELDS = {
    "ParamSet4": ("alpha", "beta", "gamma", "delta"),
    "ReducedParams": ("a", "b"),
    "PhiSpec": ("numerators", "denominators", "q", "z", "terminates_at"),
    "VerificationReport": ("identity_id", "inputs", "lhs", "rhs", "abs_residual",
                           "rel_residual", "tolerance", "passed", "flags"),
    "Identity": ("id", "tolerance", "box", "draw"),
}
# Records with a dict field, which makes them unhashable.
UNHASHABLE = {"VerificationReport", "Identity"}


@pytest.mark.parametrize("name", CASES)
def test_fields_equality_and_repr(name):
    positional, keyword, values, text = CASES[name]
    record = positional()
    assert type(record).__name__ == name
    assert tuple(getattr(record, field) for field in FIELDS[name]) == values
    assert record == keyword() and not record != keyword()
    assert repr(record) == repr(keyword()) == text


@pytest.mark.parametrize("name", CASES)
def test_hash_is_that_of_the_field_tuple(name):
    record = CASES[name][0]()
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(CASES[name][1]()) == hash(CASES[name][2])


@pytest.mark.parametrize("name", CASES)
def test_records_are_read_only(name):
    record = CASES[name][0]()
    for field in FIELDS[name]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert tuple(getattr(record, field) for field in FIELDS[name]) == CASES[name][2]


@pytest.mark.parametrize("name", CASES)
def test_equality_needs_the_same_class(name):
    record = CASES[name][0]()
    assert record != CASES[name][2]
    assert record.__eq__(CASES[name][2]) is NotImplemented


def test_records_differing_in_one_field_differ():
    assert PhiSpec((0.3,), (), 0.5, 0.4) != PhiSpec((0.3,), (), 0.25, 0.4)
    assert ParamSet4(0.2, 0.1, 0.8, 0.9) != ParamSet4(0.2, 0.1, 0.8, 0.95)
    assert REGISTRY[IdentityId.THM_1_1] != REGISTRY[IdentityId.THM_1_2]
    assert REGISTRY[IdentityId.THM_1_1] == REGISTRY[IdentityId.THM_1_1]


def test_phispec_terminates_at_is_computed_not_passed():
    assert PhiSpec((0.5 ** -2,), (), 0.5, 2.0).terminates_at == 2
    with pytest.raises(TypeError):
        PhiSpec((0.3,), (), 0.5, 0.4, terminates_at=3)
    with pytest.raises(TypeError):
        PhiSpec((0.3,), (), 0.5, 0.4, 3)


def test_missing_or_extra_arguments_are_type_errors():
    with pytest.raises(TypeError):
        ParamSet4(0.2, 0.1, 0.8)
    with pytest.raises(TypeError):
        PhiSpec((0.3,), (), 0.5)
    with pytest.raises(TypeError):
        ReducedParams(0.3, 0.2, 0.1)
    with pytest.raises(TypeError):
        VerificationReport("QBINOMIAL", {}, 1 + 0j)


@pytest.mark.parametrize("verdict", [{"passed": True}, {"rel_residual": 0.0},
                                     {"tolerance": 1.0}, {"abs_residual": 0.0}])
def test_a_report_takes_no_verdict(verdict):
    # a report computes its residuals, tolerance and verdict from its sides,
    # so none of them can disagree with the others
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        VerificationReport("QBINOMIAL", {}, 1 + 0j, 2 + 0j, **verdict)
    with pytest.raises(TypeError, match="positional arguments"):
        VerificationReport("QBINOMIAL", {}, 1 + 0j, 2 + 0j, 0.0, (), *verdict.values())


def test_validation_still_runs_in_the_constructor():
    with pytest.raises(DomainError):
        PhiSpec((0.3,), (), 1.0, 0.4)
    with pytest.raises(DomainError):
        ParamSet4(1.0, 0.1, 0.8, 0.9)
    with pytest.raises(DomainError):
        ReducedParams(0.3, 1.0)
    with pytest.raises(DomainError):
        PhiSpec((0.3,), (), 0.5, 1.5)


def test_the_package_has_five_records():
    # the parameter types, the series spec, the report and the registry record
    for module in ("cli", "kernels", "qfun", "quad"):
        importlib.import_module(f"qortho.{module}")
    records = {cls.__name__ for cls in Record.__subclasses__()
               if cls.__module__.startswith("qortho.")}
    assert records == set(CASES) == set(FIELDS)
    assert len(records) == 5
