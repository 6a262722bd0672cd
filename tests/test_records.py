"""The value-record contract every exported model and result class keeps."""

import copy
import pickle
from fractions import Fraction

import pytest

import nodalstab
from nodalstab import (
    AmpleDegrees,
    BalanceResult,
    BundleClass,
    Component,
    GluingFlag,
    GpbClass,
    Ordering,
    Polarization,
    PrimeField,
    RationalField,
    TreeLikeCurve,
    TruncatedMatrix,
    TruncatedScalar,
    TwistDivisor,
    Window,
    balance,
)
from nodalstab.errors import Record
from nodalstab.gpb import KernelSectionVerdict, PhiNumbers, ProjectionVerdict
from nodalstab.truncated import DetTraceVerdict, SlKernelVerdict

# class -> (a builder called twice, the dataclass-form repr, hashable)
RECORDS = {
    Component: (lambda: Component(3, geometric_genus=1),
                "Component(id=3, geometric_genus=1, internal_nodes=0)", True),
    TreeLikeCurve: (lambda: TreeLikeCurve(components=(Component(2), Component(1)),
                                          edges=((2, 1),)),
                    "TreeLikeCurve(components=(Component(id=1, geometric_genus=0, "
                    "internal_nodes=0), Component(id=2, geometric_genus=0, "
                    "internal_nodes=0)), edges=((1, 2),))", True),
    Ordering: (lambda: Ordering(perm=(2, 1), nu=(2,)), "Ordering(perm=(2, 1), nu=(2,))", True),
    BundleClass: (lambda: BundleClass(2, {1: 3}), "BundleClass(rank=2, multidegree={1: 3})",
                  False),
    TwistDivisor: (lambda: TwistDivisor(coeffs={1: -1}), "TwistDivisor(coeffs={1: -1})", False),
    Polarization: (lambda: Polarization({1: 1}), "Polarization(weights={1: Fraction(1, 1)})",
                   False),
    AmpleDegrees: (lambda: AmpleDegrees(degrees={1: 2}), "AmpleDegrees(degrees={1: 2})", False),
    Window: (lambda: Window(1, 7, 3, -2, 5, 2),
             "Window(i=1, component=7, value=3, lo=-2, den=5, rank=2)", False),
    BalanceResult: (lambda: BalanceResult(Ordering((1,), ()), TwistDivisor({1: 0}),
                                          BundleClass(1, {1: 0}), ()),
                    "BalanceResult(ordering=Ordering(perm=(1,), nu=()), "
                    "twist=TwistDivisor(coeffs={1: 0}), "
                    "balanced=BundleClass(rank=1, multidegree={1: 0}), windows=())", False),
    GpbClass: (lambda: GpbClass(2, 3, nodes=1),
               "GpbClass(rank=2, degree=3, nodes=1, flag_dims=((2, 2),))", True),
    PrimeField: (lambda: PrimeField(5), "PrimeField(p=5)", True),
    RationalField: (RationalField, "RationalField()", True),
    GluingFlag: (lambda: GluingFlag(PrimeField(5), 1, [[1, 6]]),
                 "GluingFlag(field=PrimeField(p=5), rank=1, basis_matrix=((1, 1),))", True),
    TruncatedScalar: (lambda: TruncatedScalar(5, 1, (1, 7)),
                      "TruncatedScalar(p=5, n=1, coeffs=(1, 2))", True),
    TruncatedMatrix: (lambda: TruncatedMatrix(5, 0, [[(6,)]]),
                      "TruncatedMatrix(p=5, n=0, entries=((TruncatedScalar(p=5, n=0, "
                      "coeffs=(1,)),),))", True),
}


def test_every_exported_record_class_is_listed():
    exported = {obj for obj in map(nodalstab.__getattribute__, nodalstab.__all__)
                if isinstance(obj, type) and issubclass(obj, Record)}
    assert exported == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    build, text, hashable = RECORDS[cls]
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert repr(a) == text
    # same fields, another class: never equal
    twin = type(cls.__name__, (cls,), {"__slots__": ()})
    other = twin.__new__(twin)
    for name in cls._fields:
        object.__setattr__(other, name, getattr(a, name))
    assert a != other and other != a
    assert a.__eq__(other) is NotImplemented
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.copy(a) == a
    assert not hasattr(a, "__dict__")   # every record is slotted
    if cls is Window:   # the one mutable record
        a.value += 1
        assert a != b
        return
    for name in cls._fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        if name in cls._fields:
            with pytest.raises(AttributeError):
                delattr(a, name)
    assert a == b


def test_a_balance_result_keeps_its_windows_and_steps_through_a_round_trip():
    # the two-component path of tests/test_balance.py: one step, two windows
    path2 = TreeLikeCurve(components=(Component(1, geometric_genus=1),
                                      Component(2, geometric_genus=1)), edges=((1, 2),))
    result = balance(path2, BundleClass(2, {1: 5, 2: -1}),
                     Polarization({1: Fraction(1, 2), 2: Fraction(1, 2)}))
    assert result.windows == (Window(1, 1, 3, 2, 2, 2), Window(2, 2, 4, 8, 2, 2))
    assert result.steps == (Window(1, 1, 5, 2, 2, 2),)   # the chi sum before the step
    for other in (pickle.loads(pickle.dumps(result)), copy.copy(result), copy.deepcopy(result)):
        assert other == result and repr(other) == repr(result)
        assert other.steps == result.steps


def test_the_base_constructor_takes_each_field_once():
    assert PhiNumbers(1, 2, chi=3) == PhiNumbers(rank=1, degree=2, chi=3)
    assert repr(PhiNumbers(1, 2, 3)) == "PhiNumbers(rank=1, degree=2, chi=3)"
    for args, kwargs in (((1, 2), {}), ((1, 2, 3, 4), {}), ((1, 2), {"rank": 1}),
                         ((1, 2, 3), {"chi": 3}), ((), {"rank": 1, "degree": 2, "phi": 3})):
        with pytest.raises(TypeError, match="PhiNumbers takes the fields rank, degree, chi"):
            PhiNumbers(*args, **kwargs)


# unexported verdicts the base constructor builds: class -> (field values, repr)
VERDICTS = {
    ProjectionVerdict: ((True, False), "ProjectionVerdict(pr1_iso=True, pr2_iso=False)"),
    KernelSectionVerdict: ((0, 2), "KernelSectionVerdict(dim_meet_p_side=0, dim_meet_q_side=2)"),
    DetTraceVerdict: ((TruncatedScalar(5, 1, (1, 3)), TruncatedScalar(5, 1, (1, 3)), True),
                      "DetTraceVerdict(lhs=TruncatedScalar(p=5, n=1, coeffs=(1, 3)), "
                      "rhs=TruncatedScalar(p=5, n=1, coeffs=(1, 3)), holds=True)"),
    SlKernelVerdict: ((True, False, None, False, False, True),
                      "SlKernelVerdict(det_is_one=True, reduces_to_identity=False, "
                      "trace_residue=None, in_kernel=False, trace_condition=False, "
                      "biconditional_holds=True)"),
}


@pytest.mark.parametrize("cls", VERDICTS, ids=lambda cls: cls.__name__)
def test_unexported_verdict_contract(cls):
    values, text = VERDICTS[cls]
    a, b = cls(*values), cls(**dict(zip(cls._fields, values)))
    assert type(a) is cls and a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != cls(*values[:-1], "other")
    assert repr(a) == repr(b) == text
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    for name in cls._fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        if name in cls._fields:
            with pytest.raises(AttributeError):
                delattr(a, name)
    assert a == b


@pytest.mark.parametrize("cls", VERDICTS, ids=lambda cls: cls.__name__)
def test_the_keyword_path_refuses_what_the_positional_path_refuses(cls):
    values = VERDICTS[cls][0]
    fields = dict(zip(cls._fields, values))
    first = cls._fields[0]
    missing = {k: v for k, v in fields.items() if k != first}
    for args, kwargs in (((), missing), ((), dict(fields, extra=1)),
                         ((), dict(missing, extra=1)), (values[:1], fields),
                         (values + (1,), {})):
        with pytest.raises(TypeError, match=f"^{cls.__name__} takes the fields {first}, "):
            cls(*args, **kwargs)


def test_a_record_with_no_fields_says_it_takes_none():
    # RationalField(1) raised "RationalField takes the fields " with nothing after it
    for args, kwargs in (((1,), {}), ((), {"p": 5})):
        with pytest.raises(TypeError, match="^RationalField takes no fields$"):
            RationalField(*args, **kwargs)
    assert RationalField() == RationalField()
