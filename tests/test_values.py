"""The contract of the kit's 23 value types, pinned class by class.

For each class: the parameters of its constructor (names, kinds and
defaults; annotations are not read), one sample ``repr``, equality by
fields, the hash (that of the field tuple for a frozen type, none for a
mutable one) and that a frozen type refuses assignment.  ``AbstractSheaf``
compares and hashes by identity.  A constructor that took ``*args,
**kwargs`` would bind any call, so the signatures are pinned here, and
``test_hygiene.py::test_the_calls_the_benchmark_workloads_make_bind``
stays meaningful.  A copy and a pickle round trip keep the value, and
``dataclasses.replace`` and ``dataclasses.fields`` still read every type
(the benchmark's own tests rebuild scan rows with ``replace``).
"""

import copy
import dataclasses
import inspect
import pickle
from fractions import Fraction

import pytest

from ulrich_kit import (
    AbstractSheaf,
    ChargeValue,
    CohomologyTable,
    Collection,
    Criterion,
    DirectSum,
    EllipticWitness,
    ExternalTensor,
    FormalComplex,
    GateResult,
    GlueWitness,
    HeartVerdict,
    HyperTableResult,
    K0Class,
    LineBundle,
    MembershipVerdict,
    NumClass,
    PushforwardReport,
    ScanRow,
    SemistableEC,
    Spinor,
    TriangleVerdict,
    UlrichVerdict,
    VarietyModel,
)
from ulrich_kit.errors import MalformedDescriptor

P1 = VarietyModel("projective", 1, 1, 1, Fraction(-2), 2, 1)
P1_REPR = (
    "VarietyModel(kind='projective', dim=1, deg=1, chi0=1, canonical_coeff=Fraction(-2, 1),"
    " k0_rank=2, ambient_dim=1, factors=None)"
)
O0, O1 = LineBundle((0,)), LineBundle((1,))
TABLE = CohomologyTable((0, 0))
TABLE_REPR = "CohomologyTable(window=(0, 0), entries={})"
REQUIRED = inspect.Parameter.empty

# class: (sample arguments, parameters as (name, value when omitted or
# REQUIRED), repr of the sample, frozen)
CONTRACT = {
    LineBundle: (((1, -2),), [("twists", REQUIRED)], "LineBundle(twists=(1, -2))", True),
    Spinor: (("+",), [("sign", None)], "Spinor(sign='+')", True),
    SemistableEC: (
        (2, 3),
        [("rank", REQUIRED), ("degree", REQUIRED), ("trivial_type", None)],
        "SemistableEC(rank=2, degree=3, trivial_type=None)",
        True,
    ),
    DirectSum: (
        (((O0, 2), (O1, 1)),),
        [("parts", REQUIRED)],
        "DirectSum(parts=((LineBundle(twists=(0,)), 2), (LineBundle(twists=(1,)), 1)))",
        True,
    ),
    ExternalTensor: (
        (O1, O0),
        [("left", REQUIRED), ("right", REQUIRED)],
        "ExternalTensor(left=LineBundle(twists=(1,)), right=LineBundle(twists=(0,)))",
        True,
    ),
    AbstractSheaf: (
        (2,),
        [("rank", REQUIRED), ("label", "abstract"), ("num_class", None), ("table", None)],
        "AbstractSheaf(rank=2, label='abstract', num_class=None, table=None)",
        True,
    ),
    VarietyModel: (
        ("projective", 1, 1, 1, Fraction(-2), 2, 1),
        [
            ("kind", REQUIRED),
            ("dim", REQUIRED),
            ("deg", REQUIRED),
            ("chi0", REQUIRED),
            ("canonical_coeff", REQUIRED),
            ("k0_rank", REQUIRED),
            ("ambient_dim", REQUIRED),
            ("factors", None),
        ],
        P1_REPR,
        True,
    ),
    NumClass: (
        (P1, 2, 3),
        [("model", REQUIRED), ("r", REQUIRED), ("e1", REQUIRED), ("e2", None)],
        f"NumClass(model={P1_REPR}, r=2, e1=Fraction(3, 1), e2=None)",
        True,
    ),
    GlueWitness: (
        (0, -1),
        [("from_degree", REQUIRED), ("to_degree", REQUIRED), ("nonzero", True)],
        "GlueWitness(from_degree=0, to_degree=-1, nonzero=True)",
        True,
    ),
    FormalComplex: (
        (P1, ((0, O1), (-1, O0))),
        [("model", REQUIRED), ("sheaves", REQUIRED), ("glue", ())],
        f"FormalComplex(model={P1_REPR}, sheaves=((-1, LineBundle(twists=(0,))),"
        " (0, LineBundle(twists=(1,)))), glue=())",
        True,
    ),
    HyperTableResult: (
        (TABLE, False),
        [("table", REQUIRED), ("glued", REQUIRED)],
        f"HyperTableResult(table={TABLE_REPR}, glued=False)",
        False,
    ),
    TriangleVerdict: (
        ("G", None, {0: 1}, True),
        [
            ("third_role", REQUIRED),
            ("witness", REQUIRED),
            ("implied_euler", REQUIRED),
            ("chi_additive", REQUIRED),
        ],
        "TriangleVerdict(third_role='G', witness=None, implied_euler={0: 1}, chi_additive=True)",
        False,
    ),
    PushforwardReport: (
        (P1, TABLE, {0: 1}, None, True),
        [
            ("target", REQUIRED),
            ("table", REQUIRED),
            ("multiplicities", REQUIRED),
            ("witness", REQUIRED),
            ("reconstruction_ok", REQUIRED),
        ],
        f"PushforwardReport(target={P1_REPR}, table={TABLE_REPR}, multiplicities={{0: 1}},"
        " witness=None, reconstruction_ok=True)",
        False,
    ),
    K0Class: (
        (P1, (1, Fraction(1, 2))),
        [("model", REQUIRED), ("coords", REQUIRED)],
        f"K0Class(model={P1_REPR}, coords=(1, Fraction(1, 2)))",
        True,
    ),
    GateResult: (
        (1, 2),
        [("rank", REQUIRED), ("needed", REQUIRED)],
        "GateResult(rank=1, needed=2)",
        False,
    ),
    Collection: (
        (P1, (O0, O1)),
        [("model", REQUIRED), ("members", REQUIRED), ("kind", "custom")],
        f"Collection(model={P1_REPR}, members=(LineBundle(twists=(0,)),"
        " LineBundle(twists=(1,))), kind='custom')",
        True,
    ),
    MembershipVerdict: (
        (("O(1)", 0, -1, 2),),
        [("witness", None)],
        "MembershipVerdict(witness=('O(1)', 0, -1, 2))",
        False,
    ),
    EllipticWitness: (
        (SemistableEC(1, 3, False), UlrichVerdict("direct")),
        [("descriptor", REQUIRED), ("verdict", REQUIRED)],
        "EllipticWitness(descriptor=SemistableEC(rank=1, degree=3, trivial_type=False),"
        " verdict=UlrichVerdict(mode='direct', criteria=[]))",
        False,
    ),
    Criterion: (
        ("acm", (-1, 0)),
        [("name", REQUIRED), ("twists", REQUIRED), ("witness", None), ("note", "")],
        "Criterion(name='acm', twists=(-1, 0), witness=None, note='')",
        False,
    ),
    UlrichVerdict: (
        ("both", [Criterion("direct", (-1,))]),
        [("mode", REQUIRED), ("criteria", [])],
        "UlrichVerdict(mode='both', criteria=[Criterion(name='direct', twists=(-1,),"
        " witness=None, note='')])",
        False,
    ),
    ChargeValue: (
        (Fraction(1, 2), Fraction(-3)),
        [("re", REQUIRED), ("im", REQUIRED)],
        "ChargeValue(re=Fraction(1, 2), im=Fraction(-3, 1))",
        True,
    ),
    HeartVerdict: (
        ("MaybeInHeart", None, 0, Fraction(1, 3), "paper-literal"),
        [
            ("status", REQUIRED),
            ("reason", REQUIRED),
            ("best_shift", REQUIRED),
            ("s", REQUIRED),
            ("convention", REQUIRED),
        ],
        "HeartVerdict(status='MaybeInHeart', reason=None, best_shift=0, s=Fraction(1, 3),"
        " convention='paper-literal')",
        False,
    ),
    ScanRow: (
        (Fraction(1), Fraction(2), 0, "MaybeInHeart", None, Fraction(-1), Fraction(3), False,
         "upper-half", 0.5),
        [
            ("s", REQUIRED),
            ("t", REQUIRED),
            ("best_shift", REQUIRED),
            ("heart_status", REQUIRED),
            ("heart_reason", REQUIRED),
            ("re", REQUIRED),
            ("im", REQUIRED),
            ("im_zero", REQUIRED),
            ("phase_sector", REQUIRED),
            ("phase_display", REQUIRED),
        ],
        "ScanRow(s=Fraction(1, 1), t=Fraction(2, 1), best_shift=0, heart_status='MaybeInHeart',"
        " heart_reason=None, re=Fraction(-1, 1), im=Fraction(3, 1), im_zero=False,"
        " phase_sector='upper-half', phase_display=0.5)",
        False,
    ),
}
CLASSES = list(CONTRACT)


def test_the_contract_names_every_value_type():
    assert len(CONTRACT) == 23


def names_of(cls):
    return [name for name, _ in CONTRACT[cls][1]]


def values_of(obj):
    return tuple(getattr(obj, name) for name in names_of(type(obj)))


def sample(cls):
    return cls(*CONTRACT[cls][0])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_the_constructor_keeps_its_parameters_and_defaults(cls):
    args, params, _, _ = CONTRACT[cls]
    signature = inspect.signature(cls)
    assert [p.name for p in signature.parameters.values()] == names_of(cls)
    assert all(
        p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in signature.parameters.values()
    )
    required = [name for name, omitted in params if omitted is REQUIRED]
    assert [p.name for p in signature.parameters.values() if p.default is REQUIRED] == required
    bare = cls(*args[: len(required)])
    for name, omitted in params:
        if omitted is not REQUIRED:
            assert getattr(bare, name) == omitted, name
    by_keyword = cls(**dict(zip(names_of(cls), args)))
    assert repr(by_keyword) == repr(sample(cls))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_the_repr_is_the_field_form(cls):
    assert repr(sample(cls)) == CONTRACT[cls][2]
    assert str(sample(cls)) == CONTRACT[cls][2]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hash_follow_the_fields(cls):
    obj, twin = sample(cls), sample(cls)
    frozen = CONTRACT[cls][3]
    assert obj == obj and not obj != obj
    if cls is AbstractSheaf:
        assert obj != twin and hash(obj) == object.__hash__(obj)
        assert len({obj, twin}) == 2
        return
    assert obj == twin and not obj != twin
    assert obj != values_of(obj) and values_of(obj) != obj
    if frozen:
        assert hash(obj) == hash(values_of(obj)) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(obj)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_a_frozen_type_refuses_assignment(cls):
    obj = sample(cls)
    first = names_of(cls)[0]
    kept = getattr(obj, first)
    if CONTRACT[cls][3]:
        with pytest.raises(AttributeError):
            setattr(obj, first, None)
        with pytest.raises(AttributeError):
            delattr(obj, first)
        assert getattr(obj, first) is kept
    else:
        setattr(obj, first, None)
        assert getattr(obj, first) is None
        assert obj != sample(cls)


def test_a_one_field_descriptor_is_not_its_field_tuple():
    assert LineBundle((0,)) != ((0,),)
    assert len({LineBundle((0,)), ((0,),)}) == 2
    assert Spinor("+") != Spinor("-") and Spinor() == Spinor(None)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_copies_and_pickles_keep_the_value(cls):
    obj = sample(cls)
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls and repr(twin) == repr(obj)
        assert (twin == obj) is (cls is not AbstractSheaf)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_dataclass_helpers_still_read_a_value_type(cls):
    obj = sample(cls)
    assert dataclasses.is_dataclass(obj)
    assert [f.name for f in dataclasses.fields(obj)] == names_of(cls)
    rebuilt = dataclasses.replace(obj)
    assert type(rebuilt) is cls and repr(rebuilt) == repr(obj)


def test_replace_changes_the_named_field_only():
    row = sample(ScanRow)
    bent = dataclasses.replace(row, heart_status="Bent")
    assert bent.heart_status == "Bent" and bent != row
    assert values_of(bent)[4:] == values_of(row)[4:]
    assert dataclasses.asdict(sample(GateResult)) == {"rank": 1, "needed": 2}


def test_the_constructor_checks_run_in_order():
    with pytest.raises(MalformedDescriptor, match="e1 must be a Fraction or an int, got 0.5"):
        NumClass(P1, 1, 0.5, 0.5)
    with pytest.raises(MalformedDescriptor, match="e2 must be a Fraction or an int, got 0.5"):
        NumClass(P1, 1, 1, 0.5)
    with pytest.raises(MalformedDescriptor, match="e2 is absent on curves"):
        NumClass(P1, 1, 1, 0)
    with pytest.raises(MalformedDescriptor, match=r"one sheaf per degree, got degrees \[0, 0\]"):
        FormalComplex(P1, ((0, O0), (0, O1)), (GlueWitness(3, 1),))
    with pytest.raises(MalformedDescriptor, match="directly below"):
        FormalComplex(P1, ((0, O0),), (GlueWitness(3, 1),))
    with pytest.raises(MalformedDescriptor, match="endpoints"):
        FormalComplex(P1, ((0, O0),), (GlueWitness(0, -1),))
    assert type(NumClass(P1, 1, 2).e1) is Fraction


def test_every_verdict_gets_a_fresh_criteria_list():
    first, second = UlrichVerdict("direct"), UlrichVerdict("direct")
    first.criteria.append(Criterion("direct", (-1,)))
    assert second.criteria == [] and first != second
