"""Differential test of qnl's Record base against @dataclass(frozen=True).

Each record class gets a stdlib twin: dataclasses.make_dataclass over the
class's own annotations and class-attribute defaults, frozen, with the class
itself as its base so that the class's __post_init__ and custom __init__ take
part.  The twin's __init__, ==, hash, repr and assignment guard are the
stdlib's; the record's are Record's.  Both are built from the same arguments
and must agree.
"""

import dataclasses
import inspect
import itertools
import math
from pathlib import Path

import pytest

import qnl
from qnl import (
    BudgetPoint,
    CheckResult,
    ComplexTable,
    DampedOscillator,
    EffectiveTemperature,
    FreeMass,
    GridSpec,
    NoiseTriad,
    OptimumReport,
    OracleConfig,
    OracleResult,
    PhaseTransitionProbe,
    PhysConstants,
    Regime,
    SffSweepSpec,
    SpinFigurePoint,
    SweepConfig,
    TableMeta,
    TabulatedSusceptibility,
    UniformTemperature,
    VerificationReport,
    ZeroTemperature,
    load_config,
    run_budget,
    run_spin_figure,
)
from qnl._record import Record
from qnl.budget import _ConstantK

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
NAN = math.nan


def _all_records(cls=Record) -> set:
    """The package's subclasses of cls, at any depth (the twins live elsewhere)."""
    found = {sub for c in cls.__subclasses__() for sub in (c, *_all_records(c))}
    return {c for c in found if c.__module__.startswith("qnl.")}


def _twin(cls, base_twins: dict):
    """cls's frozen-dataclass twin; a record's record base is replaced by its twin."""
    own = cls.__dict__.get("__annotations__", {})
    spec = [(name, kind, dataclasses.field(default=cls.__dict__[name])) if name in cls.__dict__
            else (name, kind) for name, kind in own.items()]
    bases = (cls, *(base_twins[b] for b in cls.__bases__ if b is not Record))
    return dataclasses.make_dataclass(cls.__qualname__, spec, bases=bases, frozen=True,
                                      init="__init__" not in cls.__dict__)


def _cases() -> dict:
    """Argument tuples per class: equal, unequal, NaN-holding and rejected ones."""
    osc = load_config(str(CONFIGS / "oscillator_budget.json"))
    spin = load_config(str(CONFIGS / "spin_figure.json"))
    budget_rows, spin_rows = run_budget(osc).rows()[:2], run_spin_figure(spin).rows()[:2]
    odd_budget = [*budget_rows[0][:3], NAN, *budget_rows[0][4:8], -0.0, 1, NAN, -0.0]
    triad = NoiseTriad(1.0, 0.5j, 0.5)
    check = CheckResult("gauge-invariance", True, 0.0, 1e-12)
    return {
        PhysConstants: [(), (1, 1), (1.0, 2.0), (2.0,), (NAN, 1.0), ("1", 1.0)],
        ComplexTable: [((0.0, 1.0), (1j, 2)), ([0, 1], [1j, 2.0]), ((0.0, 2.0), (1j, 2)),
                       ((0.0, 1.0), (NAN, 2)), ((1.0,), (1j,))],
        DampedOscillator: [(1.0, 1.0, 0.2), (1, 1, 0.2), (1.0, 1.0), (2.0, 1.0, 0.2),
                           (NAN, 1.0, 0.2), (1.0, -1.0)],
        FreeMass: [(1.0,), (1, 0.0), (1.0, 0.1), (-1.0,)],
        TabulatedSusceptibility: [((0.5, 1.0), (-0.2j, 1 - 0.1j)), ([0.5, 1], [-0.2j, 1 - 0.1j]),
                                  ((0.5, 1.5), (-0.2j, 1 - 0.1j)), ((1.0, 0.5), (0j, 0j))],
        ZeroTemperature: [()],
        UniformTemperature: [(0.5,), (0,), (0.0,), (-1.0,), (NAN,)],
        EffectiveTemperature: [((0.5, 1.0), (0.1, 0.2)), ((0.5, 1.0), (0, 0.2)),
                               ((0.5, 1.0), (0.1, -0.2))],
        NoiseTriad: [(1.0, 0.5j, 0.5), (1, 0.5j, 0.5), (1.0, 0.5, 0.5), (-1.0, 0j, 0.0),
                     (1.0, complex(NAN, 0), 0.5)],
        OptimumReport: [(0.2, Regime.DQL_LIMITED, 0.35, triad, 0.0),
                        (0.2, Regime.DQL_LIMITED, 0.35, triad, 0.0),
                        (NAN, Regime.QCRB_LIMITED, math.inf, triad, -0.0)],
        PhaseTransitionProbe: [tuple(range(10)), tuple(map(float, range(10))),
                               (NAN, *range(9))],
        OracleConfig: [(), (True,), (False,)],
        OracleResult: [(0.2, triad, 1), (0.2, triad, 1), (NAN, triad, 0)],
        GridSpec: [(0.5, 1.5, 11), (0.5, 1.5, 11, "linear"), (0.5, 1.5, 11, "log"),
                   (1.5, 0.5, 11), (0.5, 1.5, 1)],
        SffSweepSpec: [(), (0.01, 100.0, 201), (0.1, 10.0, 5, "linear", "absolute"),
                       (0.1, 10.0, 5, "log", "volts")],
        SweepConfig: [_values(osc), _values(osc), _values(spin)],
        _ConstantK: [(), (1.0, 1.0), (0.1,), (0.1, NAN)],
        CheckResult: [("gauge-invariance", True, 0.0, 1e-12),
                      ("gauge-invariance", True, 0.0, 1e-12, ""), ("oracle", False, NAN, 1e-3)],
        VerificationReport: [((check,),), ((check,),), ((),)],
        BudgetPoint: [*map(tuple, budget_rows), tuple(budget_rows[0]), tuple(odd_budget)],
        SpinFigurePoint: [*map(tuple, spin_rows), (-0.0, 1, NAN, 0.5, "dql")],
        TableMeta: [("budget", "0.1.0", "ab", (1.0,)), ("budget", "0.1.0", "ab", (1.0,)),
                    ("spin-figure", "0.1.0", "ab", (NAN,))],
    }


RECORDS = {PhysConstants, ComplexTable, DampedOscillator, FreeMass, TabulatedSusceptibility,
           ZeroTemperature, UniformTemperature, EffectiveTemperature, NoiseTriad, OptimumReport,
           PhaseTransitionProbe, OracleConfig, OracleResult, GridSpec, SffSweepSpec, SweepConfig,
           _ConstantK, CheckResult, VerificationReport, BudgetPoint, SpinFigurePoint, TableMeta}


@pytest.fixture(scope="module")
def pairs():
    """(record class, twin, argument tuples) for every record class, bases first."""
    twins = {}
    for cls in sorted(RECORDS, key=lambda c: len(c.__mro__)):
        twins[cls] = _twin(cls, twins)
    return [(cls, twins[cls], args) for cls, args in _cases().items()]


def _outcome(make, *args, **kwargs):
    try:
        return make(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return exc


def _same_outcome(got, want, where):
    if isinstance(want, Exception):
        assert type(got) is type(want), (where, got, want)
        if not isinstance(want, TypeError):  # the stdlib's argument texts name __init__
            assert str(got) == str(want), where
    else:
        assert not isinstance(got, Exception), (where, got)
        assert repr(got) == repr(want), where
        for name in (f.name for f in dataclasses.fields(want)):  # __post_init__'s normalization
            a, b = getattr(got, name), getattr(want, name)
            assert type(a) is type(b) and repr(a) == repr(b), (where, name)


def _values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in type(obj)._fields)


def test_every_record_class_is_covered():
    assert _all_records() == RECORDS and len(RECORDS) == 22
    assert {c.__name__ for c in RECORDS} - {"_ConstantK"} <= set(qnl.__all__)
    assert set(_cases()) == RECORDS


def test_fields_and_defaults_match_the_dataclass_twin(pairs):
    for cls, twin, _ in pairs:
        fields = dataclasses.fields(twin)
        assert list(cls._fields.items()) == [(f.name, f.type) for f in fields], cls
        assert cls._defaults == {f.name: f.default for f in fields
                                 if f.default is not dataclasses.MISSING}, cls
    assert list(SffSweepSpec._fields) == ["start", "stop", "points", "spacing", "units"]
    assert SffSweepSpec._defaults["spacing"] == "log" and GridSpec._defaults == {
        "spacing": "linear"}


def test_construction_matches_positionally_and_by_keyword(pairs):
    for cls, twin, cases in pairs:
        params = list(inspect.signature(twin).parameters)
        for args in cases:
            where = (cls.__name__, args)
            _same_outcome(_outcome(cls, *args), _outcome(twin, *args), where)
            kwargs = dict(zip(params, args))
            _same_outcome(_outcome(cls, **kwargs), _outcome(twin, **kwargs), where)


def test_missing_extra_and_repeated_arguments_raise_type_error(pairs):
    for cls, twin, cases in pairs:
        params = inspect.signature(twin).parameters
        required = sum(p.default is inspect.Parameter.empty for p in params.values())
        args = cases[0] + tuple(p.default for p in list(params.values())[len(cases[0]):])
        calls = [(args + (None,), {}), (args, {"unknown": 1})]
        calls += [(args[:k], {}) for k in range(required)]  # a required field missing
        if params:
            calls.append((args, {next(iter(params)): args[0]}))  # a field given twice
        for call_args, call_kwargs in calls:
            for make in (cls, twin):
                with pytest.raises(TypeError):
                    make(*call_args, **call_kwargs)


def test_eq_hash_and_repr_match_on_every_pair(pairs):
    built = [(cls(*args), twin(*args)) for cls, twin, cases in pairs for args in cases
             if not isinstance(_outcome(twin, *args), Exception)]
    assert len(built) > 60
    for real, twin in built:
        assert repr(real) == repr(twin)
        assert hash(real) == hash(_values(real)) and hash(twin) == hash(_values(twin))
        if _values(real) == _values(twin):
            assert hash(real) == hash(twin), repr(real)
        assert real != twin and not real == twin  # another class, as a subclass is
    for (a, ta), (b, tb) in itertools.product(built, repeat=2):
        assert (a == b) is (ta == tb) and (a != b) is (ta != tb), (repr(a), repr(b))
    # records whose fields are equal but whose classes differ are unequal
    assert PhysConstants() != _ConstantK(1.0, 1.0) and _values(PhysConstants()) == (1.0, 1.0)
    nan_point = BudgetPoint(*_cases()[BudgetPoint][-1])
    assert nan_point == nan_point and nan_point != BudgetPoint(*_cases()[BudgetPoint][-1])


def test_assignment_and_deletion_raise_attribute_error(pairs):
    for cls, twin, cases in pairs:
        for make in (cls, twin):
            obj = make(*cases[0])
            before = repr(obj)
            for name in [*cls._fields, "other"]:
                with pytest.raises(AttributeError):
                    setattr(obj, name, 1.0)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
            assert repr(obj) == before


def test_post_init_normalizes_as_in_the_dataclass():
    constants = PhysConstants(1, 2)
    assert type(constants.hbar) is float and type(constants.k_b) is float
    assert repr(constants) == "PhysConstants(hbar=1.0, k_b=2.0)"
    assert type(NoiseTriad(1, 0.5, 2).s_xf) is complex
    point = BudgetPoint(*_cases()[BudgetPoint][-1])
    assert math.copysign(1.0, point.sigma_opt) == 1.0 and type(point.s_xx_opt) is float
    assert math.copysign(1.0, SpinFigurePoint(-0.0, 1, 0.5, 0.5, "dql").s_ff) == -1.0
