"""Value semantics of the record and value types: equality and hash by
value, no assignment, keyword construction with defaults, and the checks
each validated type runs when it is built."""

import copy
import pickle

import pytest

from engelcf.asymptotics import (
    AsymptoticsReport,
    GrowthReport,
    GrowthRow,
    RothRecord,
    RothReport,
)
from engelcf.catalog import CheckResult
from engelcf.cf import CFExpansion
from engelcf._value import _Value
from engelcf.exceptions import InvalidSpec, ZeroCoefficient
from engelcf.expansion import StreamResult
from engelcf.sequences import (
    DEFAULT_BITS,
    BudgetMeter,
    FactorSequence,
    SecondOrderSpec,
    SeriesClass,
    ThirdOrderSpec,
    ones_tail,
)


class _Twin(_Value):
    # A value type with CFExpansion's one field.
    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs):
        self._init(coeffs)


_REPORT = dict(lam=2, C=1, C_bound=0, lambda_n_true=(), lambda_n_exact=(),
               roth=RothReport((), 0))

# cls, keyword arguments, one changed argument, and the bad arguments the
# type rejects when it is built: (kwargs, exception, message).
CASES = [
    (StreamResult, dict(series_class=SeriesClass.GENERIC, n_used=3, certified=(1, 2),
                        lengths=(3,)), dict(n_used=4), []),
    (GrowthRow, dict(n=2, exponent=3, holds=True), dict(holds=False), []),
    (GrowthReport, dict(rows=(), holds_from=None), dict(holds_from=2), []),
    (RothRecord, dict(n=2, q_bits=2, lower=2, upper=3), dict(upper=4), []),
    (RothReport, dict(records=(), delta=0), dict(delta=1), []),
    (AsymptoticsReport, _REPORT, dict(C=2), []),
    (CheckResult, dict(tag="t", name="n", ok=True), dict(ok=False), []),
    (CFExpansion, dict(coeffs=(1, 2, 3)), dict(coeffs=(1, 2, 4)), [
        (dict(coeffs=()), InvalidSpec, "empty continued fraction"),
        (dict(coeffs=(-1, 2)), InvalidSpec, "a_0 must be non-negative, got -1"),
        (dict(coeffs=(1, 0, 2)), ZeroCoefficient, "a_1 = 0"),
        (dict(coeffs=(1, 2, -3)), InvalidSpec, "a_2 must be positive, got -3"),
    ]),
    (FactorSequence, dict(z=(3, 2), tail_ones=False), dict(tail_ones=True), [
        (dict(z=()), InvalidSpec, "need at least the first factor z_2"),
        (dict(z=(1, 2)), InvalidSpec, "z_2 must be >= 2, got 1"),
        (dict(z=(3, 0)), InvalidSpec, "z_3 must be positive, got 0"),
    ]),
    (SecondOrderSpec, dict(d1=3, g=(1, 2)), dict(g=(1, 3)), [
        (dict(d1=2, g=(1, 2)), InvalidSpec, "d1 must be >= 3, got 2"),
        (dict(d1=3, g=()), InvalidSpec, "G has no coefficients"),
        (dict(d1=3, g=(1, -1)), InvalidSpec, "G must have non-negative coefficients"),
        (dict(d1=3, g=(0, 2)), InvalidSpec, "G(0) must be nonzero"),
        (dict(d1=3, g=(1, 2, 0)), InvalidSpec,
         "leading coefficient of G is zero; drop trailing zeros"),
        (dict(d1=3, g=(1,)), InvalidSpec, "G(1) must be >= 2, got 1"),
    ]),
    (ThirdOrderSpec, dict(e1=2, e2=2, h=((0, 0, 1), (1, 1, 2))), dict(e2=3), [
        (dict(e1=0, e2=2, h=((0, 0, 3),)), InvalidSpec, "e1 must be >= 1, got 0"),
        (dict(e1=1, e2=1, h=((0, 0, 3),)), InvalidSpec, "e2 must be >= 2, got 1"),
        (dict(e1=1, e2=2, h=()), InvalidSpec, "H has no terms"),
        (dict(e1=1, e2=2, h=((-1, 0, 1), (0, 0, 2))), InvalidSpec,
         "H exponents must be non-negative"),
        (dict(e1=1, e2=2, h=((0, 0, 0), (1, 1, 2))), InvalidSpec,
         "H terms must have positive coefficients"),
        (dict(e1=1, e2=2, h=((0, 0, 1), (0, 0, 2))), InvalidSpec,
         "duplicate H term for exponents (0,0)"),
        (dict(e1=1, e2=2, h=((1, 0, 2), (1, 1, 1))), InvalidSpec,
         "H must not be divisible by either argument"),
        (dict(e1=1, e2=2, h=((0, 0, 1),)), InvalidSpec, "H(1,1) must be >= 2, got 1"),
    ]),
]


@pytest.mark.parametrize("cls, kwargs, changed, bad", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_semantics(cls, kwargs, changed, bad):
    value = cls(**kwargs)
    same = cls(*kwargs.values())
    assert value == same and hash(value) == hash(same)
    assert value != cls(**{**kwargs, **changed})
    assert repr(value).startswith(cls.__name__ + "(")
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    for field in kwargs:
        assert getattr(value, field) == kwargs[field]
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    for args, error, message in bad:
        with pytest.raises(error) as exc:
            cls(**args)
        assert str(exc.value) == message


def test_records_carry_only_the_fields_something_reads():
    fields = ("lam", "C", "C_bound", "lambda_n_true", "lambda_n_exact", "roth")
    assert AsymptoticsReport._fields == fields
    assert GrowthReport._fields == ("rows", "holds_from")
    assert CheckResult._fields == ("tag", "name", "ok")


def test_defaults_properties_and_normal_forms():
    # One number sets both caps: half of it for a single term.
    meter = BudgetMeter(DEFAULT_BITS)
    assert (meter.single, meter.total) == (1 << 25, 1 << 26)
    assert (BudgetMeter(100).single, BudgetMeter(100).total) == (50, 100)
    assert BudgetMeter(1).single == 1
    assert FactorSequence((3,), tail_ones=True) == ones_tail(3)
    assert FactorSequence([3, 2]) == FactorSequence((3, 2)) != FactorSequence((3, 2), True)
    assert GrowthReport((), 3).ok and not GrowthReport((), None).ok
    assert CFExpansion([1, 2]) == CFExpansion((1, 2))
    assert SecondOrderSpec(3, [1, 2]).g == (1, 2)
    h = ThirdOrderSpec(2, 2, [(1, 1, 2), (0, 0, 1)]).h
    assert h == ((0, 0, 1), (1, 1, 2))
    # Values of different types never compare equal, even with equal fields.
    assert _Twin((1, 3)) != CFExpansion((1, 3))
