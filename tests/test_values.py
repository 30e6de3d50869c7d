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
from engelcf.exceptions import DivisibilityViolation, InvalidSpec, ZeroCoefficient
from engelcf.expansion import PartialCF, StreamResult
from engelcf.sequences import (
    BitBudget,
    EngelSequence,
    FactorSequence,
    SecondOrderSpec,
    SeriesClass,
    ThirdOrderSpec,
    ones_tail,
)

_REPORT = dict(lam=2, c_lead=1, alphas=(), C=1, C_bound=0, lambda_n_true=(),
               lambda_n_exact=(), growth_exponents=(), roth=RothReport((), 0))

# cls, keyword arguments, one changed argument, and the bad arguments the
# type rejects when it is built: (kwargs, exception, message).
CASES = [
    (BitBudget, dict(single=8, total=16), dict(total=17), []),
    (PartialCF, dict(n=2, cf=CFExpansion((1, 2))), dict(n=3), []),
    (StreamResult, dict(series_class=SeriesClass.GENERIC, n_used=3, certified=(1, 2),
                        lengths=(3,)), dict(n_used=4), []),
    (GrowthRow, dict(n=2, exponent=3, holds=True), dict(holds=False), []),
    (GrowthReport, dict(lam=2, epsilon=0.1, rows=(), holds_from=None), dict(holds_from=2), []),
    (RothRecord, dict(n=2, q_bits=2, lower=2, upper=3), dict(upper=4), []),
    (RothReport, dict(records=(), delta=0), dict(delta=1), []),
    (AsymptoticsReport, _REPORT, dict(C=2), []),
    (CheckResult, dict(tag="t", name="n", ok=True, detail=""), dict(ok=False), []),
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
    (EngelSequence, dict(x=(1, 3, 18)), dict(x=(1, 3, 27)), [
        (dict(x=()), InvalidSpec, "sequence must start with x_1 = 1"),
        (dict(x=(2, 4)), InvalidSpec, "sequence must start with x_1 = 1"),
        (dict(x=(1, 3, -9)), InvalidSpec, "non-positive term at position 3"),
        (dict(x=(1, 3, 10)), DivisibilityViolation, "square of term 2 does not divide term 3"),
    ]),
    (SecondOrderSpec, dict(d1=3, g=(1, 2)), dict(g=(1, 3)), []),
    (ThirdOrderSpec, dict(e1=2, e2=2, h=((0, 0, 1), (1, 1, 2))), dict(e2=3), []),
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


def test_defaults_properties_and_normal_forms():
    assert BitBudget() == BitBudget(1 << 25, 1 << 26)
    assert BitBudget.from_total(100) == BitBudget(single=50, total=100)
    assert FactorSequence((3,), tail_ones=True) == ones_tail(3)
    assert FactorSequence([3, 2]) == FactorSequence((3, 2)) != FactorSequence((3, 2), True)
    assert CheckResult("t", "n", True).detail == ""
    assert PartialCF(2, CFExpansion((1, 2))).length == 2
    assert GrowthReport(2, 0.1, (), 3).ok and not GrowthReport(2, 0.1, (), None).ok
    assert CFExpansion([1, 2]) == CFExpansion((1, 2))
    assert SecondOrderSpec(3, [1, 2]).g == (1, 2)
    h = ThirdOrderSpec(2, 2, [(1, 1, 2), (0, 0, 1)]).h
    assert h == ((0, 0, 1), (1, 1, 2))
    # Values of different types never compare equal, even with equal fields.
    assert EngelSequence((1, 3)) != CFExpansion((1, 3))
    with pytest.raises(InvalidSpec, match="d1 must be >= 3, got 2"):
        SecondOrderSpec(2, (1, 2)).validate()
