"""The memoized term store: agreement with an independent dividing stepper,
sharing between calls, and one budget charge per term."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engelcf.asymptotics import full_report, roth_exponents
from engelcf.cli import main
from engelcf import sequences
from engelcf.exceptions import BitBudgetExceeded, InsufficientFactors, InvalidSpec
from engelcf.expansion import enclosure, partial_cf, stream
from engelcf.sequences import (
    BitBudget,
    BudgetMeter,
    FactorSequence,
    SecondOrderSpec,
    SeriesSource,
    ThirdOrderSpec,
    as_store,
    factors_from_sequence,
    from_factors,
    generate_recurrence,
    lift_spec,
    ones_tail,
)

AFFINE = SecondOrderSpec(3, (1, 2))

SPECS = [
    AFFINE,
    SecondOrderSpec(4, (1, 1, 1)),
    SecondOrderSpec(5, (1, 3)),
    SecondOrderSpec(3, (1, 1)),
    lift_spec(AFFINE),
    ThirdOrderSpec(1, 2, ((0, 1, 2), (1, 0, 1))),
    # Shapes at the exponent edges of the step identities.
    SecondOrderSpec(6, (1, 0, 2, 1)),
    ThirdOrderSpec(3, 4, ((0, 1, 1), (1, 0, 2), (2, 2, 1))),
    ThirdOrderSpec(1, 2, ((0, 0, 2),)),
]


def reference_raw(spec, count: int) -> list[int]:
    """The dividing recurrence from the all-ones initial data, in raw
    indexing, with every division checked exact. It evaluates G and H
    itself and shares no code with the library's stepper."""
    if isinstance(spec, SecondOrderSpec):
        xs = [1, 1]
        while len(xs) < count:
            x = xs[-1]
            g = sum(c * x**i for i, c in enumerate(spec.g))
            q, r = divmod(x**spec.d1 * g, xs[-2])
            assert r == 0
            xs.append(q)
    else:
        xs = [1, 1, 1]
        while len(xs) < count:
            a, b = xs[-2], xs[-1]
            h = sum(c * a**i * b**j for i, j, c in spec.h)
            q, r = divmod(a**spec.e1 * b**spec.e2 * h, xs[-3])
            assert r == 0
            xs.append(q)
    return xs


def reference_engel(raw: list[int]):
    """x_1..x_n in the Engel indexing, z_2..z_n and S_1..S_n, from raw
    recurrence output."""
    engel = [1] + [v for v in raw if v > 1]
    zs = []
    for j in range(2, len(engel) + 1):
        z, r = divmod(engel[j - 1], engel[j - 2] ** 2)
        assert r == 0
        zs.append(z)
    sums = [sum(Fraction(1, v) for v in engel[:k]) for k in range(1, len(engel) + 1)]
    return engel, zs, sums


def check_store(spec, engel, zs, sums):
    n = len(engel)
    store = SeriesSource(spec)
    assert [store.x(k) for k in range(1, n + 1)] == engel
    assert [store.factor(j) for j in range(2, n + 1)] == zs
    assert [store.partial_sum(k) for k in range(1, n + 1)] == sums

    # The same values when partial sums are asked for first.
    store = SeriesSource(spec)
    assert store.partial_sum(n) == sums[-1]
    assert store.factors_through(n) == zs


@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_store_agrees_with_reference_stepper(spec):
    raw = reference_raw(spec, 8)
    engel, zs, sums = reference_engel(raw)
    n = len(engel)

    assert generate_recurrence(spec, len(raw)) == raw
    assert from_factors(spec, n).x == tuple(engel)
    assert from_factors(factors_from_sequence(raw), n).x == tuple(engel)
    check_store(spec, engel, zs, sums)


def _valid(spec) -> bool:
    try:
        spec.validate()
    except InvalidSpec:
        return False
    return True


SECOND_ORDER = st.builds(
    SecondOrderSpec,
    st.integers(3, 5),
    st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple),
).filter(_valid)


@st.composite
def third_order_specs(draw):
    # One term free of each argument, so H is divisible by neither.
    terms = {(0, draw(st.integers(0, 2))): draw(st.integers(1, 3)),
             (draw(st.integers(0, 2)), 0): draw(st.integers(1, 3))}
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                           st.integers(1, 3)), max_size=2)):
        terms[i, j] = c
    h = tuple((i, j, c) for (i, j), c in terms.items())
    return ThirdOrderSpec(draw(st.integers(1, 3)), draw(st.integers(2, 3)), h)


@given(st.one_of(SECOND_ORDER, third_order_specs().filter(_valid)))
@settings(max_examples=60, deadline=None)
def test_step_identities_on_random_specs(spec):
    # Seven Engel terms: the raw data carry one (second order) or two
    # (third order) extra leading ones.
    pad = 1 if isinstance(spec, SecondOrderSpec) else 2
    check_store(spec, *reference_engel(reference_raw(spec, 7 + pad)))


def _exact_head(v: int) -> tuple[int, int]:
    return v.bit_length(), v >> max(v.bit_length() - 64, 0)


HEAD_SOURCES = st.one_of(
    SECOND_ORDER,
    st.sampled_from([lift_spec(AFFINE), ThirdOrderSpec(1, 2, ((0, 1, 2), (1, 0, 1))).validate()]),
    st.lists(st.integers(1, 9), min_size=1, max_size=6).map(
        lambda z: FactorSequence((z[0] + 1,) + tuple(z[1:]))),
    st.integers(2, 9).map(ones_tail),
)


@given(HEAD_SOURCES, st.sampled_from([6, 128]))
@settings(max_examples=40, deadline=None)
def test_head_matches_the_formed_term(source, precision):
    # Every count of already-formed terms, and n up to three past it. A
    # starting precision of a few bits makes the brackets' rounding matter.
    exact = SeriesSource(source)
    saved, sequences._HEAD_PRECISION = sequences._HEAD_PRECISION, precision
    try:
        for formed in range(1, 5):
            try:
                exact.x(formed)
            except InsufficientFactors:
                break
            for n in range(1, formed + 4):
                store = SeriesSource(source)
                store.x(formed)
                size = len(store._terms)
                try:
                    want = _exact_head(exact.x(n))
                except InsufficientFactors:
                    with pytest.raises(InsufficientFactors):
                        store.head(n)
                    continue
                assert store.head(n) == want
                # Only the fallback grows the store, and never past x_n.
                assert len(store._terms) in (size, n + store._pad)
    finally:
        sequences._HEAD_PRECISION = saved


def test_head_doubles_its_precision_then_forms_the_term(monkeypatch):
    # From 4 bits the brackets of x_5 (113 bits) and x_9 (21846 bits) need
    # doubling. x_9 settles at 128 bits; x_5 is still open at 64, and 128
    # would cover it, so head forms it through the store instead.
    monkeypatch.setattr(sequences, "_HEAD_PRECISION", 4)
    precisions = []
    original = SeriesSource._bracket_term

    def bracket_term(self, n, prec):
        precisions.append(prec)
        return original(self, n, prec)

    monkeypatch.setattr(SeriesSource, "_bracket_term", bracket_term)
    exact = SeriesSource(AFFINE)
    for n, formed_after in ((5, 5), (9, 4)):
        store = SeriesSource(AFFINE)
        store.x(4)
        precisions.clear()
        assert store.head(n) == _exact_head(exact.x(n))
        assert precisions[:2] == [4, 8]
        assert len(store._terms) - store._pad == formed_after


def _record_charges(monkeypatch) -> list[int]:
    charged = []
    original = BudgetMeter.charge

    def charge(self, value, what="term"):
        charged.append(value)
        return original(self, value, what)

    monkeypatch.setattr(BudgetMeter, "charge", charge)
    return charged


def test_full_report_charges_each_term_once(monkeypatch):
    charged = _record_charges(monkeypatch)
    full_report(AFFINE, 8)
    assert charged
    assert len(charged) == len(set(charged))


def test_cf_command_charges_each_term_once(monkeypatch, capsys):
    charged = _record_charges(monkeypatch)
    argv = ["cf", "--d1", "3", "--G", "1,2", "--n", "8", "--check", "oracle", "--json"]
    assert main(argv) == 0
    capsys.readouterr()
    assert charged
    assert len(charged) == len(set(charged))


def test_a_store_is_shared_between_calls(monkeypatch):
    store = SeriesSource(AFFINE)
    assert as_store(store, BitBudget(single=1, total=1)) is store
    assert partial_cf(store, 6) == partial_cf(AFFINE, 6)
    assert stream(store, 40) == stream(AFFINE, 40)
    assert enclosure(store, Fraction(1, 10**12)) == enclosure(AFFINE, Fraction(1, 10**12))
    assert roth_exponents(store, 5) == roth_exponents(AFFINE, 5)
    # Everything above is already stored: nothing is generated again.
    charged = _record_charges(monkeypatch)
    partial_cf(store, 6)
    roth_exponents(store, 5)
    assert charged == []


def test_cf_past_a_finite_factor_list_is_a_validation_error(capsys):
    assert main(["cf", "--z", "3,9", "--n", "5"]) == 2
    assert "z_4" in capsys.readouterr().err


def test_budget_refuses_a_term_before_forming_it(monkeypatch):
    # x_8 = 3^64 has at least bits(z_8) + 2*bits(x_7) - 2 = 1 + 2*51 - 2 = 101
    # bits, over a single-term cap of 100: the store raises without
    # multiplying and keeps x_1..x_7.
    store = SeriesSource(ones_tail(3), BitBudget(single=100, total=1000))
    assert store.x(7) == 3 ** 32
    charged = _record_charges(monkeypatch)
    with pytest.raises(BitBudgetExceeded, match="x_8 needs at least 101 bits, cap is 100"):
        store.x(8)
    assert charged == [] and len(store._terms) == 7
    # The cumulative cap is checked the same way.
    store = SeriesSource(ones_tail(3), BitBudget(single=1000, total=150))
    with pytest.raises(BitBudgetExceeded, match="cumulative size needs at least"):
        store.x(8)
    assert len(store._terms) == 7
