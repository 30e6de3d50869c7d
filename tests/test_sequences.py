import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engelcf import sequences
from engelcf.asymptotics import growth_report
from engelcf.cf import CFExpansion
from engelcf.exceptions import (
    BitBudgetExceeded,
    DivisibilityViolation,
    InsufficientFactors,
    InvalidSpec,
    NegativeGap,
)
from engelcf.expansion import partial_cf
from engelcf.sequences import (
    FactorSequence,
    SecondOrderSpec,
    SeriesClass,
    SeriesSource,
    ThirdOrderSpec,
    closed_form_numerator,
    factors_from_sequence,
    from_factors,
    generate_recurrence,
    lift_spec,
    ones_tail,
    parse_spec_line,
    partial_sum,
    shallit_factors,
    strip_leading_ones,
)
from oracles import spec_line

CUBIC3 = SecondOrderSpec(3, (3,))
AFFINE = SecondOrderSpec(3, (1, 2))
DEGEN = SecondOrderSpec(3, (1, 1))


def test_from_factors_examples():
    xs = from_factors(FactorSequence((3, 9, 81, 19683)), 5)
    assert xs == [1, 3, 81, 531441, 3**33]
    assert from_factors(FactorSequence((2,)), 2) == [1, 2]
    assert from_factors(FactorSequence((3, 21, 23877)), 4) == [1, 3, 189, 852910317]


def test_from_factors_needs_enough_factors():
    with pytest.raises(InsufficientFactors):
        from_factors(FactorSequence((3, 9)), 4)


def test_factor_product_formula():
    # x_k = prod z_j^(2^(k-j)) is the closed form of the squaring cascade.
    z = (4, 3, 2, 5)
    xs = from_factors(FactorSequence(z), 5)
    for k in range(2, 6):
        expected = 1
        for j in range(2, k + 1):
            expected *= z[j - 2] ** (2 ** (k - j))
        assert xs[k - 1] == expected


def test_factors_from_sequence_examples():
    fs = factors_from_sequence([1, 2, 24, 172800, 37150633525248000000])
    assert fs.z == (2, 6, 300, 1244167200)
    assert fs.series_class is SeriesClass.Z2_EQUALS_2

    fs = factors_from_sequence([1, 3, 63, 13538259])
    assert fs.z == (3, 7, 3411)
    assert fs.series_class is SeriesClass.GENERIC

    with pytest.raises(DivisibilityViolation) as err:
        factors_from_sequence([1, 2, 6])
    assert err.value.index == 3
    # A zero term is rejected before it can become a divisor.
    with pytest.raises(ValueError, match="non-positive term at position 2"):
        factors_from_sequence([1, 0, 5])


def test_classification():
    assert FactorSequence((3, 2, 2)).series_class is SeriesClass.GENERIC
    assert FactorSequence((2, 2, 2)).series_class is SeriesClass.Z2_EQUALS_2
    assert FactorSequence((4, 1, 1)).series_class is SeriesClass.ONES_TAIL
    assert FactorSequence((5, 1, 2, 1)).series_class is SeriesClass.MIXED
    assert FactorSequence((2, 1, 1)).series_class is SeriesClass.ONES_TAIL
    assert FactorSequence((2, 1, 2)).series_class is SeriesClass.MIXED
    assert ones_tail(2).series_class is SeriesClass.ONES_TAIL
    assert ones_tail(7).factor(50) == 1
    with pytest.raises(ValueError):
        FactorSequence((1, 2))


def test_engel_sequence_invariants():
    xs = from_factors(FactorSequence((2, 2, 2, 2, 2)), 6)
    # Doubly exponential lower bound once x_2 >= 2.
    for n in range(2, 7):
        assert xs[n - 1] >= 2 ** (2 ** (n - 2))
    with pytest.raises(DivisibilityViolation):
        partial_sum([1, 2, 6], 3)


@pytest.mark.parametrize("xs, error, message", [
    ([1, 0, 0], InvalidSpec, "non-positive term at position 2"),
    ([2, 8], InvalidSpec, "sequence must start with x_1 = 1"),
    ([1, 3, 20], DivisibilityViolation, "square of term 2 does not divide term 3"),
])
def test_partial_sum_checks_a_raw_list_before_summing(xs, error, message):
    # Terms from outside the program are checked before the naive sum, so
    # a bad list is a validation error, not a crash or an identity failure.
    with pytest.raises(error) as exc:
        partial_sum(xs, len(xs))
    assert str(exc.value) == message


@pytest.mark.parametrize("source", [AFFINE, ones_tail(3)], ids=["affine", "ones_tail"])
def test_from_factors_trusts_the_store(source, monkeypatch):
    # The store forms x_{k+1} = z_{k+1} x_k^2, so from_factors divides
    # nothing; it hands out a copy of the store's terms.
    store = SeriesSource(source)
    want = [store.x(k) for k in range(1, 9)]

    def refuse(xs):
        raise AssertionError("from_factors re-checked the store's terms")

    monkeypatch.setattr(sequences, "_factor_walk", refuse)
    xs = from_factors(store, 8)
    assert xs == want
    xs[7] += 1
    xs.append(0)
    assert store.x(8) == want[7]
    assert from_factors(store, 8) == want


def test_generate_recurrence_examples():
    assert generate_recurrence(CUBIC3, 6) == [1, 1, 3, 81, 531441, 5559060566555523]
    assert generate_recurrence(AFFINE, 6) == [
        1, 1, 3, 189, 852910317, 5599917937724687764238078261637795,
    ]
    assert generate_recurrence(DEGEN, 6) == [1, 1, 2, 24, 172800, 37150633525248000000]
    lifted = lift_spec(AFFINE)
    assert generate_recurrence(lifted, 7) == [
        1, 1, 1, 3, 63, 13538259, 413636490314204194515563505,
    ]


def test_lift_spec_shape():
    lifted = lift_spec(AFFINE)
    assert (lifted.e1, lifted.e2) == (2, 2)
    assert lifted.h == ((0, 0, 1), (1, 1, 2))


@pytest.mark.parametrize("spec", [CUBIC3, AFFINE, DEGEN])
def test_lift_identity(spec):
    n = 8
    xs = generate_recurrence(spec, n)
    bigxs = generate_recurrence(lift_spec(spec), n + 1)
    assert all(bigxs[k] * bigxs[k + 1] == xs[k] for k in range(n))


def test_square_divisibility_of_recurrences():
    for spec in (CUBIC3, AFFINE, DEGEN):
        xs = generate_recurrence(spec, 8)
        for k in range(len(xs) - 1):
            assert xs[k + 1] % xs[k] ** 2 == 0
        zs = factors_from_sequence(xs)
        if spec.g1 >= 3:
            assert all(z >= 3 for z in zs.z)
        else:
            assert zs.z[0] == 2
    bigxs = generate_recurrence(lift_spec(AFFINE), 9)
    for k in range(len(bigxs) - 1):
        assert bigxs[k + 1] % bigxs[k] ** 2 == 0


def test_third_order_general_shape():
    # A third-order spec that is not a lift still produces integer terms
    # with the square-divisibility property.
    spec = ThirdOrderSpec(1, 2, ((0, 1, 2), (1, 0, 1)))
    xs = generate_recurrence(spec, 9)
    assert xs[:3] == [1, 1, 1]
    for k in range(len(xs) - 1):
        assert xs[k + 1] % xs[k] ** 2 == 0
    assert factors_from_sequence(xs).series_class is SeriesClass.GENERIC


@st.composite
def second_order_specs(draw):
    d1 = draw(st.integers(3, 5))
    degree = draw(st.integers(0, 2))
    g = [draw(st.integers(1, 4))]
    g.extend(draw(st.integers(0, 4)) for _ in range(degree))
    if degree:
        g[-1] = max(g[-1], 1)
    if sum(g) < 2:
        g[0] += 1
    return SecondOrderSpec(d1, tuple(g))


@given(second_order_specs())
@settings(max_examples=40, deadline=None)
def test_lift_identity_random_specs(spec):
    n = 5
    xs = generate_recurrence(spec, n)
    bigxs = generate_recurrence(lift_spec(spec), n + 1)
    assert all(bigxs[k] * bigxs[k + 1] == xs[k] for k in range(n))
    for k in range(n - 1):
        assert xs[k + 1] % xs[k] ** 2 == 0
        assert bigxs[k + 1] % bigxs[k] ** 2 == 0


def test_engel_from_spec():
    assert from_factors(AFFINE, 4) == [1, 3, 189, 852910317]
    assert from_factors(lift_spec(AFFINE), 4) == [1, 3, 63, 13538259]
    assert from_factors(AFFINE, 1) == [1]


def test_spec_validation():
    # Each rule raises when the spec is built; test_values checks the messages.
    with pytest.raises(InvalidSpec):
        SecondOrderSpec(2, (1, 2))  # d1 too small
    with pytest.raises(InvalidSpec):
        SecondOrderSpec(3, (0, 2))  # G(0) = 0
    with pytest.raises(InvalidSpec):
        SecondOrderSpec(3, (1,))  # G(1) < 2
    with pytest.raises(InvalidSpec):
        SecondOrderSpec(3, (1, -1))
    assert SeriesSource(SecondOrderSpec(3, (2,))).series_class is SeriesClass.Z2_EQUALS_2
    assert SeriesSource(AFFINE).series_class is not SeriesClass.Z2_EQUALS_2

    with pytest.raises(InvalidSpec):
        ThirdOrderSpec(0, 2, ((0, 0, 3),))
    with pytest.raises(InvalidSpec):
        ThirdOrderSpec(1, 1, ((0, 0, 3),))
    with pytest.raises(InvalidSpec):
        # divisible by the first argument: every term has i >= 1
        ThirdOrderSpec(1, 2, ((1, 0, 2), (1, 1, 1)))
    ThirdOrderSpec(1, 2, ((0, 1, 2), (1, 0, 1)))


def test_inexact_division_signals_bad_spec():
    # The step identities need a valid spec; an invalid one is never built,
    # so it never reaches them.
    with pytest.raises(InvalidSpec, match="d1 must be >= 3, got 0"):
        SecondOrderSpec(0, (3, 1))


def test_bit_budget():
    tiny = SeriesSource(AFFINE, 256)
    with pytest.raises(BitBudgetExceeded):
        generate_recurrence(tiny, 8)
    with pytest.raises(BitBudgetExceeded):
        from_factors(SeriesSource(ones_tail(2), 1 << 10), 40)


def test_partial_sum_examples():
    xs = from_factors(FactorSequence((3, 2)), 3)
    assert partial_sum(xs, 3) == Fraction(25, 18)
    assert partial_sum(xs, 1) == 1
    assert partial_sum(from_factors(FactorSequence((5,)), 2), 2) == Fraction(6, 5)


def test_partial_sum_denominator_is_xn():
    xs = from_factors(FactorSequence((4, 3, 2, 5)), 5)
    for n in range(1, 6):
        assert partial_sum(xs, n).denominator == xs[n - 1]


def test_closed_form_matches_naive_random():
    rng = random.Random(7)
    for _ in range(100):
        z = (rng.randint(2, 12),) + tuple(rng.randint(1, 12) for _ in range(6))
        xs = from_factors(FactorSequence(z), 8)
        for n in range(1, 9):
            got = partial_sum(xs, n)  # raises if the closed form disagrees
            naive = sum(Fraction(1, v) for v in xs[:n])
            assert got == naive


def test_closed_form_numerator_small():
    # n = 3: z2^2 z3 + z2 z3 + 1 over x_3.
    assert closed_form_numerator([3, 2], 3) == 9 * 2 + 3 * 2 + 1


@pytest.mark.parametrize("bad", [
    lambda: FactorSequence(()),
    lambda: FactorSequence((1, 2)),
    lambda: FactorSequence((3, 0)),
    lambda: ones_tail(1),
    lambda: partial_sum([2, 4], 2),
    lambda: strip_leading_ones([2, 4]),
    lambda: factors_from_sequence([1, 1]),
    lambda: factors_from_sequence([1, 0, 5]),
    lambda: shallit_factors(1, (1, 2)),
    lambda: shallit_factors(3, ()),
    lambda: shallit_factors(3, (0, 2)),
    lambda: from_factors(AFFINE, 0),
    lambda: generate_recurrence(AFFINE, 0),
    lambda: closed_form_numerator([3, 2], 0),
    lambda: closed_form_numerator([2], 3),
    lambda: SeriesSource(ones_tail(3), 0),
    lambda: SeriesSource(ones_tail(3), -5),
    lambda: partial_sum([1, 3, 18], 0),
    lambda: partial_sum([1, 3, 18], 4),
    lambda: partial_cf(FactorSequence((3, 2)), 0),
])
def test_input_validation_raises_invalid_spec(bad):
    with pytest.raises(InvalidSpec):
        bad()


@pytest.mark.parametrize("bad", [
    lambda: FactorSequence((3, 2.5)),
    lambda: FactorSequence(("3",)),
    lambda: ones_tail(2.5),
    lambda: ones_tail(3).factor(4.5),
    lambda: FactorSequence((3, 2)).factor(7.5),
    lambda: SecondOrderSpec(3.5, (1, 2)),
    lambda: SecondOrderSpec(3, (1, 2.0)),
    lambda: ThirdOrderSpec(2.0, 2, ((0, 0, 1), (1, 1, 2))),
    lambda: ThirdOrderSpec(2, 2.5, ((0, 0, 1), (1, 1, 2))),
    lambda: ThirdOrderSpec(2, 2, ((0, 0, 1), (1, 1, 2.0))),
    lambda: CFExpansion((1, 2.5)),
    lambda: partial_cf(FactorSequence((3, 2)), 1.5),
    lambda: strip_leading_ones([1, 1, 3.0]),
    lambda: factors_from_sequence([1, 3.2, 9.9]),
    lambda: partial_sum([1, 3.7, 90.2], 3),
    lambda: shallit_factors(2.5, (1, 2)),
    lambda: shallit_factors(3, (1, "2")),
    lambda: closed_form_numerator([3, 2.5], 3),
    lambda: growth_report([1, 3, 18.0, 2916, 8503056], 2.7),
])
def test_non_integer_inputs_raise_type_error(bad):
    # A float or str is refused where the value comes in, not truncated.
    with pytest.raises(TypeError):
        bad()


def test_strip_leading_ones():
    assert strip_leading_ones([1, 1, 3, 81]) == (1, 3, 81)
    assert strip_leading_ones([1, 1, 1, 3]) == (1, 3)
    assert strip_leading_ones([1, 1, 1]) == (1,)
    with pytest.raises(ValueError):
        strip_leading_ones([2, 4])


@given(
    st.integers(2, 30),
    st.lists(st.integers(1, 30), min_size=1, max_size=6),
)
@settings(max_examples=80)
def test_factor_round_trip(z2, rest):
    zs = FactorSequence((z2, *rest))
    n = len(rest) + 2
    xs = from_factors(zs, n)
    assert factors_from_sequence(xs).z == zs.z
    assert from_factors(factors_from_sequence(xs), n) == xs


def test_shallit_factors_examples():
    assert shallit_factors(3, (1, 4, 12, 33)).z == (3, 9, 81, 19683)
    k = shallit_factors(2, (1, 2, 4, 8))
    assert k.z == (2, 1, 1, 1)
    assert k.series_class is SeriesClass.ONES_TAIL
    assert shallit_factors(5, (1, 3)).z == (5, 5)
    with pytest.raises(NegativeGap):
        shallit_factors(3, (1, 3, 5))


def test_shallit_partial_sum_property():
    u, c = 3, (1, 4, 12, 33)
    zs = shallit_factors(u, c)
    xs = from_factors(zs, 5)
    for n in range(2, 6):
        expected = sum(Fraction(1, u ** c[k]) for k in range(n - 1))
        assert partial_sum(xs, n) - 1 == expected


def test_spec_line_round_trip():
    for spec in (AFFINE, DEGEN, lift_spec(AFFINE)):
        assert parse_spec_line(spec_line(spec)) == spec
    assert spec_line(AFFINE) == "order=2 d1=3 G=1,2"
    assert spec_line(lift_spec(AFFINE)) == "order=3 e1=2 e2=2 H=0,0,1;1,1,2"
    with pytest.raises(InvalidSpec):
        parse_spec_line("order=4 d1=3 G=3")
    with pytest.raises(InvalidSpec):
        parse_spec_line("order=2 d1=3")


@pytest.mark.parametrize("line, key", [
    ("order=2 d1=3 G=1,2 G=3", "G"),
    ("order=2 d1=3 G=1,2\n\norder=2 d1=4 G=1,1,1", "order"),
    ("order=3 e1=2 e2=2 e1=3 H=0,0,1;1,1,2", "e1"),
])
def test_spec_line_rejects_a_repeated_key(line, key):
    with pytest.raises(InvalidSpec) as exc:
        parse_spec_line(line)
    assert str(exc.value) == f"repeated key {key}="
