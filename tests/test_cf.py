import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from engelcf.cf import CFExpansion, _merge_zeros, cf_text, convergents, expand_rational
from engelcf.exceptions import InvalidSpec, ZeroCoefficient
from engelcf.sequences import FactorSequence, from_factors
from oracles import evaluate, fold_value, parse_cf_text


def test_convergents_small():
    assert convergents([1, 2, 1, 1, 3]) == ((1, 1), (3, 2), (4, 3), (7, 5), (25, 18))


def test_convergents_single_coefficient():
    assert convergents([7]) == ((7, 1),)


def test_final_denominator_is_x3():
    # S_3 for factors (3, 9): the final convergent denominator must be x_3.
    xs = from_factors(FactorSequence((3, 9)), 3)
    assert xs == [1, 3, 81]
    p, q = convergents([1, 2, 1, 8, 3])[-1]
    assert Fraction(p, q) == Fraction(1, 1) + Fraction(1, 3) + Fraction(1, 81)
    assert q == 81


def test_convergents_rejects_zero():
    with pytest.raises(ZeroCoefficient):
        convergents([1, 0, 3])
    with pytest.raises(ZeroCoefficient):
        evaluate([2, 3, 0])


def test_evaluate_examples():
    assert evaluate([1, 5]) == Fraction(6, 5)
    assert evaluate([1, 2, 1, 1, 3]) == Fraction(25, 18)
    assert evaluate([0, 1]) == 1  # non-canonical input is accepted
    assert evaluate([7]) == 7


def test_expand_rational_examples():
    assert expand_rational(25, 18).coeffs == (1, 2, 1, 1, 3)
    assert expand_rational(7, 1).coeffs == (7,)
    assert expand_rational(3, 2).coeffs == (1, 2)
    assert expand_rational(0, 1).coeffs == (0,)


def test_expand_rational_rejects_negative():
    with pytest.raises(InvalidSpec):
        expand_rational(-1, 2)
    with pytest.raises(InvalidSpec):
        expand_rational(3, 0)
    with pytest.raises(TypeError):  # the integer pair only, not a Fraction
        expand_rational(Fraction(3, 2))


def test_merge_zeros_examples():
    raw = [1, 2, 0, 3]
    _merge_zeros(raw)
    assert raw == [1, 5]
    assert evaluate(raw) == Fraction(6, 5)
    raw = [1, 1, 1, 0, 2]
    _merge_zeros(raw)
    assert raw == [1, 1, 3]


def test_merge_zeros_leaves_a_final_zero():
    # A final zero has no right neighbour to merge with: it stays, and the
    # list is not an expansion.
    raw = [1, 2, 0]
    _merge_zeros(raw)
    assert raw == [1, 2, 0]
    with pytest.raises(ZeroCoefficient):
        CFExpansion(raw)


def test_cfexpansion_validation():
    with pytest.raises(ZeroCoefficient):
        CFExpansion((1, 0, 2))
    with pytest.raises(InvalidSpec):
        CFExpansion(())
    with pytest.raises(InvalidSpec):
        CFExpansion((-1, 2))
    with pytest.raises(InvalidSpec):
        CFExpansion((1, -2))
    with pytest.raises(InvalidSpec):
        cf_text([])


def test_cf_text_grammar():
    assert cf_text([1, 2, 3]) == "[1;2,3]"
    assert cf_text([7]) == "[7]"
    assert parse_cf_text("[1;2,3]").coeffs == (1, 2, 3)
    assert parse_cf_text("[7]").coeffs == (7,)


@st.composite
def canonical_cfs(draw):
    a0 = draw(st.integers(0, 40))
    middle = draw(st.lists(st.integers(1, 40), max_size=8))
    if draw(st.booleans()) or middle:
        return CFExpansion(tuple([a0] + middle + [draw(st.integers(2, 40))]))
    return CFExpansion((max(a0, 1),))


@given(canonical_cfs())
def test_round_trip_exact(cf):
    value = evaluate(cf)
    assert expand_rational(value.numerator, value.denominator).coeffs == cf.coeffs


@given(
    st.integers(0, 10**6),
    st.lists(st.integers(1, 10**6), min_size=1, max_size=29),
)
def test_determinant_identity(a0, rest):
    rows = convergents([a0] + rest)
    for j in range(1, len(rows)):
        (p, q), (pp, qp) = rows[j], rows[j - 1]
        assert p * qp - pp * q == (-1) ** (j + 1)
    assert Fraction(*rows[-1]) == evaluate([a0] + rest)


def test_determinant_fuzz_1000():
    rng = random.Random(20240817)
    for _ in range(1000):
        coeffs = [rng.randint(0, 10**6)] + [
            rng.randint(1, 10**6) for _ in range(rng.randint(1, 29))
        ]
        rows = convergents(coeffs)
        for j in range(1, len(rows)):
            p, q = rows[j]
            pp, qp = rows[j - 1]
            assert p * qp - pp * q == (-1) ** (j + 1)


@st.composite
def split_cfs(draw):
    # A canonical expansion and a raw list made from it by splitting some
    # a_j >= 2, j >= 1, into [a, 0, a_j - a] with a >= 1: one zero per split.
    coeffs = draw(canonical_cfs()).coeffs
    splittable = [j for j in range(1, len(coeffs)) if coeffs[j] >= 2]
    raw = list(coeffs)
    js = draw(st.lists(st.sampled_from(splittable), unique=True)) if splittable else []
    for j in sorted(js, reverse=True):
        a = draw(st.integers(1, coeffs[j] - 1))
        raw[j:j + 1] = [a, 0, coeffs[j] - a]
    return coeffs, raw, len(js)


@given(split_cfs())
# [1, 0, 0, 2] is [1; 2] with a_0 split as [1, 0, 0]: one merge takes both zeros.
@example(((1, 2), [1, 0, 0, 2], 1))
@settings(max_examples=60)
def test_merge_zeros_preserves_value_and_length(case):
    # The zero rule must undo every split (length drops by 2 each), keep the
    # value fixed and give back the canonical list.
    coeffs, raw, splits = case
    merged = list(raw)
    _merge_zeros(merged)
    assert len(merged) == len(raw) - 2 * splits
    assert evaluate(merged) == fold_value(raw)
    assert tuple(merged) == coeffs
