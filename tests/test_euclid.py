"""expand_rational's batched Euclid, and the reference ProductTree's checked
quotients, against a plain divmod loop.

Each expand_rational test runs at the module's window and again at a
16-bit window, where inputs past 64 bits already take accepted batches,
rejected batches and single-step fallbacks. It also checks the penultimate
convergent and gcd that the same pass yields, and that neither is part of
the expansion's value.
"""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engelcf.cf as cf
from engelcf.cf import CFExpansion, convergent_matrix, convergents, expand_rational
from engelcf.expansion import SeriesSource
from engelcf.sequences import ones_tail
from oracles import ProductTree

WINDOWS = (cf._WINDOW_BITS, 16)


def euclid_reference(p: int, q: int) -> tuple[int, ...]:
    """Euclid's quotients of p/q, one divmod each."""
    coeffs = []
    while q:
        a, rem = divmod(p, q)
        coeffs.append(a)
        p, q = q, rem
    return tuple(coeffs)


def check(p: int, q: int, window: int):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cf, "_WINDOW_BITS", window)
        got = expand_rational(p, q)
    coeffs = euclid_reference(p, q)
    assert got.coeffs == coeffs
    full = convergent_matrix(coeffs)
    assert got.penultimate == full[1::2]
    assert (got.gcd * full[0], got.gcd * full[2]) == (p, q)
    plain = CFExpansion(coeffs)
    assert (got, hash(got), repr(got)) == (plain, hash(plain), repr(plain))
    assert pickle.dumps(got) == pickle.dumps(plain)
    return coeffs


def _sized(bits: int):
    return st.integers(1 << (bits - 1), (1 << bits) - 1) if bits else st.just(0)


@st.composite
def rationals_around_threshold(draw, window):
    # A pair (p, q), not reduced, with sizes on both sides of the batching
    # threshold 4 * window and either one the larger.
    top = 8 * window + 64
    p = draw(st.integers(0, top).flatmap(_sized))
    q = draw(st.integers(1, top).flatmap(_sized))
    return p, q


@st.composite
def expansions(draw):
    # Canonical expansions mixing quotients up to 2^3000 with long runs of
    # 1s and small quotients.
    coeffs = [draw(st.integers(0, 1 << 3000))]
    for kind in draw(st.lists(st.sampled_from(("huge", "ones", "small")), max_size=8)):
        if kind == "huge":
            coeffs.append(draw(st.integers(1, 1 << 3000)))
        elif kind == "ones":
            coeffs += [1] * draw(st.integers(1, 2000))
        else:
            coeffs += draw(st.lists(st.integers(1, 50), min_size=1, max_size=40))
    if len(coeffs) > 1:
        coeffs.append(draw(st.integers(2, 1 << draw(st.sampled_from((2, 64, 3000))))))
    return tuple(coeffs)


@pytest.mark.parametrize("window", WINDOWS)
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_rationals_match_plain_euclid(window, data):
    check(*data.draw(rationals_around_threshold(window)), window)


@pytest.mark.parametrize("window", WINDOWS)
@settings(max_examples=60, deadline=None)
@given(expansions())
def test_built_expansions_come_back(window, coeffs):
    p, q = convergents(coeffs)[-1]
    assert check(p, q, window) == coeffs


@pytest.mark.parametrize("window", WINDOWS)
def test_edge_values(window):
    big = 3 ** 2000
    assert check(0, 1, window) == (0,)
    assert check(0, big, window) == (0,)  # the gcd is q
    assert check(big, 1, window) == (big,)  # q = 1
    assert check(big - 1, big, window)[0] == 0  # p < q
    assert check(1, big, window) == (0, big)
    assert check(big, big + 1, window)[:2] == (0, 1)
    assert check(big * (big + 2), big * (big - 1), window)[0] == 1  # the gcd is big


@pytest.mark.parametrize("p, q", [(7.5, 2), (7, 2.0), (7.0, 2.0)])
def test_operands_must_be_integers(p, q):
    # A float would run Euclid in floats: [3.0;1.0,3.0] for 7.5/2.
    with pytest.raises(TypeError):
        expand_rational(p, q)


@pytest.mark.parametrize("window", WINDOWS)
def test_ones_tail_oracle_endpoints(window):
    # Both endpoints the interval oracle expands for ones_tail(3) at n = 16.
    src = SeriesSource(ones_tail(3))
    lo = src.partial_sum(16)
    hi = lo + Fraction(2, src.x(17))
    assert (lo.denominator.bit_length(), hi.denominator.bit_length()) == (25969, 51937)
    check(lo.numerator, lo.denominator, window)
    check(hi.numerator, hi.denominator, window)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pair_expansion_needs_no_gcd(data):
    p0, q0 = data.draw(rationals_around_threshold(cf._WINDOW_BITS))
    g = data.draw(st.integers(1, 1 << 100))
    p, q = p0 * g, q0 * g
    reduced = expand_rational(p0, q0).coeffs
    assert expand_rational(p, q).coeffs == euclid_reference(p, q) == reduced


@settings(max_examples=60, deadline=None)
@given(expansions())
def test_product_tree_gives_the_convergents(coeffs):
    rows = convergents(coeffs)
    (p, q), (p2, q2) = rows[-1], rows[-2] if len(rows) > 1 else (1, 0)
    tree = ProductTree(coeffs)
    assert tree.product() == (p, p2, q, q2)
    for k in {0, 1, len(coeffs) // 3, len(coeffs) - 1}:
        assert tree.product(k) == ProductTree(coeffs[:k]).product()


@settings(max_examples=60, deadline=None)
@given(expansions())
def test_convergent_matrix_is_the_last_two_convergents(coeffs):
    rows = convergents(coeffs)
    (p, q), (p2, q2) = rows[-1], rows[-2] if len(rows) > 1 else (1, 0)
    assert convergent_matrix(coeffs) == (p, p2, q, q2)
    assert convergent_matrix(()) == (1, 0, 0, 1)


@st.composite
def nearby_expansions(draw):
    # A list of quotients and a pair p > q > 0 whose expansion shares a
    # drawn prefix with it and then leaves it, ends, or runs on.
    qs = draw(st.lists(st.integers(1, 9), min_size=1, max_size=300))
    target = qs[:draw(st.integers(0, len(qs)))] + draw(st.lists(st.integers(1, 9), max_size=40))
    if len(target) > 1 and target[-1] == 1:
        target[-1] = 2
    if target in ([], [1]):
        target = [2]
    return qs, *convergents(target)[-1]


@settings(max_examples=200, deadline=None)
@given(nearby_expansions())
def test_follow_counts_the_shared_prefix(case):
    qs, p, q = case
    ref = euclid_reference(p, q)
    shared = 0
    while shared < min(len(qs), len(ref)) and qs[shared] == ref[shared]:
        shared += 1
    assert ProductTree(qs).follow(p, q) == shared


def test_follow_stops_at_every_position():
    # Every place a divergence or an end can fall: inside a leaf, at a
    # leaf's last quotient, and at the last quotient of each subtree.
    rng = random.Random(8)
    qs = [rng.randint(1, 9) for _ in range(200)]
    tree = ProductTree(qs)
    for k in range(len(qs) + 1):
        diverged = qs[:k] + [qs[k] + 1, 3] if k < len(qs) else qs + [1, 3]
        for target in (diverged, qs[:k] + [2]):
            p, q = convergents(target)[-1]
            ref = euclid_reference(p, q)
            shared = 0
            while shared < min(len(qs), len(ref)) and qs[shared] == ref[shared]:
                shared += 1
            assert shared >= k
            assert tree.follow(p, q) == shared, k
