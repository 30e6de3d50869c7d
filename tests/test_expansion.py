import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from engelcf import cf, expansion
from engelcf.cf import (
    CFExpansion,
    convergent_matrix,
    convergents,
    expand_rational,
    _merge_zeros,
    matrix_mul,
)
from engelcf.exceptions import IdentityViolation, InsufficientFactors, InvalidSpec
from engelcf.expansion import (
    EngelStream,
    SeriesSource,
    _euclid_cf,
    _fold,
    _folded,
    enclosure,
    partial_cf,
    partial_lengths,
    stream,
)
from engelcf.sequences import (
    FactorSequence,
    SecondOrderSpec,
    ThirdOrderSpec,
    factors_from_sequence,
    from_factors,
    lift_spec,
    ones_tail,
    partial_sum,
)
from engelcf.verify import check_instance, generic_alphabet
from oracles import OracleStream, ProductTree, evaluate

AFFINE = SecondOrderSpec(3, (1, 2))


def test_generic_partial_examples():
    assert partial_cf(FactorSequence((3, 2, 2)), 4).coeffs == (
        1, 2, 1, 1, 3, 1, 1, 2, 1, 1, 2,
    )
    assert partial_cf(FactorSequence((3, 9, 81)), 4).coeffs == (
        1, 2, 1, 8, 3, 80, 1, 2, 8, 1, 2,
    )
    assert partial_cf(FactorSequence((3, 2)), 3).coeffs == (1, 2, 1, 1, 3)


def test_generic_partial_is_partial_sum():
    zs = FactorSequence((4, 3, 2, 5, 2))
    for n in range(3, 7):
        part = partial_cf(zs, n)
        assert evaluate(part) == partial_sum(from_factors(zs, n), n)
        assert len(part) == 3 * 2 ** (n - 2) - 1


def test_z2eq2_partial_examples():
    # Symbolic n = 5 display instantiated at z = (2, z3, z4, z5).
    z3, z4, z5 = 3, 4, 5
    got = partial_cf(FactorSequence((2, z3, z4, z5)), 5).coeffs
    assert got == (
        1, 1, 1, z3 - 1, 2, z4 - 1, 1, 1, z3 - 1, 1, 1,
        z5 - 1, 2, z3 - 1, 1, 1, z4 - 1, 2, z3 - 1, 2,
    )
    assert partial_cf(FactorSequence((2, 6, 300)), 4).coeffs == (
        1, 1, 1, 5, 2, 299, 1, 1, 5, 2,
    )
    assert partial_cf(FactorSequence((2, 2, 2)), 4).coeffs == (
        1, 1, 1, 1, 2, 1, 1, 1, 1, 2,
    )


def test_z2eq2_equals_normalized_raw_recursion():
    # The generic doubling recursion run formally on z = (2, 3, 4, 5) gives
    # this raw S_5 with one interior zero; removing it and merging the
    # trailing unit lands on the 20-coefficient z_2 = 2 form.
    raw5 = [1, 1, 1, 2, 2, 3, 1, 1, 2, 1, 1, 4, 1, 0, 1, 2, 1, 1, 3, 2, 2, 1, 1]
    coeffs = list(raw5)
    _merge_zeros(coeffs)
    assert coeffs[-1] == 1
    coeffs[-2:] = [coeffs[-2] + 1]
    assert tuple(coeffs) == partial_cf(FactorSequence((2, 3, 4, 5)), 5).coeffs
    assert len(coeffs) == 20


def test_oracle_equivalence_small():
    check_instance(FactorSequence((3, 2, 2, 2, 2, 2)), 7)
    check_instance(FactorSequence((20, 20, 20, 20, 20, 20)), 7)
    check_instance(FactorSequence((2, 2, 2, 2, 2, 2)), 7)
    check_instance(FactorSequence((2, 20, 2, 20, 2, 20)), 7)


@given(st.integers(3, 20), st.lists(st.integers(2, 20), min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_oracle_equivalence_hypothesis(z2, rest):
    check_instance(FactorSequence((z2, *rest)), 6)
    check_instance(FactorSequence((2, *rest)), 6)


_FOLD_SOURCES = st.one_of(
    st.builds(lambda z2, rest: FactorSequence((z2, *rest)),
              st.integers(3, 20), st.lists(st.integers(2, 20), min_size=7, max_size=7)),
    st.builds(lambda rest: FactorSequence((2, *rest)),
              st.lists(st.integers(2, 20), min_size=7, max_size=7)),
    st.builds(ones_tail, st.integers(2, 12)),
    st.builds(lambda z2, rest: FactorSequence((z2, *rest)),
              st.integers(2, 20),
              st.lists(st.one_of(st.just(1), st.integers(2, 20)), min_size=7, max_size=7)),
)


@given(_FOLD_SOURCES)
@settings(max_examples=80, deadline=None)
def test_fold_matches_euclid_on_every_class(zs):
    # The reported expansions agree with Euclid's. A fold of L entries with
    # m zero merges (one for z = 1, one for a final 1) returns 2L+1-2m
    # entries, an odd length, and the value S_{n+1}.
    src = SeriesSource(zs)
    for n in range(1, 9):
        assert partial_cf(src, n).coeffs == _euclid_cf(src, n), (zs, n)
    z = src.factors_through(8)
    cur = [1, z[0] - 1, 1]
    for n, z_next in enumerate(z[1:], start=3):
        merges = (z_next == 1) + (cur[-1] == 1)
        folded = _fold(cur, z_next)
        assert len(folded) == 2 * len(cur) + 1 - 2 * merges
        assert len(folded) % 2 == 1
        assert evaluate(folded) == src.partial_sum(n)
        cur = folded


@given(st.one_of(_FOLD_SOURCES, st.sampled_from(
    (AFFINE, lift_spec(AFFINE), ThirdOrderSpec(1, 2, ((0, 1, 2), (1, 0, 1)))))))
@example(ones_tail(2))
@settings(max_examples=60, deadline=None)
def test_partial_cf_is_the_normalized_fold(zs):
    # partial_cf builds its expansion from the fold without __init__'s
    # checks; it is still Euclid's expansion in the reported representative,
    # coefficient for coefficient, and the fold has the value S_n.
    src = SeriesSource(zs)
    for n in range(2, 8):
        got = partial_cf(src, n)
        assert got.coeffs == _euclid_cf(src, n)
        assert evaluate(_folded(src.factors_through(n))) == evaluate(got) == src.partial_sum(n)
        assert (got, got.gcd, got.penultimate) == (CFExpansion(got.coeffs), 1,
                                                   convergent_matrix(got.coeffs)[1::2])


@pytest.mark.parametrize("zs, n", [((2,), 2), ((3,), 2), ((2, 1, 2), 4)])
def test_partial_cf_merges_a_final_unit(zs, n):
    # The fold ends in 1 here; partial_cf reports [..., a, 1] as [..., a+1].
    folded = _folded(list(zs))
    assert folded[-1] == 1
    assert partial_cf(FactorSequence(zs), n).coeffs == tuple(folded[:-2] + [folded[-2] + 1])


def test_stream_examples():
    assert list(stream(AFFINE, 11).certified) == [
        1, 2, 1, 20, 3, 23876, 1, 2, 20, 1, 2, 7697947188058154,
    ]
    assert list(stream(ones_tail(4), 17).certified)[:17] == [
        1, 3, 6, 4, 4, 2, 4, 6, 4, 2, 6, 4, 2, 4, 4, 6, 4,
    ]
    assert list(stream(ones_tail(2), 19).certified)[:19] == [
        1, 1, 4, 2, 4, 4, 6, 4, 2, 4, 6, 2, 4, 6, 4, 4, 2, 4, 6,
    ]
    assert list(stream(lift_spec(AFFINE), 11).certified) == [
        1, 2, 1, 6, 3, 3410, 1, 2, 6, 1, 2, 2256800700104,
    ]


def test_stream_mixed_oracle():
    got = stream(FactorSequence((5, 1, 2, 1)), 5)
    assert list(got.certified) == [1, 4, 6, 1, 1]
    assert got.series_class.value == "mixed"
    with pytest.raises(InsufficientFactors):
        stream(FactorSequence((5, 1, 2, 1)), 12)


def test_stream_finite_generic_exhaustion():
    zs = FactorSequence((3, 2, 2))
    got = stream(zs, 11)
    # With factors through z_4 the whole 11-coefficient S_4 is certified,
    # but nothing further can be.
    assert len(got.certified) == 11
    with pytest.raises(InsufficientFactors):
        stream(zs, 12)


def test_stream_finite_z2_exhaustion():
    zs = FactorSequence((2, 3, 4))
    got = stream(zs, 9)
    # S_4's final coefficient is rewritten by the next step, and z_5 is
    # missing, so only the first 9 of its 10 coefficients are certified.
    assert got.certified == partial_cf(zs, 4).coeffs[:-1]
    with pytest.raises(InsufficientFactors):
        stream(zs, 10)
    # With z_5 known, the held-back tail is followed by 1, 1, z_5 - 1.
    got = stream(FactorSequence((2, 3, 4, 5)), 12)
    assert got.certified == partial_cf(zs, 4).coeffs[:-1] + (1, 1, 4)


def test_third_order_general_stream_matches_oracle():
    from engelcf.sequences import ThirdOrderSpec

    spec = ThirdOrderSpec(1, 2, ((0, 1, 2), (1, 0, 1)))
    rec = stream(spec, 12).certified
    orc = tuple(OracleStream(spec).take(12))
    k = min(len(rec), len(orc))
    assert k >= 12 and rec[:k] == orc[:k]


def test_stream_prefix_stability():
    # Emitted coefficients never change as certification advances.
    es = EngelStream(AFFINE)
    seen = []
    for _ in range(5):
        es._advance()
        assert es.emitted[: len(seen)] == seen
        seen = list(es.emitted)


def test_a_changed_emitted_prefix_fails_the_next_take():
    # The fold stream checks every advance against what it emitted before.
    es = EngelStream(AFFINE)
    es.take(5)
    es.emitted[1] += 1
    with pytest.raises(IdentityViolation, match="previously emitted coefficients changed"):
        es.take(len(es.emitted) + 1)


def test_stream_is_prefix_of_partials():
    zs = FactorSequence((4, 3, 2, 5, 2, 7))
    first = stream(zs, 12).certified
    for n in range(5, 8):
        part = partial_cf(zs, n)
        assert part.coeffs[: len(first)] == first

    z2 = FactorSequence((2, 3, 4, 5, 6))
    first = stream(z2, 10).certified
    part = partial_cf(z2, 6)
    assert part.coeffs[: len(first)] == first


def test_interval_oracle_matches_recursion():
    # The two certification mechanisms must agree coefficient for
    # coefficient on sources where both apply.
    for source in (FactorSequence((3, 2, 2, 2, 2, 2)), AFFINE):
        rec = stream(source, 12).certified
        orc = tuple(OracleStream(source).take(12))
        k = min(len(rec), len(orc))
        assert k >= 12
        assert rec[:k] == orc[:k]
    z2src = FactorSequence((2, 6, 300, 2, 2))
    rec = stream(z2src, 9).certified
    orc = tuple(OracleStream(z2src).take(9))
    k = min(len(rec), len(orc))
    assert k >= 9 and rec[:k] == orc[:k]


def test_interval_oracle_matches_recursion_random():
    rng = random.Random(424242)
    for _ in range(20):
        z2 = rng.choice([2, rng.randint(3, 12)])
        z = (z2,) + tuple(rng.randint(2, 12) for _ in range(7))
        rec = stream(FactorSequence(z), 10).certified
        orc = tuple(OracleStream(FactorSequence(z)).take(10))
        k = min(len(rec), len(orc))
        assert k >= 10 and rec[:k] == orc[:k], z


def test_stream_alphabets():
    zs = FactorSequence((5, 3, 7, 2, 4, 9))
    got = stream(zs, 20)
    allowed = generic_alphabet(zs.z)
    assert set(got.certified) <= allowed

    for u in (3, 5, 9):
        got = stream(ones_tail(u), 30)
        assert set(got.certified) <= {1, u - 2, u - 1, u, u + 2}


def test_length_sequences():
    assert partial_lengths(FactorSequence((3, 2, 2, 2)), 5) == [1, 2, 5, 11, 23]
    assert partial_lengths(FactorSequence((2, 2, 2, 2)), 5) == [1, 2, 5, 10, 20]
    assert partial_lengths(ones_tail(4), 6) == [1, 2, 3, 5, 9, 17]
    assert partial_lengths(ones_tail(2), 6) == [1, 2, 3, 5, 7, 11]


def test_partial_cf_dispatch():
    assert partial_cf(FactorSequence((3, 2)), 1).coeffs == (1,)
    assert partial_cf(FactorSequence((5,)), 2).coeffs == (1, 5)
    assert partial_cf(FactorSequence((2, 4)), 3).coeffs == (1, 1, 1, 3, 2)
    # S_1 and S_2 come before the first fold.
    assert partial_cf(FactorSequence((2, 4)), 1).coeffs == (1,)
    assert partial_cf(FactorSequence((2, 4)), 2).coeffs == (1, 2)
    assert partial_cf(AFFINE, 2).coeffs == (1, 3)
    assert partial_cf(AFFINE, 4).coeffs == partial_cf(
        FactorSequence((3, 21, 23877)), 4
    ).coeffs
    # Mixed factor lists fold too.
    mixed = FactorSequence((5, 1, 2, 1))
    part = partial_cf(mixed, 4)
    assert evaluate(part) == partial_sum(from_factors(mixed, 4), 4)


def test_u2_split_representative():
    # For u = 2 the reported expansion ends in a unit quotient from n = 4 on;
    # the value is that of the canonical form.
    part = partial_cf(ones_tail(2), 4)
    assert part.coeffs == (1, 1, 4, 2, 1)
    assert evaluate(part) == Fraction(29, 16)
    assert expand_rational(29, 16).coeffs == (1, 1, 4, 3)
    assert _euclid_cf(SeriesSource(ones_tail(2)), 4) == part.coeffs
    assert partial_cf(ones_tail(2), 3).coeffs == (1, 1, 3)


def test_verify_step_identities():
    # The fold S_n -> S_{n+1} on final convergents: det M_n = -1,
    # p~ = z_{n+1} q p + 1 and q~ = z_{n+1} q^2 = x_{n+1}.
    def step(zs, n):
        (p2, q2), (p, q) = convergents(partial_cf(zs, n))[-2:]
        assert p * q2 - p2 * q == -1
        p_tilde, q_tilde = convergents(partial_cf(zs, n + 1))[-1]
        z_next = zs.factor(n + 1)
        assert p_tilde == z_next * q * p + 1
        assert q_tilde == z_next * q * q == SeriesSource(zs).x(n + 1)
        return p, q, p_tilde, q_tilde

    step(FactorSequence((3, 2, 2)), 3)
    step(FactorSequence((4, 3, 2, 5)), 3)

    ex1 = FactorSequence((3, 9, 81, 19683))
    p, q, p_tilde, q_tilde = step(ex1, 4)
    assert q_tilde == 3**33
    assert p_tilde == ex1.factor(5) * p * q + 1


def test_convergent_table_shares_rows_with_step_identities():
    zs = FactorSequence((3, 2, 2, 2))
    part = partial_cf(zs, 4)
    # l_n odd makes det of the full product -1.
    (p2, q2), (p, q) = convergents(part)[-2:]
    assert p * q2 - p2 * q == -1


def test_enclosure():
    lo, hi = enclosure(AFFINE, Fraction(1, 10**12))
    assert 0 < hi - lo <= Fraction(1, 10**12)
    # The ends are S_n + 1/x_{n+1} and S_n + 2/x_{n+1} at the first n that is fine enough.
    src = SeriesSource(AFFINE)
    n = next(n for n in range(2, 10) if src.x(n + 1) >= 10**12)
    s, x_next = src.partial_sum(n), src.x(n + 1)
    assert (lo, hi) == (s + Fraction(1, x_next), s + Fraction(2, x_next))
    target = Fraction("1.3386243")
    assert abs(lo - target) <= Fraction(5, 10**8)
    assert abs(hi - target) <= Fraction(5, 10**8)


def test_invalid_arguments_raise_invalid_spec():
    calls = [
        lambda: EngelStream(AFFINE).take(0),
        lambda: enclosure(AFFINE, Fraction(0)),
    ]
    for call in calls:
        with pytest.raises(InvalidSpec):
            call()


def test_series_source_partial_sums_match_reference():
    zs = FactorSequence((3, 5, 2, 7))
    src = SeriesSource(zs)
    xs = from_factors(zs, 5)
    for n in range(1, 6):
        assert src.partial_sum(n) == partial_sum(xs, n)


def test_series_source_from_sequence_terms():
    src = SeriesSource(factors_from_sequence([1, 1, 3, 81, 531441]))
    assert src.series_class.value == "generic"
    assert src.x(3) == 81
    assert src.factor(3) == 9
    with pytest.raises(TypeError):  # a built sequence goes through factors_from_sequence
        SeriesSource([1, 1, 3, 81, 531441])


def test_stream_take_is_monotone():
    es = EngelStream(ones_tail(3))
    first = es.take(5)
    longer = es.take(25)
    assert longer[: len(first)] == first
    rnd = random.Random(3)
    # A second stream over the same source certifies identical values.
    again = EngelStream(ones_tail(3)).take(5 + rnd.randint(0, 10))
    assert again[:5] == first[:5]


# ---------------------------------------------------------------------------
# The resumed interval oracle
# ---------------------------------------------------------------------------


def reference_oracle_stream(source, count):
    """The interval oracle from scratch: on every advance, the common prefix
    of expand_rational(S_n) and expand_rational(S_n + 2/x_{n+1}), minus one."""
    src = SeriesSource(source)
    emitted, lengths, n = [], [], 1
    while len(emitted) < count:
        n += 1
        lo = src.partial_sum(n)
        hi = lo + Fraction(2, src.x(n + 1))
        a = expand_rational(lo.numerator, lo.denominator).coeffs
        b = expand_rational(hi.numerator, hi.denominator).coeffs
        shared = 0
        while shared < min(len(a), len(b)) and a[shared] == b[shared]:
            shared += 1
        lengths.append(len(_euclid_cf(src, n)))
        if shared - 1 >= len(emitted):
            assert list(a[:len(emitted)]) == emitted
            emitted = list(a[:shared - 1])
    return tuple(emitted), tuple(lengths), n


_ORACLE_SOURCES = st.one_of(
    st.tuples(st.builds(ones_tail, st.integers(2, 12)), st.integers(1, 600)),
    st.tuples(st.builds(lambda z2, rest: FactorSequence((z2, *rest), tail_ones=True),
                        st.integers(2, 20),
                        st.lists(st.one_of(st.just(1), st.integers(2, 9)), max_size=6)),
              st.integers(1, 300)),
    st.tuples(st.builds(lambda z2, rest: FactorSequence((z2, *rest)),
                        st.one_of(st.just(2), st.integers(3, 20)),
                        st.lists(st.integers(2, 20), min_size=10, max_size=10)),
              st.integers(1, 300)),
)


@given(_ORACLE_SOURCES)
@settings(max_examples=60, deadline=None)
def test_resumed_oracle_matches_restarted_oracle(case):
    source, count = case
    es = OracleStream(source)
    es.take(count)
    got = es.result()
    assert (got.certified, got.lengths, got.n_used) == reference_oracle_stream(source, count)


@given(_ORACLE_SOURCES)
@settings(max_examples=60, deadline=None)
def test_the_resume_state_is_the_projection_of_the_full_matrix_state(case):
    # After every advance the oracle holds the second row of
    # M = convergent_matrix(emitted) and R = M^-1 (N_n, x_n), formed here
    # from both rows of M.
    source, count = case
    es = OracleStream(source)
    while len(es.emitted) < count:
        es._advance()
        lo = es._src.numerator(es._n), es._src.x(es._n)
        assert (es._row, es._rem) == _projected(convergent_matrix(es.emitted), len(es.emitted), *lo)


def _corruptions(m, emitted):
    # Each kind changes M's second row, so each also corrupts the oracle's row.
    p, p2, q, q2 = m
    yield p, p2, q + 1, q2  # det no longer +-1
    yield p2, p, q2, q  # columns swapped: det changes sign
    yield -p, -p2, -q, -q2  # det kept, tails negative
    # A column doubled: det is +-2, and the tails' ratio halves or doubles
    # while both may still pass 0 < B < A.
    yield 2 * p, p2, 2 * q, q2
    yield p, 2 * p2, q, 2 * q2
    # The product of a neighbouring prefix: the last coefficient one larger,
    # and one smaller where it is at least 2. Both keep det = +-1.
    for delta in (1, -1):
        if emitted[-1] + delta >= 1:
            (p2, q2), (p, q) = convergents(emitted[:-1] + [emitted[-1] + delta])[-2:]
            yield p, p2, q, q2


def _state_corruptions(row, rem, emitted):
    # The oracle's state (row, R) with one of them corrupted: the row as
    # each kind of _corruptions leaves it, then R off by one, swapped, moved
    # along (q', -q) either way (which keeps the state's equation) and doubled.
    m = convergent_matrix(emitted)
    assert row == m[2:]
    for bad in _corruptions(m, emitted):
        yield bad[2:], rem
    (q, q2), (r, r2) = row, rem
    yield row, (r + 1, r2)
    yield row, (r2, r)
    yield row, (r + q2, r2 - q)
    yield row, (r - q2, r2 + q)
    yield row, (2 * r, 2 * r2)


@pytest.mark.parametrize("source", [ones_tail(3), ones_tail(2), ones_tail(7),
                                    FactorSequence((5, 1, 2, 1), True)])
def test_corrupted_resume_state_never_emits_a_wrong_coefficient(source):
    clean = EngelStream(source)
    for _ in range(5):
        clean._advance()
    corruptions = list(_state_corruptions(clean._row, clean._rem, clean.emitted))
    assert len(corruptions) >= 11
    want = clean.take(400)
    # Each corruption fails one of _walk's checks on the next advance,
    # which raises before anything is emitted.
    for bad in corruptions:
        es = EngelStream(source)
        for _ in range(5):
            es._advance()
        emitted = list(es.emitted)
        es._row, es._rem = bad
        with pytest.raises(IdentityViolation):
            es.take(400)
        assert es.emitted == emitted == want[:len(emitted)], bad


def _projected(m, c, num, den):
    # The oracle's state for M = m at lo_{n-1} = (num, den): M's second row,
    # and R = (-1)^c [[q', -p'], [-q, p]] (num, den), which is M^-1 (num, den)
    # when det M = (-1)^c, from both rows of m.
    p, p2, q, q2 = m
    det = -1 if c % 2 else 1
    return (q, q2), (det * (q2 * num - p2 * den), det * (p * den - q * num))


def _direct_checks(m, c, lo, hi):
    # Both endpoints mapped through M^-1 directly: hi's pair, or None when
    # det M != (-1)^c or either mapped pair fails 0 < B < A.
    p, p2, q, q2 = m
    pairs = [_projected(m, c, *point)[1] for point in (lo, hi)]
    if p * q2 - p2 * q != (-1 if c % 2 else 1) or not all(0 < b < a for a, b in pairs):
        return None
    return pairs[1]


def _check_walk(m, c, lo, hi, s, prev=None):
    # The walk from m's projected state against the follow of hi's
    # explicitly mapped pair. lo is prev = (s', N, x) mapped to
    # s'*(N, x) + (1, 0); any lo is (1, N - 1, x). The state it returns is
    # checked against the full matrix F of the kept prefix: its row is F's
    # second row, and F maps its R to lo in both rows.
    s1, num1, den1 = prev = prev or (1, lo[0] - 1, lo[1])
    assert lo == (s1 * num1 + 1, s1 * den1)
    out = expansion._walk(*_projected(m, c, num1, den1), c, s1, den1, lo[1], s)
    hi_pair = _direct_checks(m, c, lo, hi)
    assert (out is None) == (hi_pair is None)
    if out is not None:
        tail, start, shared, row, rem = out
        assert shared == ProductTree(tail).follow(*hi_pair)
        assert start <= shared <= start + 1
        f = matrix_mul(m, convergent_matrix(tail[:max(shared - 1, 0)]))
        assert row == f[2:]
        assert (f[0] * rem[0] + f[1] * rem[1], f[2] * rem[0] + f[3] * rem[1]) == lo
    return out


_WALK_SOURCES = st.one_of(
    st.tuples(st.builds(ones_tail, st.integers(2, 12)), st.integers(1, 4000)),
    st.tuples(st.builds(lambda z2, rest: FactorSequence((z2, *rest), tail_ones=True),
                        st.integers(2, 20),
                        st.lists(st.one_of(st.just(1), st.integers(2, 9)), max_size=6)),
              st.integers(1, 1000)),
    st.tuples(st.builds(lambda z2, rest: FactorSequence((z2, *rest)),
                        st.one_of(st.just(2), st.integers(3, 20)),
                        st.lists(st.integers(2, 20), min_size=10, max_size=10)),
              st.integers(1, 300)),
    st.tuples(st.sampled_from((ThirdOrderSpec(1, 2, ((0, 1, 2), (1, 0, 1))), lift_spec(AFFINE))),
              st.integers(1, 200)),
)


@given(_WALK_SOURCES)
@example((ones_tail(3), 15000))
@example((ones_tail(2), 15000))
@settings(max_examples=60, deadline=None)
def test_the_walk_from_the_end_finds_the_follows_count(case):
    # Every advance's walk equals the block-by-block follow of hi's mapped
    # pair, and stops at most two steps back from the end of the tail, as
    # _walk's docstring proves for a prefix of lo's expansion.
    source, count = case
    es = OracleStream(source)
    src = es._src
    while len(es.emitted) < count:
        n = max(es._n + 1, 2)
        lo, hi = (src.numerator(n), src.x(n)), (src.numerator(n + 1) + 1, src.x(n + 1))
        s = src.factor(n + 1) * src.x(n)
        prev = (src.factor(n) * src.x(n - 1), src.numerator(n - 1), src.x(n - 1))
        tail, start, _, _, _ = _check_walk(convergent_matrix(es.emitted), len(es.emitted),
                                           lo, hi, s, prev)
        assert len(tail) - start <= 2
        es._advance()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_walk_is_the_direct_check_for_any_multiplier(data):
    # _walk reads hi as s*lo + (2, 0) for any s >= 1. A small s puts hi far
    # from lo, so that hi's check fails on long prefixes of lo's expansion
    # (and the walk passes k = 0); s >= x_n is the store's case.
    den = data.draw(st.integers(1, 1 << 200))
    num = data.draw(st.integers(den + 1, 1 << 201))
    s = data.draw(st.one_of(st.integers(1, 64), st.integers(den, 4 * den)))
    coeffs = expand_rational(num, den).coeffs
    c = data.draw(st.integers(0, len(coeffs)))
    m = convergent_matrix(coeffs[:c])
    if c >= 2 and data.draw(st.booleans()):
        m = data.draw(st.sampled_from(list(_corruptions(m, list(coeffs[:c])))))
    out = _check_walk(m, c, (num, den), (s * num + 2, s * den), s)
    if out is not None and s >= den and m == convergent_matrix(coeffs[:c]):
        assert len(out[0]) - out[1] <= 2


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_half_size_image_is_the_direct_image(data):
    # _walk maps lo = s'*lo_{n-1} + (1, 0) as s'*R + (-1)^c (q', -q). That
    # is a linear identity: M^-1 lo for any M with det M = (-1)^c, a
    # corrupted one included. For any other M the state's equation
    # q R_0 + q' R_1 = x_{n-1} fails, as _direct_checks' det check does, so
    # every check reaches the same verdict.
    den1 = data.draw(st.integers(1, 1 << 120))
    num1 = data.draw(st.integers(den1, 1 << 121))
    s1 = data.draw(st.one_of(st.integers(1, 64), st.integers(den1, 4 * den1)))
    num, den = s1 * num1 + 1, s1 * den1
    coeffs = expand_rational(num, den).coeffs
    c = data.draw(st.integers(0, len(coeffs)))
    m = convergent_matrix(coeffs[:c])
    if c >= 2 and data.draw(st.booleans()):
        m = data.draw(st.sampled_from(list(_corruptions(m, list(coeffs[:c])))))
    elif data.draw(st.booleans()):
        m = tuple(data.draw(st.integers(-(1 << 130), 1 << 130)) for _ in range(4))
    s = data.draw(st.one_of(st.integers(1, 64), st.integers(den, 4 * den)))
    _check_walk(m, c, (num, den), (s * num + 2, s * den), s, (s1, num1, den1))


def test_the_walk_on_small_pairs_where_hi_ends_inside_the_tail():
    # Every prefix of every num/den in (1, 3) with den < 25, at s = 1..3.
    # There hi is often a convergent of lo, so the walk stops one point
    # before the shared count and its divmod step finds one more quotient.
    steps = 0
    for den in range(1, 25):
        for num in range(den + 1, 3 * den):
            coeffs = expand_rational(num, den).coeffs
            for s in (1, 2, 3):
                for c in range(len(coeffs) + 1):
                    out = _check_walk(convergent_matrix(coeffs[:c]), c, (num, den),
                                      (s * num + 2, s * den), s)
                    steps += out is not None and out[2] > out[1]
    assert steps > 50


def test_resumed_oracle_expands_each_coefficient_about_once(monkeypatch):
    # Only the tail of S_n past the emitted prefix is expanded; the upper
    # endpoint is checked against it, never expanded. Restarting from a_0
    # on both endpoints handed Euclid about 5.8 coefficients per certified one.
    returned = []
    original = expansion.expand_rational

    def counting(*args):
        out = original(*args)
        returned.append(len(out))
        return out

    monkeypatch.setattr(expansion, "expand_rational", counting)
    got = stream(ones_tail(3), 15000)
    assert len(got.certified) <= sum(returned) <= 2 * len(got.certified)


def test_the_oracle_reads_no_numerator_and_one_quotient_per_coefficient(monkeypatch):
    # The oracle's state holds no numerator, so no N_n is formed. Euclid
    # takes 16413 quotients for 16383 certified coefficients: the
    # benchmark's self-test reads cf.euclid_steps >= expansion.certified
    # on this input.
    numerators, returned = [0], []
    numerator, original = SeriesSource.numerator, expansion.expand_rational

    def counting_numerator(self, n):
        numerators[0] += 1
        return numerator(self, n)

    def counting(*args):
        out = original(*args)
        returned.append(len(out))
        return out

    monkeypatch.setattr(SeriesSource, "numerator", counting_numerator)
    monkeypatch.setattr(expansion, "expand_rational", counting)
    got = stream(ones_tail(3), 15000)
    assert (numerators[0], len(returned), sum(returned), len(got.certified)) == (0, 15, 16413, 16383)


def test_the_oracle_reads_the_next_factor_by_one_lookup(monkeypatch):
    # z_{n+1} is read by itself, not as the last of z_2..z_{n+1}; past a
    # finite list it raises as a list of factors does.
    def refuse(self, j_max):
        raise AssertionError("factors_through called")

    monkeypatch.setattr(SeriesSource, "factors_through", refuse)
    assert len(stream(ones_tail(3), 2000).certified) >= 2000
    with pytest.raises(InsufficientFactors, match=r"^need z_6 but only 4 factors given$"):
        stream(FactorSequence((5, 1, 2, 1)), 12)


def test_the_oracle_forms_no_term_past_the_partial_sum_it_reads():
    # An advance to S_n reads z_{n+1} but never forms x_{n+1}: the upper
    # endpoint is s*lo + (2, 0) with s = z_{n+1} x_n. So a budget that
    # admits x_{n_used} but not x_{n_used+1} (x_13 of 3247 bits at a cap of
    # 2048) certifies what no budget does.
    store = SeriesSource(ones_tail(3))
    got = stream(store, 15000)
    assert got.n_used == 16 and len(store._terms) == 16
    assert stream(SeriesSource(ones_tail(3), 4096), 1000) == stream(ones_tail(3), 1000)


def test_the_oracle_multiplies_out_under_half_of_its_quotients(monkeypatch):
    # Euclid's kept batches hand the walk their quotient products, so only
    # its single divmod steps go through convergent_matrix's per-quotient
    # loop. Multiplying every tail quotient out again would count more
    # than the certified coefficients.
    looped = [0]
    original = cf.convergent_matrix

    def counting(coeffs):
        if len(coeffs) <= cf._LEAF:
            looped[0] += len(coeffs)
        return original(coeffs)

    monkeypatch.setattr(cf, "convergent_matrix", counting)
    got = stream(ones_tail(3), 15000)
    assert 0 < looped[0] < len(got.certified) / 2
