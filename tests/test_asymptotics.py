import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, workdps

from engelcf import asymptotics
from engelcf.asymptotics import (
    _alpha,
    _alphas,
    _log_rows,
    dominant_root,
    empirical_growth_constant,
    estimate_C,
    full_report,
    growth_report,
    log_big,
    roth_exponents,
)
from engelcf.exceptions import BitBudgetExceeded, DegenerateRoot, InvalidSpec
from engelcf.sequences import (
    BitBudget,
    FactorSequence,
    SecondOrderSpec,
    SeriesSource,
    ThirdOrderSpec,
    from_factors,
    generate_recurrence,
    lift_spec,
    ones_tail,
)

CUBIC3 = SecondOrderSpec(3, (3,))
AFFINE = SecondOrderSpec(3, (1, 2))
DEGEN = SecondOrderSpec(3, (1, 1))


def test_dominant_root_values():
    with workdps(60):
        assert abs(dominant_root(3, 1) - (2 + mp.sqrt(3))) < mp.mpf("1e-45")
        assert abs(dominant_root(3, 0) - (3 + mp.sqrt(5)) / 2) < mp.mpf("1e-45")
    with pytest.raises(DegenerateRoot):
        dominant_root(2, 0)


def test_dominant_root_residuals():
    with workdps(60):
        for d1 in range(3, 21):
            for d2 in range(0, 21):
                lam = dominant_root(d1, d2)
                assert lam > 2
                assert abs(lam * lam - (d1 + d2) * lam + 1) < mp.mpf("1e-45")
                assert abs(lam * (1 / lam) - 1) < mp.mpf("1e-49")


def test_log_big_matches_direct():
    with workdps(50):
        for v in (1, 2, 3**40, 7**100, 2**64 - 1, 2**64 + 1):
            assert abs(log_big(v) - mp.log(mp.mpf(v))) < mp.mpf("1e-18")
    with pytest.raises(InvalidSpec):
        log_big(0)


def test_reconstruction_trivial_and_known():
    report = full_report(AFFINE, 3)
    assert report.lambda_n_exact[1] == 0 and report.lambda_n_true[1] == 0
    e2, t2 = report.lambda_n_exact[2], report.lambda_n_true[2]
    with workdps(60):
        assert abs(t2 - mp.log(3)) < mp.mpf("1e-18")
        assert abs(e2 - t2) < mp.mpf("1e-18")
    report = full_report(CUBIC3, 5)
    e5, t5 = report.lambda_n_exact[5], report.lambda_n_true[5]
    with workdps(60):
        assert abs(t5 - 33 * mp.log(3)) < mp.mpf("1e-14")
        assert abs(e5 - 33 * mp.log(3)) < mp.mpf("1e-14")


@pytest.mark.parametrize("spec", [CUBIC3, AFFINE, DEGEN])
def test_reconstruction_relative_error(spec):
    report = full_report(spec, 12)
    for n in range(0, 13):
        exact, true = report.lambda_n_exact[n], report.lambda_n_true[n]
        assert abs(exact - true) / max(1, abs(true)) < mp.mpf("1e-9")


def test_estimate_C_reference_values():
    c_affine, bound = estimate_C(AFFINE)
    with workdps(60):
        assert abs(c_affine - mp.mpf("0.107812043")) <= mp.mpf("1e-8")
        assert bound < mp.mpf("1e-20")
    c_degen, _ = estimate_C(DEGEN)
    with workdps(60):
        assert abs(c_degen - mp.mpf("0.06224548")) <= mp.mpf("1e-7")
    # Pure-power case: every correction term vanishes and C has a closed form.
    c_cubic, bound = estimate_C(CUBIC3)
    with workdps(60):
        lam = dominant_root(3, 0)
        closed = (1 - 1 / lam) / (lam - 1 / lam) * mp.log(3)
        assert abs(c_cubic - closed) < mp.mpf("1e-40")
        assert bound == 0


def test_estimate_C_truncation_shrinks():
    loose, loose_bound = estimate_C(AFFINE, rel_cut=1e-6)
    tight, tight_bound = estimate_C(AFFINE, rel_cut=1e-15)
    assert abs(loose - tight) <= loose_bound
    assert tight_bound <= loose_bound


def test_asymptotic_constant_consistency():
    # log x_n / lam^n approaches C; within 1e-6 by n = 10 for the affine spec.
    c_value, _ = estimate_C(AFFINE)
    lam = dominant_root(3, 1)
    x10 = generate_recurrence(AFFINE, 11)[10]
    with workdps(60):
        assert abs(log_big(x10) / lam**10 - c_value) < mp.mpf("1e-6")


def test_empirical_growth_constant():
    lifted = lift_spec(AFFINE)
    c_prime, drift = empirical_growth_constant(lifted, n=12)
    with workdps(60):
        assert abs(c_prime - mp.mpf("0.0227833")) <= mp.mpf("1e-5")
        assert drift < mp.mpf("1e-8")
        # Factorization X_n X_{n+1} = x_n forces C' (1 + lam) = C; the
        # empirical C' still drifts by O(lam^-n), hence the loose tolerance.
        c_parent, _ = estimate_C(AFFINE)
        lam = dominant_root(3, 1)
        assert abs(c_prime * (1 + lam) - c_parent) < mp.mpf("1e-6")
    with pytest.raises(InvalidSpec):
        empirical_growth_constant(ThirdOrderSpec(1, 2, ((0, 1, 2), (1, 0, 1))).validate())


def test_growth_report_recurrence():
    lam = dominant_root(3, 1)
    report = growth_report(generate_recurrence(AFFINE, 8), lam, 0.1)
    assert report.holds_from == 2
    assert report.ok
    with workdps(50):
        # Exponents decrease toward lam.
        assert abs(report.rows[-1].exponent - lam) < mp.mpf("0.01")


def test_growth_report_ones_tail():
    lam = dominant_root(3, 1)
    xs = from_factors(ones_tail(5), 9)
    report = growth_report(xs.x, lam, 0.1)
    assert all(abs(row.exponent - 2) < mp.mpf("1e-12") for row in report.rows)
    assert not report.ok


def test_growth_report_slow_sequence():
    report = growth_report([2**n for n in range(1, 12)], dominant_root(3, 1), 0.1)
    assert not report.ok
    with workdps(50):
        assert abs(report.rows[-1].exponent - 1) < mp.mpf("0.2")


def test_roth_exponents_recurrence():
    report = roth_exponents(AFFINE, 8)
    assert [r.n for r in report.records] == list(range(2, 10))
    for record in report.records:
        assert record.lower <= record.upper
        if record.n >= 5:
            assert record.lower > mp.mpf("2.3")
    assert report.delta > 0
    assert report.records[0].q_bits == 2  # q = x_2 = 3


def test_roth_exponents_ones_tail():
    report = roth_exponents(ones_tail(3), 10)
    for record in report.records:
        # x_{n+1} = x_n^2 pins the bracket around exponent 2.
        assert record.lower < 2
        assert record.upper > 2 - mp.mpf("1e-12")
        assert record.upper < 2 + mp.mpf("1e-12")
    assert report.delta < 0


def test_roth_single_record():
    report = roth_exponents(FactorSequence((5, 2, 3)), 1)
    assert len(report.records) == 1
    record = report.records[0]
    with workdps(50):
        assert abs(record.upper - log_big(50) / log_big(5)) < mp.mpf("1e-30")


def test_full_report_shape():
    report = full_report(AFFINE, n_max=6)
    assert report.c_lead == 2
    assert len(report.lambda_n_true) == 7 and len(report.lambda_n_exact) == 7
    assert report.lambda_n_true[0] == 0 and report.lambda_n_true[1] == 0
    assert [n for n, _ in report.growth_exponents] == [2, 3, 4, 5, 6]
    assert [r.n for r in report.roth.records] == [2, 3, 4, 5, 6]
    with workdps(50):
        for n in range(7):
            assert abs(report.lambda_n_true[n] - report.lambda_n_exact[n]) < mp.mpf("1e-9")
        assert len(report.alphas) == 5
        assert abs(report.alphas[0] - mp.log(mp.mpf(3) / 2)) < mp.mpf("1e-30")


def test_log_rows_stop_at_x_n_max():
    # The growth-table script reads these rows. They equal full_report's,
    # and neither forms a term past x_5 (see the next test), so a budget
    # that admits x_1..x_5 changes nothing.
    budget = BitBudget(113, 153)
    report = full_report(AFFINE, 8)
    _, _, lam, c_pair, _, logs, exacts = _log_rows(AFFINE, 8, budget=budget)
    assert (lam, c_pair) == (report.lam, (report.C, report.C_bound))
    assert tuple(logs) == report.lambda_n_true and exacts == report.lambda_n_exact
    assert full_report(AFFINE, 8, budget=budget) == report


def test_full_report_forms_no_term_it_does_not_read():
    # The constant C reads a_1..a_5, whose bracket runs stay exact, so
    # x_1..x_5 are formed (x_5 has 113 bits, 153 are charged in all);
    # every later a_k and every log comes from brackets. So a budget that
    # admits x_5 but not x_6 (420 bits) changes nothing, even at n = 40,
    # and one below x_5 still raises.
    budget = BitBudget(single=113, total=153)
    assert full_report(AFFINE, 11, budget=budget) == full_report(AFFINE, 11)
    assert full_report(AFFINE, 40, budget=budget) == full_report(AFFINE, 40)
    with pytest.raises(BitBudgetExceeded, match="x_5"):
        full_report(AFFINE, 11, budget=BitBudget(single=112))


def _valid(spec) -> bool:
    try:
        spec.validate()
    except InvalidSpec:
        return False
    return True


@given(
    st.builds(SecondOrderSpec, st.integers(3, 6),
              st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple)).filter(_valid),
    st.integers(2, 9),
    st.integers(1, 4),
    st.sampled_from([15, 50]),
    st.sampled_from([asymptotics._ALPHA_GUARD_BITS, 0]),
)
@settings(max_examples=60, deadline=None)
def test_bracket_alpha_matches_the_exact_term(spec, k, lag, dps, guard):
    # a_k from brackets of x_k, with x_1..x_{k-lag} in the store, is the
    # mpf that the formed x_k gives, bit for bit. Without guard bits the
    # first bracket often rounds apart, so the doubling runs too. A term of
    # 64 bits or fewer never leaves the exact run; one past 2^17 bits costs
    # too much to form.
    exact = SeriesSource(spec)
    assume(64 < exact.head(k)[0] <= 1 << 17)
    store = SeriesSource(spec)
    store.x(max(k - lag, 1))
    saved, asymptotics._ALPHA_GUARD_BITS = asymptotics._ALPHA_GUARD_BITS, guard
    try:
        with workdps(dps):
            got = _alphas(spec, store)(k)
            want = _alpha(spec, exact.x(k))
    finally:
        asymptotics._ALPHA_GUARD_BITS = saved
    assert (got.man, got.exp) == (want.man, want.exp)


def test_alpha_doubles_its_precision_then_forms_the_term(monkeypatch):
    # At 60 digits (203 bits) and a first bracket run of 16 bits, a_7
    # (x_7 has 1568 bits) settles at 256 bits without forming x_7. a_5 is
    # still open at 64 bits, and 128 would cover x_5 (113 bits), so a_5 is
    # read from x_5 formed through the store instead.
    precisions = []
    original = SeriesSource._bracket_term

    def bracket_term(self, n, prec):
        precisions.append(prec)
        return original(self, n, prec)

    monkeypatch.setattr(SeriesSource, "_bracket_term", bracket_term)
    exact = SeriesSource(AFFINE)
    for k, formed, tried, formed_after in ((7, 5, [16, 32, 64, 128, 256], 5),
                                           (5, 4, [16, 32, 64], 5)):
        store = SeriesSource(AFFINE)
        store.x(formed)
        precisions.clear()
        with workdps(60):
            monkeypatch.setattr(asymptotics, "_ALPHA_GUARD_BITS", 16 - mp.prec)
            got = _alphas(AFFINE, store)(k)
            assert got == _alpha(AFFINE, exact.x(k))
        assert precisions == tried
        assert len(store._terms) - store._pad == formed_after


def test_invalid_arguments_raise_invalid_spec():
    lam = dominant_root(3, 1)
    calls = [
        lambda: log_big((3, 0)),
        lambda: full_report(AFFINE, 2),
        lambda: roth_exponents(AFFINE, 0),
        lambda: growth_report([1, 2, 3, 4], lam),
    ]
    for call in calls:
        with pytest.raises(InvalidSpec):
            call()
