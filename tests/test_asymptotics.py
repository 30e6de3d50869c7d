import pathlib
import runpy
import sys

import pytest
from decimal import Context, Decimal, Inexact
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from engelcf import asymptotics, sequences
from engelcf.asymptotics import (
    DEFAULT_DPS,
    _alphas,
    _context,
    _digits_text,
    _lambda_exacts,
    dominant_root,
    estimate_C,
    full_report,
    growth_report,
    log_big,
    roth_exponents,
)
from engelcf.exceptions import BitBudgetExceeded, DegenerateRoot, InvalidSpec
from engelcf.sequences import (
    FactorSequence,
    SecondOrderSpec,
    SeriesSource,
    from_factors,
    generate_recurrence,
    lift_spec,
    ones_tail,
)
from oracles import lift_growth_constant
from test_sequences import second_order_specs

CUBIC3 = SecondOrderSpec(3, (3,))
AFFINE = SecondOrderSpec(3, (1, 2))
DEGEN = SecondOrderSpec(3, (1, 1))
CTX = _context(DEFAULT_DPS)  # the 60 digits every default call works at


def off(a, b) -> Fraction:
    """|a - b| of two Decimals, ints or Fractions, exactly."""
    return abs(Fraction(a) - Fraction(b))


def test_dominant_root_values():
    assert off(dominant_root(3, 1), CTX.add(2, CTX.sqrt(3))) < Fraction("1e-45")
    assert off(dominant_root(3, 0), CTX.divide(CTX.add(3, CTX.sqrt(5)), 2)) < Fraction("1e-45")
    with pytest.raises(DegenerateRoot):
        dominant_root(2, 0)


def test_dominant_root_residuals():
    for d1 in range(3, 21):
        for d2 in range(0, 21):
            lam = dominant_root(d1, d2)
            assert lam > 2
            t = Fraction(lam)
            assert abs(t * t - (d1 + d2) * t + 1) < Fraction("1e-45")
            assert abs(t * Fraction(CTX.divide(1, lam)) - 1) < Fraction("1e-49")


def test_log_big_matches_direct():
    for v in (1, 2, 3**40, 7**100, 2**64 - 1, 2**64 + 1):
        assert off(log_big(v), CTX.ln(v)) < Fraction("1e-18")
    with pytest.raises(InvalidSpec):
        log_big(0)


def test_reconstruction_trivial_and_known():
    report = full_report(AFFINE, 3)
    assert report.lambda_n_exact[1] == 0 and report.lambda_n_true[1] == 0
    e2, t2 = report.lambda_n_exact[2], report.lambda_n_true[2]
    assert off(t2, CTX.ln(3)) < Fraction("1e-18")
    assert off(e2, t2) < Fraction("1e-18")
    report = full_report(CUBIC3, 5)
    e5, t5 = report.lambda_n_exact[5], report.lambda_n_true[5]
    assert off(t5, CTX.multiply(33, CTX.ln(3))) < Fraction("1e-14")
    assert off(e5, CTX.multiply(33, CTX.ln(3))) < Fraction("1e-14")


@pytest.mark.parametrize("spec", [CUBIC3, AFFINE, DEGEN])
def test_reconstruction_relative_error(spec):
    report = full_report(spec, 12)
    for n in range(0, 13):
        exact, true = report.lambda_n_exact[n], report.lambda_n_true[n]
        assert off(exact, true) / max(1, abs(Fraction(true))) < Fraction("1e-9")


def test_estimate_C_reference_values():
    c_affine, bound = estimate_C(AFFINE)
    assert off(c_affine, Decimal("0.107812043")) <= Fraction("1e-8")
    assert bound < Decimal("1e-20")
    c_degen, _ = estimate_C(DEGEN)
    assert off(c_degen, Decimal("0.06224548")) <= Fraction("1e-7")
    # Pure-power case: every correction term vanishes and C has a closed form.
    c_cubic, bound = estimate_C(CUBIC3)
    lam = Fraction(dominant_root(3, 0))
    closed = (1 - 1 / lam) / (lam - 1 / lam) * Fraction(CTX.ln(3))
    assert off(c_cubic, closed) < Fraction("1e-40")
    # No series is left to truncate, so the bound is the rounding of the
    # closed form at the working precision alone, (4 + 10) eps C with the
    # decimal eps 10^-59 of 60 digits, and it covers it.
    wide = _context(100)
    lam = dominant_root(3, 0, 100)
    lami = wide.divide(1, lam)
    closed = wide.multiply(wide.divide(wide.subtract(1, lami), wide.subtract(lam, lami)), wide.ln(3))
    assert off(c_cubic, closed) <= bound == CTX.multiply(Decimal("14e-59"), c_cubic)


def test_estimate_C_truncation_shrinks(monkeypatch):
    tight, tight_bound = estimate_C(AFFINE)
    monkeypatch.setattr(asymptotics, "_C_REL_CUT", Decimal("1e-6"))
    loose, loose_bound = estimate_C(AFFINE)
    assert off(loose, tight) <= loose_bound
    assert tight_bound <= loose_bound


def test_asymptotic_constant_consistency():
    # log x_n / lam^n approaches C; within 1e-6 by n = 10 for the affine spec.
    c_value, _ = estimate_C(AFFINE)
    lam = dominant_root(3, 1)
    x10 = generate_recurrence(AFFINE, 11)[10]
    assert off(CTX.divide(log_big(x10), CTX.power(lam, 10)), c_value) < Fraction("1e-6")


@given(second_order_specs())
@settings(max_examples=40, deadline=None)
def test_lift_growth_constant_is_the_series_constant_over_1_plus_lam(spec):
    # X_n X_{n+1} = x_n gives l_n = log X_n = sum_{j<n} (-1)^(n-1-j) L_j,
    # so with C' = C/(1 + lam) and r_j = L_j - C lam^j,
    #   e_n = l_n - C' lam^n = -C' (-1)^n + sum_{j<n} (-1)^(n-1-j) r_j.
    # The closed form of L_j, with K = log c/(d1+d2-2) and D = lam - 1/lam,
    # gives r_j = -K - K (1 - lam) lam^-j / D - sum_{k>=1} lam^-|j-k| a_k / D.
    # The alternating sums of 1 and of lam^-j are at most 1 in size; the
    # last part, summed over all j, is at most (lam+1)/((lam-1) D) sum a_k.
    # a_k <= B(x_k)/(c x_k^d2) <= (G(1)/c - 1)/x_k, B the sub-leading part
    # of G, and sum_k 1/x_k <= 2 as x_1 = 1 and x_{k+1} >= x_k^2 >= 2 x_k
    # from x_2 >= 2. So |e_n| <= bound below: log_big is within 2^-63 of
    # l_n, and rounding at 60 digits is far smaller. The bound itself is
    # evaluated exactly, on the 60-digit lam, C and log c.
    c_value, c_bound = estimate_C(spec)
    lam = Fraction(dominant_root(spec.d1, spec.d2))
    lifted = SeriesSource(lift_spec(spec))
    c_lift = Fraction(c_value) / (1 + lam)
    K = Fraction(CTX.ln(spec.c)) / (spec.d1 + spec.d2 - 2)
    D = lam - 1 / lam
    sum_a = 2 * (Fraction(spec.g1, spec.c) - 1)
    bound = c_lift + K * (1 + (lam - 1) / D) + (lam + 1) / ((lam - 1) * D) * sum_a + Fraction(1, 2**63)
    for n in (12, 16, 20):
        error = Fraction(lift_growth_constant(lifted, spec, n)) - c_lift
        assert abs(error) <= bound / lam**n + Fraction(c_bound)


def test_growth_report_recurrence():
    lam = dominant_root(3, 1)
    report = growth_report(generate_recurrence(AFFINE, 8), lam, 0.1)
    assert report.holds_from == 2
    assert report.ok
    # Exponents decrease toward lam.
    assert off(report.rows[-1].exponent, lam) < Fraction("0.01")


def test_growth_report_ones_tail():
    lam = dominant_root(3, 1)
    xs = from_factors(ones_tail(5), 9)
    report = growth_report(xs, lam, 0.1)
    assert all(off(row.exponent, 2) < Fraction("1e-12") for row in report.rows)
    assert not report.ok


def test_growth_report_slow_sequence():
    report = growth_report([2**n for n in range(1, 12)], dominant_root(3, 1), 0.1)
    assert not report.ok
    assert off(report.rows[-1].exponent, 1) < Fraction("0.2")


def test_roth_exponents_recurrence():
    report = roth_exponents(AFFINE, 8)
    assert [r.n for r in report.records] == list(range(2, 10))
    for record in report.records:
        assert record.lower <= record.upper
        if record.n >= 5:
            assert record.lower > Decimal("2.3")
    assert report.delta > 0
    assert report.records[0].q_bits == 2  # q = x_2 = 3


def test_roth_exponents_ones_tail():
    report = roth_exponents(ones_tail(3), 10)
    for record in report.records:
        # x_{n+1} = x_n^2 pins the bracket around exponent 2.
        assert record.lower < 2
        assert Fraction(record.upper) > 2 - Fraction("1e-12")
        assert Fraction(record.upper) < 2 + Fraction("1e-12")
    assert report.delta < 0


def test_roth_single_record():
    report = roth_exponents(FactorSequence((5, 2, 3)), 1)
    assert len(report.records) == 1
    record = report.records[0]
    assert off(record.upper, CTX.divide(log_big(50), log_big(5))) < Fraction("1e-30")


def test_full_report_shape():
    report = full_report(AFFINE, n_max=6)
    assert len(report.lambda_n_true) == 7 and len(report.lambda_n_exact) == 7
    assert report.lambda_n_true[0] == 0 and report.lambda_n_true[1] == 0
    assert [r.n for r in report.roth.records] == [2, 3, 4, 5, 6]
    for n in range(7):
        assert off(report.lambda_n_true[n], report.lambda_n_exact[n]) < Fraction("1e-9")
    # a_1 = log(G(x_1) / (c x_1^d2)) = log(3/2) at x_1 = 1.
    a_1 = _alphas(AFFINE, SeriesSource(AFFINE), CTX)(1)
    assert off(a_1, CTX.ln(CTX.divide(3, 2))) < Fraction("1e-30")


def test_full_report_forms_no_term_it_does_not_read():
    # The cut sums read a_1..a_6 from formed terms, so x_1..x_6 are formed
    # (x_6 has 420 bits, 573 are charged in all); every log comes from
    # brackets. So a budget of 840 bits, whose single-term cap of 420
    # admits x_6 but not x_7 (1568 bits), changes nothing, even at n = 40,
    # and 838 bits (cap 419) raise on x_6.
    for n in (8, 11, 40):
        store = SeriesSource(AFFINE, 840)
        assert full_report(store, n) == full_report(AFFINE, n)
    with pytest.raises(BitBudgetExceeded, match="x_6"):
        full_report(SeriesSource(AFFINE, 838), 11)


def test_a_report_computes_each_constant_log_once():
    # ln 2 (every log_big and the Roth bounds) and ln c (the closed-form L_n
    # and C) are each formed once per precision, and read again after that.
    asymptotics._ln.cache_clear()
    full_report(SecondOrderSpec(3, (1, 3)), 11)
    info = asymptotics._ln.cache_info()
    assert info.misses == info.currsize == 2 and info.hits >= 1


def test_a_report_steps_one_bracket_run(monkeypatch):
    # Heads read brackets of x_k from the store's one run. A head starts at
    # the precision of the run the store holds, so between two formed terms
    # the precision never falls and the run restarts only when it doubles:
    # a report through n = 1000 takes under 2 (n + 2) steps.
    steps, precisions = [], []
    step = sequences._second_order_step
    monkeypatch.setattr(sequences, "_second_order_step",
                        lambda *args: steps.append(1) or step(*args))
    bracket_term = SeriesSource._bracket_term

    def spy(self, i, prec):
        precisions.append((len(self._terms), prec))
        return bracket_term(self, i, prec)

    monkeypatch.setattr(SeriesSource, "_bracket_term", spy)
    n = 1000
    store = SeriesSource(AFFINE)
    full_report(store, n)
    assert len(steps) <= 2 * (n + 2)
    # The heads of the terms past the formed ones, through x_{n+1}, are
    # read after the last formed term.
    formed = len(store._terms)
    assert sum(count == formed for count, _ in precisions) >= n + 1 - (formed - store._pad)
    for (count, prec), (next_count, next_prec) in zip(precisions, precisions[1:]):
        assert count != next_count or prec <= next_prec


def test_growth_table_script_prints_full_report(capsys, monkeypatch):
    # Below --maxn 3 the script reads full_report(spec, 3), since
    # full_report needs n_max >= 3; lambda and C do not depend on n_max.
    root = pathlib.Path(__file__).resolve().parent.parent
    script = runpy.run_path(str(root / "scripts" / "asymptotics_table.py"))
    monkeypatch.setattr(sys, "argv", ["asymptotics_table.py", "--maxn", "2"])
    assert script["main"]() == 0
    want = []
    for spec in script["SPECS"].values():
        report = full_report(spec, 8)
        want += [f"   lambda = {_digits_text(report.lam, 20)}",
                 f"   C      = {_digits_text(report.C, 15)}  (tail bound {_digits_text(report.C_bound, 2)})"]
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith(("   lambda", "   C "))] == want


@pytest.mark.parametrize("call, message", [
    (lambda: full_report(ones_tail(3), 5),
     "growth analysis needs a second-order spec, got FactorSequence"),
    (lambda: estimate_C(lift_spec(AFFINE)),
     "growth analysis needs a second-order spec, got ThirdOrderSpec"),
], ids=["full_report", "estimate_C"])
def test_a_source_of_the_wrong_kind_is_invalid(call, message):
    with pytest.raises(InvalidSpec) as exc:
        call()
    assert str(exc.value) == message


def test_invalid_arguments_raise_invalid_spec():
    lam = dominant_root(3, 1)
    calls = [
        lambda: log_big((3, 0)),
        lambda: log_big((3, 100)),
        lambda: log_big((200, 5)),
        lambda: full_report(AFFINE, 2),
        lambda: roth_exponents(AFFINE, 0),
        lambda: growth_report([1, 2, 3, 4], lam),
    ]
    for call in calls:
        with pytest.raises(InvalidSpec):
            call()


@pytest.mark.parametrize("call", [
    lambda store, dps: log_big(10**30, dps),
    lambda store, dps: dominant_root(3, 1, dps),
    lambda store, dps: estimate_C(store, dps),
    lambda store, dps: full_report(store, 4, dps),
    lambda store, dps: growth_report(generate_recurrence(AFFINE, 6), 3.7, 0.1, dps),
    lambda store, dps: roth_exponents(store, 3, dps),
], ids=["log_big", "dominant_root", "estimate_C", "full_report", "growth_report", "roth_exponents"])
@pytest.mark.parametrize("dps, error", [(0, InvalidSpec), (-5, InvalidSpec), (2.5, TypeError)])
def test_the_working_precision_is_checked_before_anything_is_formed(call, dps, error):
    # A precision below one digit, or one that is not an int, is refused
    # before any term is formed, never run at some other precision.
    store = SeriesSource(AFFINE)
    with pytest.raises(error):
        call(store, dps)
    assert store._meter.total_bits == 0


def test_the_lambda_sum_takes_a_few_terms_per_n(monkeypatch):
    # The cut sum reads a few a_k for each n, all at small k, where the
    # whole sum would read n(n-1)/2 of them, up to a_{n-1}.
    read = []
    inner = asymptotics._lambda_exacts

    def counted(spec, lam, alpha, n_max, ctx):
        return inner(spec, lam, lambda k: read.append(k) or alpha(k), n_max, ctx)

    monkeypatch.setattr(asymptotics, "_lambda_exacts", counted)
    for n in (100, 1000):
        read.clear()
        full_report(AFFINE, n)
        assert len(read) <= 10 * n
        assert max(read) < 10


_READABLE_BITS = 1 << 16  # the largest x_k whose a_k the whole sum below reads


@given(second_order_specs(), st.integers(3, 200))
@settings(max_examples=40, deadline=None)
def test_the_cut_sum_is_the_whole_sum(spec, n_max):
    # The whole sum adds w_{n-k} a_k for every k < n, in the same order and
    # context as _lambda_exacts, except the a_k of x_k past 2^16 bits, which
    # no Decimal exponent reaches at n = 200: there a_k < 2^-65000 and
    # w_{n-k} a_k falls below 2^-64000 of L_n, while every k from the cut up
    # to there is added. A cut one term early drops a term of half an ulp
    # or more, and the sums differ.
    ctx = _context(DEFAULT_DPS)
    store = SeriesSource(spec)
    lam = dominant_root(spec.d1, spec.d2)
    alpha = _alphas(spec, store, ctx)
    cut = _lambda_exacts(spec, lam, alpha, n_max, ctx)
    whole = list(_lambda_exacts(spec, lam, lambda k: Decimal(0), n_max, ctx))
    lami = ctx.divide(1, lam)
    denom = ctx.subtract(lam, lami)
    readable = 1
    while readable < n_max and store.head(readable)[0] <= _READABLE_BITS:
        readable += 1
    for n in range(n_max + 1):
        for k in range(1, min(n, readable)):
            j = n - k
            weight = ctx.divide(ctx.subtract(ctx.power(lam, j), ctx.power(lam, -j)), denom)
            whole[n] = ctx.add(whole[n], ctx.multiply(weight, alpha(k)))
    assert cut == tuple(whole)


@given(st.integers(-(2**50), 2**50), st.integers(-300, 300), st.integers(1, 60))
@settings(max_examples=300, deadline=None)
def test_digits_text_writes_what_mpmath_nstr_writes(man, exp, digits):
    # man * 2^exp is exact both as an mpf (53 bits hold man) and as a Decimal
    # (2^-e = 5^e 10^-e), so the two writers see the same number.
    from mpmath import mp

    whole = Context(prec=400, traps=[Inexact])  # man * 5^300 has under 230 digits
    exact = Decimal(man << exp if exp >= 0 else man * 5**-exp).scaleb(min(exp, 0), whole)
    assert _digits_text(exact, digits) == mp.nstr(mp.mpf((man, exp)), digits)
