"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report.
Tolerances are pinned here and nowhere else.
"""

import io
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from mpmath import mp, workdps

from engelcf.asymptotics import (
    dominant_root,
    empirical_growth_constant,
    estimate_C,
    full_report,
    growth_report,
    roth_exponents,
)
from engelcf.cli import main
from engelcf.exceptions import NegativeGap
from engelcf.expansion import enclosure, partial_lengths, stream
from engelcf.sequences import (
    SecondOrderSpec,
    from_factors,
    generate_recurrence,
    lift_spec,
    ones_tail,
    partial_sum,
    shallit_factors,
)
from engelcf.verify import run_generic_suite, run_z2_suite

CUBIC3 = SecondOrderSpec(3, (3,))
AFFINE = SecondOrderSpec(3, (1, 2))
DEGEN = SecondOrderSpec(3, (1, 1))


def _cli(*argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0, f"CLI exited {code}"
    return buf.getvalue()


def _report(num: int, label: str, started: float, limit: float):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s (limit {limit}s)"
    print(f"ACCEPTANCE {num} ({label}): PASS ({elapsed:.2f}s)")


def test_criterion_1_cubic_constant_example():
    t0 = time.perf_counter()
    out = _cli("gen", "--d1", "3", "--G", "3", "--n", "6")
    assert out.splitlines()[1:] == [
        "1", "1", "3", "81", "531441", "5559060566555523",
    ]
    got = list(stream(CUBIC3, 11).certified)
    assert got == [1, 2, 1, 8, 3, 80, 1, 2, 8, 1, 2, 19682]
    # Exponent law x_n = 3^(s_n): substituting into x_{n+2} x_n = 3 x_{n+1}^3
    # gives s_{n+2} = 3 s_{n+1} - s_n + 1 with s_0 = s_1 = 0.
    s = [0, 0]
    while len(s) < 6:
        s.append(3 * s[-1] - s[-2] + 1)
    assert s == [0, 0, 1, 4, 12, 33]
    assert generate_recurrence(CUBIC3, 6) == [3**e for e in s]
    _report(1, "cubic-constant reproduction", t0, 1.0)


def test_criterion_2_affine_example():
    t0 = time.perf_counter()
    assert generate_recurrence(AFFINE, 6) == [
        1, 1, 3, 189, 852910317, 5599917937724687764238078261637795,
    ]
    assert list(stream(AFFINE, 11).certified) == [
        1, 2, 1, 20, 3, 23876, 1, 2, 20, 1, 2, 7697947188058154,
    ]
    lam = dominant_root(3, 1)
    with workdps(60):
        assert abs(lam - (2 + mp.sqrt(3))) < mp.mpf("1e-45")
    c_value, _ = estimate_C(AFFINE)
    with workdps(60):
        assert abs(c_value - mp.mpf("0.107812043")) <= mp.mpf("1e-8")
    lo, hi = enclosure(AFFINE, Fraction(1, 10**10))
    target, tol = Fraction("1.3386243"), Fraction(5, 10**8)
    assert abs(lo - target) <= tol and abs(hi - target) <= tol
    _report(2, "affine recurrence reproduction", t0, 5.0)


def test_criterion_3_third_order_lift():
    t0 = time.perf_counter()
    lifted = lift_spec(AFFINE)
    assert generate_recurrence(lifted, 7) == [
        1, 1, 1, 3, 63, 13538259, 413636490314204194515563505,
    ]
    assert list(stream(lifted, 11).certified) == [
        1, 2, 1, 6, 3, 3410, 1, 2, 6, 1, 2, 2256800700104,
    ]
    c_prime, _ = empirical_growth_constant(lifted, n=12)
    with workdps(60):
        assert abs(c_prime - mp.mpf("0.0227833")) <= mp.mpf("1e-5")
    lo, hi = enclosure(lifted, Fraction(1, 10**10))
    target, tol = Fraction("1.3492064"), Fraction(5, 10**8)
    assert abs(lo - target) <= tol and abs(hi - target) <= tol
    xs = generate_recurrence(AFFINE, 12)
    bigxs = generate_recurrence(lifted, 13)
    assert all(bigxs[k] * bigxs[k + 1] == xs[k] for k in range(12))
    _report(3, "third-order lift reproduction", t0, 5.0)


def test_criterion_4_degenerate_z2_example():
    t0 = time.perf_counter()
    assert generate_recurrence(DEGEN, 6) == [
        1, 1, 2, 24, 172800, 37150633525248000000,
    ]
    got = list(stream(DEGEN, 17).certified)
    assert got[:17] == [
        1, 1, 1, 5, 2, 299, 1, 1, 5, 1, 1, 1244167199, 2, 5, 1, 1, 299,
    ]
    c_value, _ = estimate_C(DEGEN)
    with workdps(60):
        assert abs(c_value - mp.mpf("0.06224548")) <= mp.mpf("1e-7")
    lo, hi = enclosure(DEGEN, Fraction(1, 10**11))
    target, tol = Fraction("1.54167245"), Fraction(5, 10**9)
    assert abs(lo - target) <= tol and abs(hi - target) <= tol
    _report(4, "degenerate z2=2 reproduction", t0, 5.0)


def test_criterion_5_oracle_equivalence_suites():
    t0 = time.perf_counter()
    # Each trial checks: recursion == Euclidean expansion exactly, the
    # length formula, final denominator = x_n, the coefficient alphabet,
    # and the determinant identity at every convergent (generic class);
    # likewise with length 5*2^(n-3) and final coefficient 2 for z_2 = 2.
    assert run_generic_suite(trials=100, n_max=7, seed=20240817) == 500
    assert run_z2_suite(trials=100, n_max=7, seed=20240817) == 400
    _report(5, "oracle equivalence over 200 random factor sequences", t0, 30.0)


def test_criterion_6_power_sum_series():
    t0 = time.perf_counter()
    for u in range(3, 11):
        got = list(stream(ones_tail(u), 17).certified)
        a, b, c, d = u, u - 1, u - 2, u + 2
        assert got[:17] == [1, b, d, a, a, c, a, d, a, c, d, a, c, a, a, d, a]
        assert set(got) <= {1, u - 2, u - 1, u, u + 2}
        assert partial_lengths(ones_tail(u), 6) == [1, 2, 3, 5, 9, 17]
    got = list(stream(ones_tail(2), 19).certified)
    assert got[:19] == [1, 1, 4, 2, 4, 4, 6, 4, 2, 4, 6, 2, 4, 6, 4, 4, 2, 4, 6]
    assert partial_lengths(ones_tail(2), 6) == [1, 2, 3, 5, 7, 11]
    xs = from_factors(ones_tail(2), 10)
    report = growth_report(xs.x, dominant_root(3, 1), 0.1)
    assert all(abs(row.exponent - 2) < mp.mpf("1e-12") for row in report.rows)
    assert not report.ok  # the squaring regime never reaches lam - eps > 2
    _report(6, "power-sum series displays and lengths", t0, 10.0)


def test_criterion_7_log_reconstruction():
    t0 = time.perf_counter()
    for spec in (CUBIC3, AFFINE, DEGEN):
        report = full_report(spec, 12)
        for n in range(0, 13):
            exact, true = report.lambda_n_exact[n], report.lambda_n_true[n]
            assert abs(exact - true) / max(1, abs(true)) < mp.mpf("1e-9")
    _report(7, "exact log-formula reconstruction to n=12", t0, 30.0)


def test_criterion_8_roth_diagnostic():
    t0 = time.perf_counter()
    report = roth_exponents(AFFINE, 8)
    for record in report.records:
        if record.n >= 5:
            assert record.lower > mp.mpf("2.3")
    report = roth_exponents(ones_tail(3), 10)
    for record in report.records:
        if record.n <= 10:
            # Brackets hug the squaring exponent 2 from both sides; the
            # upper endpoint equals 2 up to the log rounding error.
            assert record.lower <= 2
            assert record.upper >= 2 - mp.mpf("1e-12")
    _report(8, "effective irrationality exponents", t0, 10.0)


def test_criterion_9_power_sum_mapping():
    t0 = time.perf_counter()
    u, c = 3, (1, 4, 12, 33)
    zs = shallit_factors(u, c)
    assert zs.z == (3, 9, 81, 19683)
    xs = from_factors(zs, 5)
    for n in range(2, 6):
        assert partial_sum(xs, n) - 1 == sum(Fraction(1, u ** c[k]) for k in range(n - 1))
    with pytest.raises(NegativeGap):
        shallit_factors(u, (1, 3, 5))
    _report(9, "exponent-list mapping", t0, 1.0)
