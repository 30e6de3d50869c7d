"""Bundled worked examples and their recorded reference values.

Each entry rebuilds its objects from scratch (sequence terms, expansion
prefixes, growth constants, certified enclosures) and compares them with the
values recorded here. The ``paper-examples`` subcommand and the acceptance
tests both run these checks.
"""

from fractions import Fraction
from typing import NamedTuple

from mpmath import mp, workdps

from .asymptotics import (
    dominant_root,
    empirical_growth_constant,
    estimate_C,
    growth_report,
)
from .exceptions import InvalidSpec
from .expansion import enclosure, partial_lengths, stream
from .sequences import (
    SecondOrderSpec,
    from_factors,
    generate_recurrence,
    lift_spec,
    ones_tail,
)

# Cubic-constant example: x_{n+2} x_n = 3 x_{n+1}^3.
CUBIC3_SPEC = SecondOrderSpec(3, (3,))
CUBIC3_SEQ = [1, 1, 3, 81, 531441, 5559060566555523]
CUBIC3_STREAM = [1, 2, 1, 8, 3, 80, 1, 2, 8, 1, 2, 19682]
CUBIC3_EXPONENTS = [0, 0, 1, 4, 12, 33]

# Affine example: x_{n+2} x_n = x_{n+1}^3 (2 x_{n+1} + 1).
AFFINE_SPEC = SecondOrderSpec(3, (1, 2))
AFFINE_SEQ = [1, 1, 3, 189, 852910317, 5599917937724687764238078261637795]
AFFINE_STREAM = [1, 2, 1, 20, 3, 23876, 1, 2, 20, 1, 2, 7697947188058154]
AFFINE_C = "0.107812043"
AFFINE_C_TOL = Fraction(1, 10**8)
AFFINE_S = "1.3386243"
AFFINE_S_TOL = Fraction(5, 10**8)

# Third-order lift of the affine example via x_n = X_n X_{n+1}.
LIFT_SEQ = [1, 1, 1, 3, 63, 13538259, 413636490314204194515563505]
LIFT_STREAM = [1, 2, 1, 6, 3, 3410, 1, 2, 6, 1, 2, 2256800700104]
LIFT_C = "0.0227833"
LIFT_C_TOL = Fraction(1, 10**5)
LIFT_S = "1.3492064"
LIFT_S_TOL = Fraction(5, 10**8)

# Degenerate z_2 = 2 example: x_{n+2} x_n = x_{n+1}^3 (x_{n+1} + 1).
DEGEN_SPEC = SecondOrderSpec(3, (1, 1))
DEGEN_SEQ = [1, 1, 2, 24, 172800, 37150633525248000000]
DEGEN_STREAM = [1, 1, 1, 5, 2, 299, 1, 1, 5, 1, 1, 1244167199, 2, 5, 1, 1, 299]
DEGEN_C = "0.06224548"
DEGEN_C_TOL = Fraction(1, 10**7)
DEGEN_S = "1.54167245"
DEGEN_S_TOL = Fraction(5, 10**9)

# Power-sum series 1 + sum u^(-2^k).
UPOW_LENGTHS = [1, 2, 3, 5, 9, 17]
KEMPNER2_STREAM = [1, 1, 4, 2, 4, 4, 6, 4, 2, 4, 6, 2, 4, 6, 4, 4, 2, 4, 6]
KEMPNER2_LENGTHS = [1, 2, 3, 5, 7, 11]


def upow_pattern(u: int) -> list[int]:
    """First 17 coefficients of the u-power series for u >= 3."""
    a, b, c, d = u, u - 1, u - 2, u + 2
    return [1, b, d, a, a, c, a, d, a, c, d, a, c, a, a, d, a]


def upow_alphabet(u: int) -> set[int]:
    return {1, u - 2, u - 1, u, u + 2}


class CheckResult(NamedTuple):
    tag: str
    name: str
    ok: bool
    detail: str = ""


def _value_matches(source, target: str, tol: Fraction) -> bool:
    """Does the limit value agree with the decimal ``target`` within tol?
    Decided from a certified enclosure, in exact arithmetic."""
    lo, hi = enclosure(source, tol / 4)
    t = Fraction(target)
    return abs(lo - t) <= tol and abs(hi - t) <= tol


def _mp_close(value, target: str, tol: Fraction) -> bool:
    with workdps(60):
        return abs(value - mp.mpf(target)) <= mp.mpf(tol.numerator) / tol.denominator


def check_cubic3() -> list[CheckResult]:
    out = []
    seq = generate_recurrence(CUBIC3_SPEC, 6)
    out.append(CheckResult("cubic3", "sequence", seq == CUBIC3_SEQ))
    got = list(stream(CUBIC3_SPEC, 11).certified)
    out.append(CheckResult("cubic3", "stream", got == CUBIC3_STREAM, str(got)))
    # With x_n = 3^(s_n), the recurrence x_{n+2} x_n = 3 x_{n+1}^3 forces
    # s_{n+2} = 3 s_{n+1} - s_n + 1 from s_0 = s_1 = 0; equivalently
    # t_n = s_n + 1 satisfies t_{n+2} = 3 t_{n+1} - t_n with t_0 = t_1 = 1.
    s = [0, 0]
    while len(s) < 9:
        s.append(3 * s[-1] - s[-2] + 1)
    out.append(CheckResult("cubic3", "exponent recurrence", s[:6] == CUBIC3_EXPONENTS))
    xs = generate_recurrence(CUBIC3_SPEC, 9)
    out.append(CheckResult("cubic3", "power law", all(x == 3**e for x, e in zip(xs, s))))
    return out


def check_affine() -> list[CheckResult]:
    out = []
    seq = generate_recurrence(AFFINE_SPEC, 6)
    out.append(CheckResult("affine", "sequence", seq == AFFINE_SEQ))
    got = list(stream(AFFINE_SPEC, 11).certified)
    out.append(CheckResult("affine", "stream", got == AFFINE_STREAM, str(got)))
    lam = dominant_root(3, 1)
    with workdps(60):
        ok = abs(lam - (2 + mp.sqrt(3))) < mp.mpf("1e-45")
    out.append(CheckResult("affine", "dominant root 2+sqrt(3)", ok))
    c_value, _ = estimate_C(AFFINE_SPEC)
    out.append(
        CheckResult("affine", "growth constant", _mp_close(c_value, AFFINE_C, AFFINE_C_TOL),
                    mp.nstr(c_value, 12))
    )
    out.append(
        CheckResult("affine", "certified value", _value_matches(AFFINE_SPEC, AFFINE_S, AFFINE_S_TOL))
    )
    return out


def check_lift() -> list[CheckResult]:
    out = []
    lifted = lift_spec(AFFINE_SPEC)
    seq = generate_recurrence(lifted, 7)
    out.append(CheckResult("lift", "sequence", seq == LIFT_SEQ))
    got = list(stream(lifted, 11).certified)
    out.append(CheckResult("lift", "stream", got == LIFT_STREAM, str(got)))
    c_value, _ = empirical_growth_constant(lifted, n=12)
    out.append(
        CheckResult("lift", "growth constant", _mp_close(c_value, LIFT_C, LIFT_C_TOL),
                    mp.nstr(c_value, 10))
    )
    out.append(CheckResult("lift", "certified value", _value_matches(lifted, LIFT_S, LIFT_S_TOL)))
    xs = generate_recurrence(AFFINE_SPEC, 10)
    bigxs = generate_recurrence(lifted, 11)
    out.append(
        CheckResult("lift", "factorization identity",
                    all(bigxs[k] * bigxs[k + 1] == xs[k] for k in range(10)))
    )
    return out


def check_degenerate() -> list[CheckResult]:
    out = []
    seq = generate_recurrence(DEGEN_SPEC, 6)
    out.append(CheckResult("degenerate", "sequence", seq == DEGEN_SEQ))
    got = list(stream(DEGEN_SPEC, 17).certified)[:17]
    out.append(CheckResult("degenerate", "stream", got == DEGEN_STREAM, str(got)))
    c_value, _ = estimate_C(DEGEN_SPEC)
    out.append(
        CheckResult("degenerate", "growth constant", _mp_close(c_value, DEGEN_C, DEGEN_C_TOL),
                    mp.nstr(c_value, 12))
    )
    out.append(
        CheckResult("degenerate", "certified value", _value_matches(DEGEN_SPEC, DEGEN_S, DEGEN_S_TOL))
    )
    return out


def check_upow() -> list[CheckResult]:
    out = []
    for u in range(3, 11):
        src = ones_tail(u)
        got = list(stream(src, 17).certified)
        ok = got[:17] == upow_pattern(u) and set(got) <= upow_alphabet(u)
        out.append(CheckResult("upow", f"u={u} pattern and alphabet", ok, str(got[:17])))
    out.append(CheckResult("upow", "lengths", partial_lengths(ones_tail(4), 6) == UPOW_LENGTHS))
    return out


def check_kempner2() -> list[CheckResult]:
    out = []
    src = ones_tail(2)
    got = list(stream(src, 19).certified)[:19]
    out.append(CheckResult("kempner-u2", "stream", got == KEMPNER2_STREAM, str(got)))
    out.append(CheckResult("kempner-u2", "lengths", partial_lengths(src, 6) == KEMPNER2_LENGTHS))
    xs = from_factors(src, 10)
    with workdps(60):
        report = growth_report(xs.x, 2 + mp.sqrt(3), 0.1)
        flat = all(abs(row.exponent - 2) < mp.mpf("1e-12") for row in report.rows)
    out.append(CheckResult("kempner-u2", "squaring growth", flat and not report.ok))
    return out


CHECKS = {
    "cubic3": ("cubic-constant recurrence", check_cubic3),
    "affine": ("affine recurrence", check_affine),
    "lift": ("third-order lift", check_lift),
    "degenerate": ("z2 = 2 recurrence", check_degenerate),
    "upow": ("u-power series, u >= 3", check_upow),
    "kempner-u2": ("u-power series, u = 2", check_kempner2),
}


def run_examples(only: str | None = None) -> list[CheckResult]:
    if only is not None:
        if only not in CHECKS:
            raise InvalidSpec(f"unknown example tag {only!r}; choose from {sorted(CHECKS)}")
        tags = [only]
    else:
        tags = list(CHECKS)
    results = []
    for tag in tags:
        results.extend(CHECKS[tag][1]())
    return results
