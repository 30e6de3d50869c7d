"""Bundled worked examples and their recorded reference values.

Each entry rebuilds its objects from scratch (sequence terms, expansion
prefixes, growth constants, certified enclosures) and compares them with the
values recorded here. The ``paper-examples`` subcommand and the acceptance
tests both run these checks.
"""

from decimal import Context
from fractions import Fraction
from typing import NamedTuple

from .asymptotics import (
    dominant_root,
    estimate_C,
    growth_report,
)
from .exceptions import IdentityViolation, InvalidSpec
from .expansion import enclosure, partial_lengths, stream
from .sequences import (
    SecondOrderSpec,
    from_factors,
    generate_recurrence,
    lift_spec,
    ones_tail,
)
from .verify import run_lift_suite

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
# log X_n + log X_{n+1} = L_n = log x_n and L_n / lam^n -> C give
# log X_n / lam^n -> C' = C / (1 + lam), the affine C over 1 + lam.
LIFT_C = "0.0227833655"
LIFT_C_TOL = Fraction(1, 10**8)
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


class CheckResult(NamedTuple):
    tag: str
    name: str
    ok: bool


def _terms_and_stream(tag: str, source, seq: list[int], want: list[int], count: int,
                      whole: bool = True) -> list[CheckResult]:
    """The "sequence" row (the first len(seq) terms) and the "stream" row:
    the prefix certified for ``count`` coefficients, the whole of it or its
    first len(want) entries, against ``want``."""
    got = list(stream(source, count).certified)
    return [CheckResult(tag, "sequence", generate_recurrence(source, len(seq)) == seq),
            CheckResult(tag, "stream", (got if whole else got[:len(want)]) == want)]


def _constant_and_value(tag: str, c_value, c_ref: str, c_tol: Fraction, source,
                        s_ref: str, s_tol: Fraction) -> list[CheckResult]:
    """The "growth constant" row, the Decimal ``c_value`` within c_tol of
    c_ref, and the "certified value" row: the limit within s_tol of s_ref,
    decided from a certified enclosure. Both are decided exactly."""
    lo, hi = enclosure(source, s_tol / 4)
    s = Fraction(s_ref)
    return [CheckResult(tag, "growth constant", _close(c_value, c_ref, c_tol)),
            CheckResult(tag, "certified value", abs(lo - s) <= s_tol and abs(hi - s) <= s_tol)]


def _close(value, target, tol: Fraction) -> bool:
    """Is the Decimal ``value`` within tol of ``target`` (an int, a decimal
    string or a Decimal)? Decided exactly."""
    return abs(Fraction(value) - Fraction(target)) <= tol


def check_cubic3() -> list[CheckResult]:
    out = _terms_and_stream("cubic3", CUBIC3_SPEC, CUBIC3_SEQ, CUBIC3_STREAM, 11)
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
    out = _terms_and_stream("affine", AFFINE_SPEC, AFFINE_SEQ, AFFINE_STREAM, 11)
    ctx = Context(prec=60)
    ok = _close(dominant_root(3, 1), ctx.add(2, ctx.sqrt(3)), Fraction(1, 10**45))
    out.append(CheckResult("affine", "dominant root 2+sqrt(3)", ok))
    c_value, _ = estimate_C(AFFINE_SPEC)
    return out + _constant_and_value("affine", c_value, AFFINE_C, AFFINE_C_TOL,
                                     AFFINE_SPEC, AFFINE_S, AFFINE_S_TOL)


def check_lift() -> list[CheckResult]:
    lifted = lift_spec(AFFINE_SPEC)
    out = _terms_and_stream("lift", lifted, LIFT_SEQ, LIFT_STREAM, 11)
    c_value, _ = estimate_C(AFFINE_SPEC)
    ctx = Context(prec=60)
    c_lift = ctx.divide(c_value, ctx.add(1, dominant_root(3, 1)))
    out += _constant_and_value("lift", c_lift, LIFT_C, LIFT_C_TOL, lifted, LIFT_S, LIFT_S_TOL)
    try:
        ok = run_lift_suite(AFFINE_SPEC, 10) == 10
    except IdentityViolation:
        ok = False
    out.append(CheckResult("lift", "factorization identity", ok))
    return out


def check_degenerate() -> list[CheckResult]:
    c_value, _ = estimate_C(DEGEN_SPEC)
    return (_terms_and_stream("degenerate", DEGEN_SPEC, DEGEN_SEQ, DEGEN_STREAM, 17, whole=False)
            + _constant_and_value("degenerate", c_value, DEGEN_C, DEGEN_C_TOL,
                                  DEGEN_SPEC, DEGEN_S, DEGEN_S_TOL))


def check_upow() -> list[CheckResult]:
    out = []
    for u in range(3, 11):
        src = ones_tail(u)
        got = list(stream(src, 17).certified)
        ok = got[:17] == upow_pattern(u) and set(got) <= {1, u - 2, u - 1, u, u + 2}
        out.append(CheckResult("upow", f"u={u} pattern and alphabet", ok))
    out.append(CheckResult("upow", "lengths", partial_lengths(ones_tail(4), 6) == UPOW_LENGTHS))
    return out


def check_kempner2() -> list[CheckResult]:
    out = []
    src = ones_tail(2)
    got = list(stream(src, 19).certified)[:19]
    out.append(CheckResult("kempner-u2", "stream", got == KEMPNER2_STREAM))
    out.append(CheckResult("kempner-u2", "lengths", partial_lengths(src, 6) == KEMPNER2_LENGTHS))
    xs = from_factors(src, 10)
    report = growth_report(xs, dominant_root(3, 1), 0.1)
    flat = all(_close(row.exponent, 2, Fraction(1, 10**12)) for row in report.rows)
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
