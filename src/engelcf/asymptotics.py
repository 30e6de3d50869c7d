"""Growth and irrationality diagnostics for recurrence-generated series.

Writing L_n = log x_n, the second-order recurrence linearizes to

    L_{n+1} - (d1+d2) L_n + L_{n-1} = log c + a_n,
    a_n = log( G(x_n) / (c x_n^d2) ),

whose homogeneous part has the dominant root

    lam = (d1 + d2 + sqrt((d1+d2)^2 - 4)) / 2 > 2.

Solving with x_0 = x_1 = 1 gives an exact term-by-term formula for L_n and
the leading-order constant C with L_n ~ C lam^n. The correction a_k is
O(1/x_k), so the series for C converges doubly exponentially fast.

Logs of huge integers use the top 64 bits only: log x = B log 2 + log m
with B = bitlength - 64 and m the leading 64-bit mantissa, absolute error
below 2^-63. Terms here carry millions of bits; full-precision logs would
be wasted. So the logs and bit lengths of x_n come from the term store's
head, which certifies the bit length and top 64 bits by running the step
identities on bounded-precision brackets. The corrections a_k come from
formed terms, but only where x_k is small: the sums for C and L_n stop
once a_k falls below the working precision, so a report forms only the
first few x_k (x_1..x_6 for G = 2x + 1 at 50 digits), whatever n_max is.

All functions take the working precision in decimal digits, ``dps``, and
run in one explicit ``decimal.Context`` of dps + 10 digits made for the
call; nothing here reads or keeps ambient mutable state. Values come back
as ``decimal.Decimal``.
"""

import functools
import operator
from decimal import (
    MAX_EMAX,
    MIN_EMIN,
    ROUND_HALF_EVEN,
    Context,
    Decimal,
    DivisionByZero,
    InvalidOperation,
    Overflow,
    Underflow,
)
from typing import NamedTuple, Sequence

from .exceptions import DegenerateRoot, InvalidSpec
from .sequences import (
    SecondOrderSpec,
    SeriesSource,
    SourceLike,
    _HEAD_BITS,
    _int_head,
    as_store,
)

DEFAULT_DPS = 50


def _context(dps) -> Context:
    # The context of one call: dps + 10 digits, round half even, the widest
    # exponent range, and a trap on every signal that would lose a value.
    dps = operator.index(dps)
    if dps < 1:
        raise InvalidSpec(f"dps must be >= 1, got {dps}")
    return Context(prec=dps + 10, rounding=ROUND_HALF_EVEN, Emin=MIN_EMIN, Emax=MAX_EMAX,
                   traps=[InvalidOperation, DivisionByZero, Overflow, Underflow])


@functools.cache
def _ln(v: int, prec: int) -> Decimal:
    # ln v at prec digits, formed once per (v, prec): ln 2 and ln c are reread.
    return Context(prec=prec, rounding=ROUND_HALF_EVEN).ln(v)


def log_big(x, dps: int = DEFAULT_DPS) -> Decimal:
    """log of a positive integer of arbitrary size, given as an int or as
    its head (bit_length, top) with top = x >> max(bit_length - 64, 0), as
    ``SeriesSource.head`` returns it.

    Only the leading 64 bits enter; the dropped low bits contribute less
    than 2^-63 absolutely, far below every tolerance used here.
    """
    ctx = _context(dps)
    bits, top = _int_head(x) if isinstance(x, int) else map(operator.index, x)
    if top < 1 or top.bit_length() != min(bits, _HEAD_BITS):
        raise InvalidSpec("log_big needs a positive integer or its head")
    return ctx.add(ctx.multiply(bits - top.bit_length(), _ln(2, ctx.prec)), ctx.ln(top))


def dominant_root(d1: int, d2: int, dps: int = DEFAULT_DPS) -> Decimal:
    """Largest root of t^2 - (d1+d2) t + 1 = 0; exceeds 2 when d1+d2 >= 3."""
    ctx = _context(dps)
    b = d1 + d2
    if b <= 2:
        raise DegenerateRoot(f"d1 + d2 = {b} <= 2 gives a root <= 1")
    return ctx.divide(ctx.add(b, ctx.sqrt(b * b - 4)), 2)


def _alpha(spec: SecondOrderSpec, x_k: int, ctx: Context) -> Decimal:
    # a_k = log(G(x)/(c x^d2)) = log1p(B(x)/(c x^d2)) with B = G - c x^d2
    # the sub-leading part of G, from the formed x_k. B(x_k) and c x_k^d2
    # are each rounded to ctx once.
    den = spec.c * x_k**spec.d2
    num = spec.G(x_k) - den
    if num == 0:
        return Decimal(0)
    return _log1p(ctx.divide(ctx.create_decimal(num), ctx.create_decimal(den)), ctx)


def _log1p(r: Decimal, ctx: Context) -> Decimal:
    # ln(1 + r) for r > 0. When r < 10^-prec, r itself: ln(1 + r) lies
    # between r - r^2/2 and r, and r^2/2 is below half an ulp of r. Otherwise
    # 1 + r is formed exactly, with two digits more than the places r sits
    # below 1, so that ln reads every digit of r.
    below = -r.adjusted()
    if below > ctx.prec:
        return r
    wide = ctx.copy()
    wide.prec += max(below, 0) + 2
    return ctx.plus(wide.ln(wide.add(1, r)))


def _alphas(spec: SecondOrderSpec, store: SeriesSource, ctx: Context):
    # a_k by k, each computed once, at ctx, from x_k as the store forms and
    # charges it. The cut sums read a_k only where x_k is small.
    return functools.cache(lambda k: _alpha(spec, store.x(k), ctx))


def _half_ulp(v: Decimal, ctx: Context) -> Decimal:
    # Half a unit in the last place of v at ctx's precision; 0 for v = 0.
    return Decimal((0, (5,), v.adjusted() - ctx.prec)) if v else Decimal(0)


def _lambda_exacts(spec: SecondOrderSpec, lam, alpha, n_max: int, ctx: Context):
    """The closed-form L_n for n = 0..n_max from the root and alpha(k) = a_k.

    a_k enters L_n with the weight w_j = (lam^j - lam^-j)/(lam - 1/lam),
    j = n - k, computed once per j. The sum over k = 1..n-1 is cut: it stops
    at the first k whose term w_{n-k} a_k falls below half an ulp of the
    running value. The running value is non-negative (c >= 1), and the
    terms are non-negative and non-increasing in k (w_j grows with j, and
    a_k falls as x_k grows); rounding is monotone, so that term and every
    later one leave the sum unchanged under round-to-nearest: the cut sum is
    the whole sum, added in the same order. When G has no sub-leading part,
    a_k = 0 for every k and nothing is summed. So a report reads a_k only for the first few k, where x_k is
    small, and takes a few terms per n instead of n.
    """
    lami = ctx.divide(1, lam)
    denom = ctx.subtract(lam, lami)
    weights = [None] + [ctx.divide(ctx.subtract(ctx.power(lam, j), ctx.power(lam, -j)), denom)
                        for j in range(1, n_max)]
    log_c = _ln(spec.c, ctx.prec)
    # Particular solution K = -log(c)/(d1+d2-2) for the constant forcing
    # term; zero initial data L_0 = L_1 = 0 then fix the homogeneous
    # coefficients, giving K * (1 - (lam^n + lam^(1-n))/(1 + lam)), which
    # is log(c)/(d1+d2-2) times
    # ((1 - 1/lam) lam^n + (lam - 1) lam^-n)/(lam - 1/lam) - 1.
    rise, fall = ctx.subtract(1, lami), ctx.subtract(lam, 1)
    exacts = []
    for n in range(n_max + 1):
        part = ctx.add(ctx.multiply(rise, ctx.power(lam, n)), ctx.multiply(fall, ctx.power(lami, n)))
        bracket = ctx.subtract(ctx.divide(part, denom), 1)
        exact = ctx.divide(ctx.multiply(bracket, log_c), spec.d1 + spec.d2 - 2)
        for k in range(1, n):
            term = ctx.multiply(weights[n - k], alpha(k))
            if term < _half_ulp(exact, ctx):
                break
            exact = ctx.add(exact, term)
        exacts.append(exact)
    return tuple(exacts)


def _second_order_store(source: SourceLike) -> SeriesSource:
    # The store of a second-order spec: the only rule the series for C covers.
    store = as_store(source)
    if not isinstance(store.rule, SecondOrderSpec):
        raise InvalidSpec(f"growth analysis needs a second-order spec, got {type(store.rule).__name__}")
    return store


def estimate_C(source: SourceLike, dps: int = DEFAULT_DPS):
    """(C, tail_bound) for the leading-order constant in L_n ~ C lam^n of
    a second-order spec, or of a store of one:

        C = (1/(d1+d2-2)) * ((1-1/lam)/(lam-1/lam)) * log c
            + (1/(lam-1/lam)) * sum_{k>=1} lam^-k a_k.

    Terms are non-negative and decay doubly exponentially; summation stops
    once twice the next term falls below _C_REL_CUT of the running value
    (or after _C_MAX_TERMS terms), and the dropped tail is bounded by twice
    that term (the a_k are non-increasing and lam > 2, so the tail is
    dominated by a geometric series).

    tail_bound also covers rounding at dps + 10 decimal digits, one ulp
    being eps = 10^-(dps+9), which bounds the relative error of every
    correctly rounded operation: term j of the k summed is within (3j + 10)
    ulps, 3j from lam^-j, and the k additions add k ulps of C, so the sum
    is within (4k + 10) eps C, a few times 1e-59 at the default dps.
    """
    ctx = _context(dps)
    store = _second_order_store(source)
    spec = store.rule
    return _estimate_C(spec, dominant_root(spec.d1, spec.d2, dps), _alphas(spec, store, ctx), ctx)


_C_MAX_TERMS = 60  # the most terms lam^-k a_k that C sums
_C_REL_CUT = Decimal("1e-15")  # the share of C below which twice the next term stops the sum


def _estimate_C(spec: SecondOrderSpec, lam, alpha, ctx: Context):
    lami = ctx.divide(1, lam)
    denom = ctx.subtract(lam, lami)
    eps = Decimal((0, (1,), 1 - ctx.prec))
    c_value = ctx.divide(ctx.multiply(ctx.divide(_ln(spec.c, ctx.prec), spec.d1 + spec.d2 - 2),
                                      ctx.subtract(1, lami)), denom)

    def term(k):
        return ctx.divide(ctx.multiply(ctx.power(lami, k), alpha(k)), denom)

    k = 0
    while True:
        k += 1
        c_value = ctx.add(c_value, term(k))
        twice_next = ctx.multiply(2, term(k + 1))
        if twice_next < ctx.multiply(_C_REL_CUT, c_value) or k >= _C_MAX_TERMS:
            return c_value, ctx.add(twice_next, ctx.multiply(ctx.multiply(4 * k + 10, eps), c_value))


class GrowthRow(NamedTuple):
    n: int
    exponent: Decimal
    holds: bool


class GrowthReport(NamedTuple):
    rows: tuple[GrowthRow, ...]
    holds_from: int | None

    @property
    def ok(self) -> bool:
        return self.holds_from is not None


def growth_report(
    terms: Sequence[int],
    lam,
    epsilon: float = 0.1,
    dps: int = DEFAULT_DPS,
) -> GrowthReport:
    """Per-index growth exponents log x_{n+1} / log x_n and the check
    x_{n+1} > x_n^(lam - epsilon).

    ``terms`` is any integer sequence; rows cover the positions n (counted
    from 0 in the given list) with x_n >= 2 and a successor. ``holds_from``
    is the first position from which the check holds through the end, or
    None when it fails at the last recorded position. ``lam`` and
    ``epsilon`` may be any int, float, str or Decimal, read exactly.
    """
    ctx = _context(dps)
    xs = list(map(operator.index, terms))
    if sum(1 for v in xs if v > 1) < 4:
        raise InvalidSpec("need at least 4 terms exceeding 1")
    rows = []
    threshold = ctx.subtract(Decimal(lam), Decimal(epsilon))
    for n in range(len(xs) - 1):
        if xs[n] < 2:
            continue
        log_n = log_big(xs[n], dps)
        log_next = log_big(xs[n + 1], dps)
        rows.append(GrowthRow(n, ctx.divide(log_next, log_n),
                              bool(log_next > ctx.multiply(threshold, log_n))))
    holds_from = None
    for row in reversed(rows):
        if not row.holds:
            break
        holds_from = row.n
    return GrowthReport(tuple(rows), holds_from)


class RothRecord(NamedTuple):
    n: int
    q_bits: int
    lower: Decimal
    upper: Decimal


class RothReport(NamedTuple):
    """Bracketed effective irrationality exponents at the partial sums.

    S_n = p/q with q = x_n, and |S - S_n| lies strictly between 1/x_{n+1}
    and 2/x_{n+1}, so the exponent -log|S - p/q| / log q is bracketed by
    [log(x_{n+1}/2)/log x_n, log x_{n+1}/log x_n]. ``delta`` is the margin
    of the weakest lower bracket over 2; persistently positive delta is the
    numeric shadow of a super-quadratic approximation rate.
    """

    records: tuple[RothRecord, ...]
    delta: Decimal


class AsymptoticsReport(NamedTuple):
    """Everything the growth analysis of one second-order spec produces."""

    lam: Decimal
    C: Decimal
    C_bound: Decimal
    lambda_n_true: tuple   # log x_n for n = 0..n_max
    lambda_n_exact: tuple  # formula reconstruction, same indices
    roth: "RothReport"     # upper brackets: the growth exponents log x_{n+1} / log x_n


def full_report(source: SourceLike, n_max: int = 10, dps: int = DEFAULT_DPS) -> AsymptoticsReport:
    """Aggregate diagnostics for a second-order spec, or a store of one, up
    to index n_max; the root, each a_k and each log x_n are computed once.
    The a_k come from the few small terms the cut sums read; the heads come
    from the store's bracket run."""
    ctx = _context(dps)
    n_max = operator.index(n_max)
    if n_max < 3:
        raise InvalidSpec("n_max must be >= 3")
    store = _second_order_store(source)
    spec = store.rule
    lam = dominant_root(spec.d1, spec.d2, dps)
    alpha = _alphas(spec, store, ctx)
    c_value, c_bound = _estimate_C(spec, lam, alpha, ctx)
    exacts = _lambda_exacts(spec, lam, alpha, n_max, ctx)
    heads = [store.head(n) if n else (1, 1) for n in range(n_max + 2)]
    logs = [log_big(h, dps) for h in heads]
    return AsymptoticsReport(
        lam=lam,
        C=c_value,
        C_bound=c_bound,
        lambda_n_true=tuple(logs[:n_max + 1]),
        lambda_n_exact=exacts,
        roth=_roth(heads, logs, n_max - 1, ctx),
    )


def roth_exponents(source: SourceLike, depth: int, dps: int = DEFAULT_DPS) -> RothReport:
    """Exponent brackets at S_n for n = 2 .. depth+1.

    Records start at n = 2, the first partial sum whose denominator
    exceeds 1.
    """
    ctx = _context(dps)
    depth = operator.index(depth)
    if depth < 1:
        raise InvalidSpec("depth must be >= 1")
    src = as_store(source)
    heads = [(1, 1)] + [src.head(n) for n in range(1, depth + 3)]
    return _roth(heads, [log_big(h, dps) for h in heads], depth, ctx)


def _roth(heads, logs, depth: int, ctx: Context) -> RothReport:
    # The body of roth_exponents from heads[n] = SeriesSource.head(n) and
    # logs[n] = log x_n.
    log2 = _ln(2, ctx.prec)
    records = []
    for n in range(2, depth + 2):
        log_q, log_next = logs[n], logs[n + 1]
        records.append(RothRecord(n, heads[n][0], ctx.divide(ctx.subtract(log_next, log2), log_q),
                                  ctx.divide(log_next, log_q)))
    delta = ctx.subtract(min(r.lower for r in records), 2)
    return RothReport(tuple(records), delta)


def _digits_text(value: Decimal, digits: int) -> str:
    """``value`` to ``digits`` significant digits, written as mpmath's
    ``nstr`` writes it (``libmpf.to_str``): rounded half up, as the digit
    after the last one kept decides. Fixed point when the exponent of the
    leading digit lies strictly between min(-(digits // 3), -5) and
    digits, else an exponent such as e+570 or e-5; trailing zeros are
    stripped, keeping ".0"."""
    if not value:
        return "0.0"
    text = format(value, "E").partition("E")[0].lstrip("-").replace(".", "")  # every digit
    exponent = value.adjusted()
    if len(text) > digits and text[digits] >= "5":
        text = str(int(text[:digits]) + 1)
        exponent += len(text) > digits  # 99.9 went to 100
    text = text[:digits].ljust(digits, "0")
    fixed = min(-(digits // 3), -5) < exponent < digits
    if fixed and exponent < 0:
        text, split = "0" * -exponent + text, 1
    else:
        split = exponent + 1 if fixed else 1
    text = (text[:split] + "." + text[split:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    sign = "-" if value.is_signed() else ""
    return sign + text if fixed else f"{sign}{text}e{exponent:+d}"
