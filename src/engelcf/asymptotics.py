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
the same brackets, kept only when they round to the floats of the exact
terms (see _alpha). A report forms only the few small x_k whose bracket
runs stay exact, the ones the constant C reads, whatever n_max is.

All functions take the working precision (decimal digits) as a parameter;
nothing here keeps ambient mutable state.
"""

import functools
import operator
from typing import NamedTuple, Sequence

from mpmath import mp, workdps

from .exceptions import DegenerateRoot, InvalidSpec
from .sequences import (
    SecondOrderSpec,
    SeriesSource,
    SourceLike,
    ThirdOrderSpec,
    _int_head,
    as_store,
)

DEFAULT_DPS = 50


def log_big(x, dps: int = DEFAULT_DPS):
    """log of a positive integer of arbitrary size, given as an int or as
    its head (bit_length, top) with top = x >> max(bit_length - 64, 0), as
    ``SeriesSource.head`` returns it.

    Only the leading 64 bits enter; the dropped low bits contribute less
    than 2^-63 absolutely, far below every tolerance used here.
    """
    bits, top = _int_head(x) if isinstance(x, int) else x
    if top < 1:
        raise InvalidSpec("log_big needs a positive integer")
    with workdps(dps):
        return (bits - top.bit_length()) * mp.log(2) + mp.log(top)


def dominant_root(d1: int, d2: int, dps: int = DEFAULT_DPS):
    """Largest root of t^2 - (d1+d2) t + 1 = 0; exceeds 2 when d1+d2 >= 3."""
    b = d1 + d2
    if b <= 2:
        raise DegenerateRoot(f"d1 + d2 = {b} <= 2 gives a root <= 1")
    with workdps(dps + 10):
        return (b + mp.sqrt(mp.mpf(b) * b - 4)) / 2


_ALPHA_GUARD_BITS = 64  # bits above mp.prec in the first bracket run of a_k


def _alpha(spec: SecondOrderSpec, x_k):
    # a_k = log(G(x)/(c x^d2)) = log1p(B(x)/(c x^d2)) with B the sub-leading
    # part of G, from x_k or a _Bracket of it. B(x) and c x^d2 are each
    # rounded to an mpf once. Rounding is monotone, so when both ends of a
    # bracket round to one mpf, the exact value rounds to it too and a_k is
    # the exact term's; when they round apart, the result is None.
    den = spec.c * x_k**spec.d2
    num = 0
    for coeff in reversed(spec.g[:-1]):
        num = num * x_k + coeff
    if num == 0:
        return mp.mpf(0)
    num, den = _rounded(num), _rounded(den)
    if num is None or den is None:
        return None
    return mp.log1p(num / den)


def _rounded(v):
    # An int, or a _Bracket lo * 2^e <= v <= hi * 2^e, as an mpf at the
    # working precision; None when the bracket's ends round apart.
    if isinstance(v, int):
        return mp.mpf(v)
    lo = mp.mpf((v.lo, v.e))
    return lo if lo == mp.mpf((v.hi, v.e)) else None


def _alphas(spec: SecondOrderSpec, store: SeriesSource):
    # a_k by k, each computed once; every caller asks at dps + 10. The term
    # store certifies a_k from brackets of x_k, formed only as a last resort.
    read = functools.partial(_alpha, spec)
    return functools.cache(lambda k: store._certify(k, read, mp.prec + _ALPHA_GUARD_BITS))


def _lambda_exacts(spec: SecondOrderSpec, lam, alpha, n_max: int, dps: int):
    # The closed-form L_n for n = 0..n_max from the root and alpha(k) = a_k,
    # k = 1..n_max-1. a_k enters L_n with the weight
    # w_j = (lam^j - lam^-j)/(lam - 1/lam), j = n - k, computed once per j.
    with workdps(dps + 10):
        lami = 1 / lam
        denom = lam - lami
        weights = [None] + [(lam ** j - lam ** -j) / denom for j in range(1, n_max)]
        log_c = mp.log(spec.c)
        exacts = []
        for n in range(n_max + 1):
            # Particular solution K = -log(c)/(d1+d2-2) for the constant
            # forcing term; zero initial data L_0 = L_1 = 0 then fix the
            # homogeneous coefficients, giving
            # K * (1 - (lam^n + lam^(1-n))/(1 + lam)).
            bracket = ((1 - lami) * lam**n - (1 - lam) * lami**n) / denom - 1
            exact = bracket * log_c / (spec.d1 + spec.d2 - 2)
            for k in range(1, n):
                exact += weights[n - k] * alpha(k)
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

    tail_bound also covers rounding at dps + 10 digits, one ulp being
    eps = mp.eps: term j of the k summed is within (3j + 10) ulps, 3j from
    lam^-j, and the k additions add k ulps of C, so the sum is within
    (4k + 10) eps C, about 1e-60 at the default dps.
    """
    store = _second_order_store(source)
    spec = store.rule
    return _estimate_C(spec, dominant_root(spec.d1, spec.d2, dps), _alphas(spec, store), dps)


_C_MAX_TERMS = 60  # the most terms lam^-k a_k that C sums
_C_REL_CUT = 1e-15  # the share of C below which twice the next term stops the sum


def _estimate_C(spec: SecondOrderSpec, lam, alpha, dps: int):
    with workdps(dps + 10):
        lami = 1 / lam
        denom = lam - lami
        c_value = mp.log(spec.c) / (spec.d1 + spec.d2 - 2) * (1 - lami) / denom
        k = 0
        while True:
            k += 1
            c_value += lami**k * alpha(k) / denom
            next_term = lami ** (k + 1) * alpha(k + 1) / denom
            if 2 * next_term < _C_REL_CUT * c_value or k >= _C_MAX_TERMS:
                return c_value, 2 * next_term + (4 * k + 10) * mp.eps * c_value


def empirical_growth_constant(source: SourceLike, n: int = 12, dps: int = DEFAULT_DPS):
    """(C', err) with log X_n ~ C' lam^n for a lifted third-order spec, or
    a store of one.

    No series formula is available here, so C' is read off as
    log X_n / lam^n at the largest computed index; ``err`` is the change
    from the previous index, an estimate of the remaining drift.
    """
    store = as_store(source)
    parent = store.rule.lift_parent() if isinstance(store.rule, ThirdOrderSpec) else None
    if parent is None:
        raise InvalidSpec("empirical growth constant needs a lifted-shape spec")
    lam = dominant_root(parent.d1, parent.d2, dps)
    # X_m, counted from X_0 = X_1 = X_2 = 1, is the store's x_{m-1}.
    log_x = [log_big(store.head(m - 1) if m >= 2 else (1, 1), dps) for m in (n - 1, n)]
    with workdps(dps + 10):
        c_n = log_x[1] / lam**n
        c_prev = log_x[0] / lam ** (n - 1)
        return c_n, abs(c_n - c_prev)


class GrowthRow(NamedTuple):
    n: int
    exponent: object  # mpf
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
    None when it fails at the last recorded position.
    """
    xs = list(map(operator.index, terms))
    if sum(1 for v in xs if v > 1) < 4:
        raise InvalidSpec("need at least 4 terms exceeding 1")
    rows = []
    with workdps(dps):
        lam = mp.mpf(lam)
        threshold = lam - mp.mpf(epsilon)
        for n in range(len(xs) - 1):
            if xs[n] < 2:
                continue
            log_n = log_big(xs[n], dps)
            log_next = log_big(xs[n + 1], dps)
            rows.append(GrowthRow(n, log_next / log_n, bool(log_next > threshold * log_n)))
    holds_from = None
    for row in reversed(rows):
        if not row.holds:
            break
        holds_from = row.n
    return GrowthReport(tuple(rows), holds_from)


class RothRecord(NamedTuple):
    n: int
    q_bits: int
    lower: object  # mpf
    upper: object  # mpf


class RothReport(NamedTuple):
    """Bracketed effective irrationality exponents at the partial sums.

    S_n = p/q with q = x_n, and |S - S_n| lies strictly between 1/x_{n+1}
    and 2/x_{n+1}, so the exponent -log|S - p/q| / log q is bracketed by
    [log(x_{n+1}/2)/log x_n, log x_{n+1}/log x_n]. ``delta`` is the margin
    of the weakest lower bracket over 2; persistently positive delta is the
    numeric shadow of a super-quadratic approximation rate.
    """

    records: tuple[RothRecord, ...]
    delta: object


class AsymptoticsReport(NamedTuple):
    """Everything the growth analysis of one second-order spec produces."""

    lam: object
    C: object
    C_bound: object
    lambda_n_true: tuple   # log x_n for n = 0..n_max
    lambda_n_exact: tuple  # formula reconstruction, same indices
    roth: "RothReport"     # upper brackets: the growth exponents log x_{n+1} / log x_n


def full_report(source: SourceLike, n_max: int = 10, dps: int = DEFAULT_DPS) -> AsymptoticsReport:
    """Aggregate diagnostics for a second-order spec, or a store of one, up
    to index n_max; the root, each a_k and each log x_n are computed once.
    The heads, and the a_k past the few terms that C forms, come from
    bracket runs."""
    if n_max < 3:
        raise InvalidSpec("n_max must be >= 3")
    store = _second_order_store(source)
    spec = store.rule
    lam = dominant_root(spec.d1, spec.d2, dps)
    alpha = _alphas(spec, store)
    c_value, c_bound = _estimate_C(spec, lam, alpha, dps)
    exacts = _lambda_exacts(spec, lam, alpha, n_max, dps)
    heads = [store.head(n) if n else (1, 1) for n in range(n_max + 2)]
    logs = [log_big(h, dps) for h in heads]
    return AsymptoticsReport(
        lam=lam,
        C=c_value,
        C_bound=c_bound,
        lambda_n_true=tuple(logs[:n_max + 1]),
        lambda_n_exact=exacts,
        roth=_roth(heads, logs, n_max - 1, dps),
    )


def roth_exponents(source: SourceLike, depth: int, dps: int = DEFAULT_DPS) -> RothReport:
    """Exponent brackets at S_n for n = 2 .. depth+1.

    Records start at n = 2, the first partial sum whose denominator
    exceeds 1.
    """
    if depth < 1:
        raise InvalidSpec("depth must be >= 1")
    src = as_store(source)
    heads = [(1, 1)] + [src.head(n) for n in range(1, depth + 3)]
    return _roth(heads, [log_big(h, dps) for h in heads], depth, dps)


def _roth(heads, logs, depth: int, dps: int) -> RothReport:
    # The body of roth_exponents from heads[n] = SeriesSource.head(n) and
    # logs[n] = log x_n.
    records = []
    with workdps(dps):
        log2 = mp.log(2)
        for n in range(2, depth + 2):
            log_q, log_next = logs[n], logs[n + 1]
            records.append(
                RothRecord(n, heads[n][0], (log_next - log2) / log_q, log_next / log_q)
            )
    delta = min(r.lower for r in records) - 2
    return RothReport(tuple(records), delta)
