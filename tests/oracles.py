"""Independent helpers that only the tests read: exact evaluation of a continued
fraction, the parser of cf_text's grammar and the writer of parse_spec_line's,
a spec built from random arguments, a stream that runs the interval oracle on
every class, a product tree that checks known quotients against a rational,
residues modulo a prime, the lift's growth constant read off its terms' heads,
and the growth report and asymp payload computed in mpmath."""

import functools
from fractions import Fraction

from mpmath import mp, workdps

from engelcf.asymptotics import DEFAULT_DPS, _context, dominant_root, log_big
from engelcf.cf import _LEAF, CFExpansion, convergent_matrix, matrix_mul
from engelcf.exceptions import InvalidSpec, TrailingZero
from engelcf.expansion import EngelStream
from engelcf.sequences import RecurrenceSpec, SecondOrderSpec, SeriesSource


def evaluate(cf) -> Fraction:
    """Exact value of a normalized continued fraction. Accepts non-canonical
    input (a trailing 1, or a_0 = 0); only zeros past a_0 are rejected."""
    return fold_value(CFExpansion(tuple(cf)).coeffs)


def fold_value(coeffs) -> Fraction:
    """Right fold of a raw list; tolerates interior zeros, not a final one."""
    if coeffs[-1] == 0 and len(coeffs) > 1:
        raise TrailingZero("cannot evaluate a raw expansion ending in 0")
    value = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        value = a + 1 / value
    return value


def parse_cf_text(text: str) -> CFExpansion:
    """Parse the bracket grammar produced by cf_text."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"not a bracketed continued fraction: {text!r}")
    body = s[1:-1]
    if ";" in body:
        head, _, tail = body.partition(";")
        coeffs = [int(head)] + [int(t) for t in tail.split(",")]
    else:
        coeffs = [int(body)]
    return CFExpansion(tuple(coeffs))


def spec_line(spec: RecurrenceSpec) -> str:
    """A spec as one key=value line: ``order=2 d1=3 G=1,2`` or
    ``order=3 e1=2 e2=2 H=0,0,1;1,1,2``."""
    if isinstance(spec, SecondOrderSpec):
        return f"order=2 d1={spec.d1} G={','.join(str(c) for c in spec.g)}"
    hs = ";".join(f"{i},{j},{c}" for (i, j, c) in spec.h)
    return f"order=3 e1={spec.e1} e2={spec.e2} H={hs}"


def spec_or_none(cls, *args):
    """cls(*args), or None when the constructor rejects the arguments: a
    strategy maps random arguments through it and filters out the None."""
    try:
        return cls(*args)
    except InvalidSpec:
        return None


class OracleStream(EngelStream):
    """An EngelStream that advances by the interval oracle whatever the
    source's class. The package folds the generic and z_2 = 2 classes; this
    is the independent route that the tests check the fold against."""

    _advance = EngelStream._advance_oracle


class ProductTree:
    """Balanced product tree of the matrices [[a, 1], [1, 0]] of a list of
    coefficients (Bernstein, "Fast multiplication and its applications",
    2008). The product of a_0..a_m is [[p_m, p_{m-1}], [q_m, q_{m-1}]],
    with determinant (-1)^(m+1)."""

    def __init__(self, coeffs):
        self._qs = coeffs
        self._root = self._build(0, len(coeffs))

    def _build(self, i: int, j: int):
        # (product of qs[i:j], i, j, left, right); a leaf has no children.
        if j - i <= _LEAF:
            return convergent_matrix(self._qs[i:j]), i, j, None, None
        mid = (i + j) // 2
        left, right = self._build(i, mid), self._build(mid, j)
        return matrix_mul(left[0], right[0]), i, j, left, right

    def product(self, k: int | None = None):
        """The product of the first k matrices (all by default)."""
        node = self._root
        k = node[2] if k is None else k
        out = (1, 0, 0, 1)
        while k:
            m, i, j, left, right = node
            if k >= j - i:
                return matrix_mul(out, m)
            if left is None:
                return matrix_mul(out, convergent_matrix(self._qs[i:i + k]))
            if k <= left[2] - i:
                node = left
            else:
                out = matrix_mul(out, left[0])
                k -= left[2] - i
                node = right
        return out

    def follow(self, p: int, q: int) -> int:
        """How many leading coefficients are also the leading Euclidean
        quotients of p/q, for p > q > 0 and coefficients >= 1.

        This checks Euclid's quotients instead of computing them. A block
        b_1..b_k with product M maps the pair to (A, B) = M^-1 (p, q), so
        p/q = [b_1; ..., b_k, A/B]; as in expand_rational, a block with
        0 < B < A is exactly Euclid's next k quotients and (A, B) its
        remainder pair. A block that fails is split into its two halves,
        and a failing leaf is walked by single divmod steps to the exact
        quotient where p/q leaves the list or its expansion ends.
        """
        return self._follow(self._root, p, q)[0] if self._qs else 0

    def _follow(self, node, p: int, q: int) -> tuple[int, int, int]:
        (m00, m01, m10, m11), i, j, left, right = node
        det = -1 if (j - i) % 2 else 1
        a, b = det * (m11 * p - m01 * q), det * (m00 * q - m10 * p)
        if 0 < b < a:
            return j - i, a, b
        if left is None:
            count = 0
            for quotient in self._qs[i:j]:
                if not q:
                    break
                d, rem = divmod(p, q)
                if d != quotient:
                    break
                count += 1
                p, q = q, rem
            return count, p, q
        count, p, q = self._follow(left, p, q)
        if count < left[2] - i:
            return count, p, q
        more, p, q = self._follow(right, p, q)
        return count + more, p, q


MERSENNE_61 = (1 << 61) - 1


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, which is exact for
    n < 3.3 * 10^24 (Sorenson and Webster, Math. Comp. 86, 2017)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or n in bases:
        return n in bases
    if any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        y = pow(b, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """The least prime above n."""
    n += 1
    while not is_prime(n):
        n += 1
    return n


class Residue:
    """An integer modulo the prime p, mixing with ints under ``+``, ``*``
    and ``**``. Its ``divmod`` multiplies by the divisor's inverse and
    leaves remainder 0 (ZeroDivisionError for a divisor that is 0 mod p).
    Where the integer division is exact, as the Laurent property makes it
    for the recurrences' terms (Fomin and Zelevinsky, Adv. Appl. Math. 28,
    2002), that is the quotient's residue: a dividing recurrence runs on
    residues unchanged and gives its integer terms modulo p."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v, self.p = v % p, p

    def _int(self, other) -> int:
        if isinstance(other, Residue):
            assert other.p == self.p
            return other.v
        return other

    def __add__(self, other):
        return Residue(self.v + self._int(other), self.p)

    def __mul__(self, other):
        return Residue(self.v * self._int(other), self.p)

    __radd__, __rmul__ = __add__, __mul__

    def __pow__(self, k: int):
        return Residue(pow(self.v, k, self.p), self.p)

    def __divmod__(self, other):
        d = self._int(other) % self.p
        if not d:
            raise ZeroDivisionError(f"divisor is 0 mod {self.p}")
        return Residue(self.v * pow(d, -1, self.p), self.p), 0

    def __eq__(self, other):
        return (self.v - self._int(other)) % self.p == 0

    def __repr__(self):
        return f"Residue({self.v}, {self.p})"


def lift_growth_constant(lifted: SeriesSource, parent: SecondOrderSpec, n: int,
                         dps: int = DEFAULT_DPS):
    """log X_n / lam^n, n >= 2, from the store of ``lift_spec(parent)``, lam
    the parent's dominant root: C' read off one head. It shares no code with
    the series for C, so it cross-checks C/(1 + lam)."""
    ctx = _context(dps)
    lam = dominant_root(parent.d1, parent.d2, dps)
    # X_m, counted from X_0 = X_1 = X_2 = 1, is the store's x_{m-1}.
    log_x = log_big(lifted.head(n - 1), dps)
    return ctx.divide(log_x, ctx.power(lam, n))


# The growth report in mpmath: the package's arithmetic before it moved to
# decimal, kept as an oracle that shares none of it. Every step runs at
# dps + 10 digits, as in the package, and the sum for L_n adds every k < n.


def _mp_log_big(head):
    bits, top = head
    return (bits - top.bit_length()) * mp.log(2) + mp.log(top)


def _mp_alpha(spec: SecondOrderSpec, x_k):
    den = spec.c * x_k**spec.d2
    num = 0
    for coeff in reversed(spec.g[:-1]):
        num = num * x_k + coeff
    if num == 0:
        return mp.mpf(0)
    num, den = _mp_rounded(num), _mp_rounded(den)
    if num is None or den is None:
        return None
    return mp.log1p(num / den)


def _mp_rounded(v):
    if isinstance(v, int):
        return mp.mpf(v)
    lo = mp.mpf((v.lo, v.e))
    return lo if lo == mp.mpf((v.hi, v.e)) else None


def mp_full_report(spec: SecondOrderSpec, n_max: int, dps: int = DEFAULT_DPS):
    """(lam, C, log x_n, reconstructed L_n, [(n, lower, upper)]) for
    n = 0..n_max, as mpf. The a_k come from brackets 64 bits wider than
    the working precision, as in the package."""
    store = SeriesSource(spec)
    with workdps(dps + 10):
        b = spec.d1 + spec.d2
        lam = (b + mp.sqrt(mp.mpf(b) * b - 4)) / 2
        alpha = functools.cache(
            lambda k: store._certify(k, functools.partial(_mp_alpha, spec), mp.prec + 64))
        lami = 1 / lam
        denom = lam - lami
        m = spec.d1 + spec.d2 - 2
        c_value = mp.log(spec.c) / m * (1 - lami) / denom
        k = 0
        while True:
            k += 1
            c_value += lami**k * alpha(k) / denom
            next_term = lami ** (k + 1) * alpha(k + 1) / denom
            if 2 * next_term < 1e-15 * c_value or k >= 60:
                break
        weights = [None] + [(lam ** j - lam ** -j) / denom for j in range(1, n_max)]
        exacts = []
        for n in range(n_max + 1):
            bracket = ((1 - lami) * lam**n - (1 - lam) * lami**n) / denom - 1
            exact = bracket * mp.log(spec.c) / m
            for k in range(1, n):
                exact += weights[n - k] * alpha(k)
            exacts.append(exact)
        logs = [_mp_log_big(store.head(n) if n else (1, 1)) for n in range(n_max + 2)]
        log2 = mp.log(2)
        roth = [(n, (logs[n + 1] - log2) / logs[n], logs[n + 1] / logs[n]) for n in range(2, n_max + 1)]
    return lam, c_value, logs[:n_max + 1], exacts, roth


def mp_asymp_payload(spec: SecondOrderSpec, n_max: int, digits: int) -> dict:
    """What ``asymp`` prints for spec, --n n_max and --digits, as mpmath's
    nstr writes the oracle's values; C_err, which rests on each library's
    own ulp, is left out."""
    lam, c_value, logs, exacts, roth = mp_full_report(spec, n_max, digits)
    shown = min(digits, 15)
    rows = [{"n": n, "log_x": mp.nstr(logs[n], shown), "exact": mp.nstr(exacts[n], shown),
             "growth_exp": mp.nstr(upper, shown), "roth_lo": mp.nstr(lower, shown),
             "roth_hi": mp.nstr(upper, shown)} for n, lower, upper in roth]
    return {"lambda": mp.nstr(lam, digits), "C": mp.nstr(c_value, min(digits, 20)), "rows": rows}
